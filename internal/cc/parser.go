package cc

// Parser builds the AST for one translation unit. It pulls tokens from
// a Lexer through a three-token window, since the grammar looks at
// most two tokens past the current one and never backtracks.
type Parser struct {
	lex  *Lexer
	win  [3]Token // a ring: win[head] is the current token
	head int
	n    int   // tokens buffered in win; at least one
	err  error // the first lexical error; the window reads EOF after it
}

// Parse parses MVC source into an (unchecked) unit. Call Check on the
// result before using it. A lexical error anywhere in src wins over a
// parse error, as if the whole source had been lexed first: the error
// returned is the one LexAll would report.
func Parse(file, src string) (*Unit, error) {
	p := &Parser{lex: NewLexer(file, src)}
	p.fill()
	u := &Unit{
		File:    file,
		Enums:   make(map[string]*EnumDecl),
		Globals: make(map[string]*VarSym),
	}
	for !p.atEOF() {
		d, err := p.parseTopLevel(u)
		if err != nil {
			return nil, p.firstError(err)
		}
		if d != nil {
			u.Decls = append(u.Decls, d)
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	return u, nil
}

// firstError lexes the rest of the source after the parse error
// parseErr and returns the first lexical error, if there is one.
func (p *Parser) firstError(parseErr error) error {
	for p.err == nil {
		t, err := p.lex.Next()
		if err != nil {
			return err
		}
		if t.Kind == TokEOF {
			return parseErr
		}
	}
	return p.err
}

// fill lexes one more token into the window. After a lexical error it
// adds EOF, which ends the parse; Parse then reports the error.
func (p *Parser) fill() {
	i := p.head + p.n
	if i >= len(p.win) {
		i -= len(p.win)
	}
	p.n++
	if p.err == nil {
		var err error
		if p.win[i], err = p.lex.Next(); err == nil {
			return
		}
		p.err = err
	}
	p.win[i] = Token{Kind: TokEOF, Pos: p.lex.pos()}
}

// cur returns the current token. The pointer is valid until the next
// call to next.
func (p *Parser) cur() *Token { return &p.win[p.head] }

// peek returns the token k places past the current one (k < 3), with
// the same validity as cur.
func (p *Parser) peek(k int) *Token {
	for p.n <= k {
		p.fill()
	}
	i := p.head + k
	if i >= len(p.win) {
		i -= len(p.win)
	}
	return &p.win[i]
}

func (p *Parser) atEOF() bool { return p.cur().Kind == TokEOF }

// next consumes the current token; EOF is never consumed.
func (p *Parser) next() {
	if p.atEOF() {
		return
	}
	p.head++
	if p.head == len(p.win) {
		p.head = 0
	}
	p.n--
	if p.n == 0 {
		p.fill()
	}
}

func (p *Parser) peekIs(text string) bool {
	t := p.cur()
	return (t.Kind == TokPunct || t.Kind == TokKeyword) && t.Text == text
}

func (p *Parser) accept(text string) bool {
	if p.peekIs(text) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(text string) error {
	if !p.peekIs(text) {
		return errf(p.cur().Pos, "expected %q, found %s", text, p.cur())
	}
	p.next()
	return nil
}

// expectIdent consumes an identifier and returns its text.
func (p *Parser) expectIdent() (string, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return "", errf(t.Pos, "expected identifier, found %s", t)
	}
	name := t.Text
	p.next()
	return name, nil
}

// typeKeywords maps base type keywords to types.
var typeKeywords = map[string]*Type{
	"void": TypeVoid, "bool": TypeBool,
	"char": TypeChar, "short": TypeShort, "int": TypeInt, "long": TypeLong,
	"uchar": TypeUChar, "ushort": TypeUShort, "uint": TypeUInt, "ulong": TypeULong,
}

// startsType reports whether the current token begins a type specifier.
func (p *Parser) startsType() bool {
	t := p.cur()
	if t.Kind != TokKeyword {
		return false
	}
	if _, ok := typeKeywords[t.Text]; ok {
		return true
	}
	return t.Text == "enum"
}

// parseTypeSpec parses a base type: a type keyword or "enum Name".
func (p *Parser) parseTypeSpec() (*Type, error) {
	t := p.cur()
	if t.Kind == TokKeyword {
		if base, ok := typeKeywords[t.Text]; ok {
			p.next()
			return base, nil
		}
		if t.Text == "enum" {
			p.next()
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return EnumType(name), nil
		}
	}
	return nil, errf(t.Pos, "expected type, found %s", t)
}

// parseStars wraps base in pointer types for each '*'.
func (p *Parser) parseStars(base *Type) *Type {
	for p.accept("*") {
		base = PointerTo(base)
	}
	return base
}

// attrs collects declaration attributes.
type attrs struct {
	multiverse bool
	domain     []int64
	bindOnly   []string // multiverse(bind(a, b)): partial specialization
	static     bool
	extern     bool
	noscratch  bool
}

func (p *Parser) parseAttrs() (attrs, error) {
	var a attrs
	for {
		switch {
		case p.peekIs("multiverse"):
			p.next()
			a.multiverse = true
			if p.accept("(") {
				// Either a value domain (numbers, for variables) or a
				// bind(...) switch subset (identifiers, for functions).
				if p.cur().Kind == TokIdent && p.cur().Text == "bind" {
					p.next()
					if err := p.expect("("); err != nil {
						return a, err
					}
					for {
						id, err := p.expectIdent()
						if err != nil {
							return a, err
						}
						a.bindOnly = append(a.bindOnly, id)
						if !p.accept(",") {
							break
						}
					}
					if err := p.expect(")"); err != nil {
						return a, err
					}
				} else {
					for {
						neg := p.accept("-")
						t := p.cur()
						if t.Kind != TokNumber {
							return a, errf(t.Pos, "expected domain value, found %s", t)
						}
						v := t.Num
						p.next()
						if neg {
							v = -v
						}
						a.domain = append(a.domain, v)
						if !p.accept(",") {
							break
						}
					}
				}
				if err := p.expect(")"); err != nil {
					return a, err
				}
			}
		case p.peekIs("static"):
			p.next()
			a.static = true
		case p.peekIs("extern"):
			p.next()
			a.extern = true
		case p.peekIs("noscratch"):
			p.next()
			a.noscratch = true
		default:
			return a, nil
		}
	}
}

func (p *Parser) parseTopLevel(u *Unit) (Node, error) {
	if p.accept(";") {
		return nil, nil
	}
	// Enum declaration: enum Name { ... };
	if p.peekIs("enum") && p.peek(1).Kind == TokIdent &&
		p.peek(2).Kind == TokPunct && p.peek(2).Text == "{" {
		return p.parseEnumDecl(u)
	}

	a, err := p.parseAttrs()
	if err != nil {
		return nil, err
	}
	startPos := p.cur().Pos
	base, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	ty := p.parseStars(base)

	// Function-pointer declarator: T (*name)(params)
	if p.peekIs("(") {
		p.next()
		if err := p.expect("*"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		params, _, err := p.parseParamTypes()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		sym := &VarSym{
			Name:       name,
			Type:       PointerTo(FuncType(ty, params)),
			Storage:    storageOf(a),
			Extern:     a.extern,
			Multiverse: a.multiverse,
			Domain:     a.domain,
		}
		return &GlobalDecl{P: startPos, Sym: sym}, nil
	}

	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}

	// Function declaration or definition.
	if p.peekIs("(") {
		return p.parseFunc(a, ty, name, startPos)
	}

	// Global variable (possibly array).
	if p.accept("[") {
		lenTok := p.cur()
		if lenTok.Kind != TokNumber {
			return nil, errf(lenTok.Pos, "expected array length, found %s", lenTok)
		}
		n := lenTok.Num
		p.next()
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		ty = ArrayOf(ty, n)
	}
	var init Expr
	if p.accept("=") {
		init, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if len(a.bindOnly) > 0 {
		return nil, errf(startPos, "bind(...) belongs on a multiverse function, not on variable %q", name)
	}
	sym := &VarSym{
		Name:       name,
		Type:       ty,
		Storage:    storageOf(a),
		Extern:     a.extern,
		Multiverse: a.multiverse,
		Domain:     a.domain,
	}
	return &GlobalDecl{P: startPos, Sym: sym, Init: init}, nil
}

func storageOf(a attrs) StorageClass {
	if a.static {
		return StorageStatic
	}
	return StorageGlobal
}

func (p *Parser) parseEnumDecl(u *Unit) (Node, error) {
	pos := p.cur().Pos
	p.next() // enum
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	e := &EnumDecl{P: pos, Name: name}
	next := int64(0)
	for !p.peekIs("}") {
		id, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if p.accept("=") {
			neg := p.accept("-")
			t := p.cur()
			if t.Kind != TokNumber {
				return nil, errf(t.Pos, "expected enumerator value, found %s", t)
			}
			next = t.Num
			p.next()
			if neg {
				next = -next
			}
		}
		e.Names = append(e.Names, id)
		e.Values = append(e.Values, next)
		next++
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if len(e.Names) == 0 {
		return nil, errf(pos, "enum %q has no enumerators", e.Name)
	}
	if _, dup := u.Enums[e.Name]; dup {
		return nil, errf(pos, "enum %q redefined", e.Name)
	}
	u.Enums[e.Name] = e
	return e, nil
}

// parseParamTypes parses "(void)" or "(T a, T b, ...)"; names optional.
func (p *Parser) parseParamTypes() ([]*Type, []string, error) {
	if err := p.expect("("); err != nil {
		return nil, nil, err
	}
	var types []*Type
	var names []string
	if p.accept(")") {
		return nil, nil, nil
	}
	if p.peekIs("void") && p.peek(1).Kind == TokPunct && p.peek(1).Text == ")" {
		p.next()
		p.next()
		return nil, nil, nil
	}
	for {
		base, err := p.parseTypeSpec()
		if err != nil {
			return nil, nil, err
		}
		ty := p.parseStars(base)
		name := ""
		if t := p.cur(); t.Kind == TokIdent {
			name = t.Text
			p.next()
		}
		types = append(types, ty)
		names = append(names, name)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, nil, err
	}
	return types, names, nil
}

func (p *Parser) parseFunc(a attrs, ret *Type, name string, pos Pos) (Node, error) {
	types, names, err := p.parseParamTypes()
	if err != nil {
		return nil, err
	}
	fd := &FuncDecl{
		P:          pos,
		Name:       name,
		Ret:        ret,
		Multiverse: a.multiverse,
		BindOnly:   a.bindOnly,
		NoScratch:  a.noscratch,
		Static:     a.static,
	}
	if len(a.domain) > 0 {
		return nil, errf(pos, "a value domain belongs on the switch variable, not on function %q", name)
	}
	for i, ty := range types {
		fd.Params = append(fd.Params, &VarSym{
			Name:    names[i],
			Type:    ty,
			Storage: StorageParam,
		})
	}
	if p.accept(";") {
		return fd, nil // prototype
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fd.Body = body
	return fd, nil
}

// ---- Statements ----

func (p *Parser) parseBlock() (*Block, error) {
	pos := p.cur().Pos
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	b := &Block{stmtBase: stmtBase{P: pos}}
	for !p.peekIs("}") {
		if p.atEOF() {
			return nil, errf(pos, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next()
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	pos := p.cur().Pos
	switch {
	case p.peekIs("{"):
		return p.parseBlock()

	case p.peekIs(";"):
		p.next()
		return &Empty{stmtBase{pos}}, nil

	case p.peekIs("if"):
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.accept("else") {
			els, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return &If{stmtBase{pos}, cond, then, els}, nil

	case p.peekIs("while"):
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &While{stmtBase{pos}, cond, body, 0}, nil

	case p.peekIs("do"):
		p.next()
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expect("while"); err != nil {
			return nil, err
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &DoWhile{stmtBase{pos}, body, cond, 0}, nil

	case p.peekIs("for"):
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var init Stmt
		if !p.peekIs(";") {
			if p.startsType() {
				var err error
				init, err = p.parseLocalDecl()
				if err != nil {
					return nil, err
				}
			} else {
				x, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				init = &ExprStmt{stmtBase{x.Pos()}, x}
				if err := p.expect(";"); err != nil {
					return nil, err
				}
			}
		} else {
			p.next()
		}
		var cond Expr
		if !p.peekIs(";") {
			var err error
			cond, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		var post Expr
		if !p.peekIs(")") {
			var err error
			post, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &For{stmtBase{pos}, init, cond, post, body, 0}, nil

	case p.peekIs("switch"):
		return p.parseSwitch()

	case p.peekIs("return"):
		p.next()
		var x Expr
		if !p.peekIs(";") {
			var err error
			x, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &Return{stmtBase{pos}, x}, nil

	case p.peekIs("break"):
		p.next()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &Break{stmtBase{pos}}, nil

	case p.peekIs("continue"):
		p.next()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &Continue{stmtBase{pos}}, nil

	case p.startsType():
		return p.parseLocalDecl()
	}

	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return &ExprStmt{stmtBase{pos}, x}, nil
}

func (p *Parser) parseSwitch() (Stmt, error) {
	pos := p.cur().Pos
	p.next() // switch
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	sw := &Switch{stmtBase: stmtBase{pos}, Cond: cond}
	var cur *SwitchCase
	for !p.peekIs("}") {
		if p.atEOF() {
			return nil, errf(pos, "unterminated switch")
		}
		switch {
		case p.peekIs("case"):
			cp := p.cur().Pos
			p.next()
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(":"); err != nil {
				return nil, err
			}
			cur = &SwitchCase{P: cp, Stmts: nil}
			// The constant value is resolved in sema (enum constants
			// only become literals there); stash the expression in an
			// ExprStmt placeholder at the front.
			cur.Stmts = append(cur.Stmts, &ExprStmt{stmtBase{cp}, val})
			sw.Cases = append(sw.Cases, cur)
		case p.peekIs("default"):
			cp := p.cur().Pos
			p.next()
			if err := p.expect(":"); err != nil {
				return nil, err
			}
			cur = &SwitchCase{P: cp, IsDefault: true}
			sw.Cases = append(sw.Cases, cur)
		default:
			if cur == nil {
				return nil, errf(p.cur().Pos, "statement before first case label")
			}
			st, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			cur.Stmts = append(cur.Stmts, st)
		}
	}
	p.next()
	return sw, nil
}

// parseLocalDecl parses "T [*]* name [= expr] ;".
func (p *Parser) parseLocalDecl() (Stmt, error) {
	pos := p.cur().Pos
	base, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	ty := p.parseStars(base)
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	var init Expr
	if p.accept("=") {
		init, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	sym := &VarSym{Name: name, Type: ty, Storage: StorageLocal}
	return &DeclStmt{stmtBase{pos}, sym, init}, nil
}

// ---- Expressions ----

func (p *Parser) parseExpr() (Expr, error) { return p.parseAssign() }

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *Parser) parseAssign() (Expr, error) {
	lhs, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokPunct && assignOps[t.Text] {
		pos, op := t.Pos, t.Text
		p.next()
		rhs, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		return &Assign{exprBase{P: pos}, op, lhs, rhs}, nil
	}
	return lhs, nil
}

func (p *Parser) parseTernary() (Expr, error) {
	c, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.peekIs("?") {
		return c, nil
	}
	pos := p.cur().Pos
	p.next()
	tExpr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	fExpr, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &Cond{exprBase{P: pos}, c, tExpr, fExpr}, nil
}

// binary operator precedence levels, low to high.
var binLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *Parser) parseBinary(level int) (Expr, error) {
	if level >= len(binLevels) {
		return p.parseUnary()
	}
	lhs, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		matched := false
		if t.Kind == TokPunct {
			for _, op := range binLevels[level] {
				if t.Text == op {
					matched = true
					break
				}
			}
		}
		if !matched {
			return lhs, nil
		}
		pos, op := t.Pos, t.Text
		p.next()
		rhs, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{exprBase{P: pos}, op, lhs, rhs}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.Kind == TokPunct {
		pos, op := t.Pos, t.Text
		switch op {
		case "-", "!", "~", "*", "&":
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Unary{exprBase{P: pos}, op, x}, nil
		case "++", "--":
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &IncDec{exprBase{P: pos}, op, x, true}, nil
		case "(":
			// Cast: "(" type ")" unary — disambiguate by lookahead.
			if la := p.peek(1); la.Kind == TokKeyword {
				kw := la.Text
				if _, isType := typeKeywords[kw]; isType || kw == "enum" {
					p.next()
					base, err := p.parseTypeSpec()
					if err != nil {
						return nil, err
					}
					ty := p.parseStars(base)
					if err := p.expect(")"); err != nil {
						return nil, err
					}
					x, err := p.parseUnary()
					if err != nil {
						return nil, err
					}
					return &Cast{exprBase{P: pos}, ty, x}, nil
				}
			}
		}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		pos := p.cur().Pos
		switch {
		case p.peekIs("("):
			p.next()
			var args []Expr
			if !p.peekIs(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.accept(",") {
						break
					}
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			if vr, ok := x.(*VarRef); ok && builtinNames[vr.Name] {
				x = &Builtin{exprBase{P: pos}, vr.Name, args}
			} else {
				x = &Call{exprBase{P: pos}, x, args, 0}
			}
		case p.peekIs("["):
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			x = &Index{exprBase{P: pos}, x, idx}
		case p.peekIs("++"), p.peekIs("--"):
			op := p.cur().Text
			p.next()
			x = &IncDec{exprBase{P: pos}, op, x, false}
		default:
			return x, nil
		}
	}
}

// builtinNames lists the compiler builtins.
var builtinNames = map[string]bool{
	"__xchg": true, "__pause": true, "__cli": true, "__sti": true,
	"__hcall": true, "__outb": true, "__inb": true, "__rdtsc": true,
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	pos := t.Pos
	switch t.Kind {
	case TokNumber, TokChar:
		v := t.Num
		p.next()
		return &IntLit{exprBase{P: pos}, v}, nil
	case TokString:
		str := t.Str
		p.next()
		return &StrLit{exprBase{P: pos}, str}, nil
	case TokIdent:
		name := t.Text
		p.next()
		return &VarRef{exprBase: exprBase{P: pos}, Name: name}, nil
	case TokKeyword:
		switch t.Text {
		case "true":
			p.next()
			return &IntLit{exprBase{P: pos}, 1}, nil
		case "false":
			p.next()
			return &IntLit{exprBase{P: pos}, 0}, nil
		}
	case TokPunct:
		if t.Text == "(" {
			p.next()
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return x, nil
		}
	}
	return nil, errf(t.Pos, "expected expression, found %s", t)
}
