package cc

import "math"

// Check resolves names, assigns types, and validates the multiverse
// attribute rules of one translation unit. It rewrites the AST in
// place (enum constants become integer literals).
func Check(u *Unit) error {
	c := &checker{
		unit:       u,
		enumConsts: make(map[string]int64),
		enumOf:     make(map[string]*EnumDecl),
	}
	return c.checkUnit()
}

type checker struct {
	unit       *Unit
	enumConsts map[string]int64
	enumOf     map[string]*EnumDecl // constant name -> its enum
	scopes     []map[string]*VarSym
	curFunc    *FuncDecl
	loopDepth  int // enclosing loops (continue targets)
	breakDepth int // enclosing loops and switches (break targets)
	seq        int
}

func (c *checker) checkUnit() error {
	u := c.unit
	// Pass 1: enums, then file-scope symbols.
	for _, d := range u.Decls {
		e, ok := d.(*EnumDecl)
		if !ok {
			continue
		}
		for i, n := range e.Names {
			if _, dup := c.enumConsts[n]; dup {
				return errf(e.P, "enumerator %q redefined", n)
			}
			c.enumConsts[n] = e.Values[i]
			c.enumOf[n] = e
		}
	}
	for _, d := range u.Decls {
		switch d := d.(type) {
		case *GlobalDecl:
			if err := c.declareGlobal(d); err != nil {
				return err
			}
		case *FuncDecl:
			if err := c.declareFunc(d); err != nil {
				return err
			}
		}
	}
	// Pass 2: bodies and initializers.
	for _, d := range u.Decls {
		switch d := d.(type) {
		case *GlobalDecl:
			if err := c.checkGlobalInit(d); err != nil {
				return err
			}
		case *FuncDecl:
			if d.Body == nil {
				continue
			}
			if err := c.checkFuncBody(d); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *checker) declareGlobal(d *GlobalDecl) error {
	s := d.Sym
	if err := c.validateType(d.P, s.Type); err != nil {
		return err
	}
	if s.Multiverse {
		if err := c.validateMultiverseVar(d.P, s); err != nil {
			return err
		}
	}
	if _, isConst := c.enumConsts[s.Name]; isConst {
		return errf(d.P, "%q conflicts with an enumerator", s.Name)
	}
	if prev, ok := c.unit.Globals[s.Name]; ok {
		if !prev.Type.Same(s.Type) {
			return errf(d.P, "conflicting declarations of %q: %s vs %s", s.Name, prev.Type, s.Type)
		}
		if prev.Multiverse != s.Multiverse {
			return errf(d.P, "inconsistent multiverse attribute on %q", s.Name)
		}
		if !prev.Extern && !s.Extern {
			return errf(d.P, "%q redefined", s.Name)
		}
		// Keep the defining symbol; rewire this decl to it.
		if prev.Extern && !s.Extern {
			prev.Extern = false
			prev.Storage = s.Storage
			prev.Domain = s.Domain
		}
		d.Sym = prev
		return nil
	}
	c.unit.Globals[s.Name] = s
	return nil
}

func (c *checker) validateMultiverseVar(pos Pos, s *VarSym) error {
	t := s.Type
	isFnPtr := t.Kind == KindPtr && t.Elem.Kind == KindFunc
	if !t.IsInteger() && !isFnPtr {
		return errf(pos, "multiverse attribute requires an integer, bool, enum or function-pointer type, not %s", t)
	}
	if isFnPtr && len(s.Domain) > 0 {
		return errf(pos, "function-pointer switch %q cannot have a value domain", s.Name)
	}
	for _, v := range s.Domain {
		if v < math.MinInt32 || v > math.MaxInt32 {
			return errf(pos, "domain value %d of %q out of 32-bit range", v, s.Name)
		}
	}
	seen := make(map[int64]bool)
	for _, v := range s.Domain {
		if seen[v] {
			return errf(pos, "duplicate domain value %d for %q", v, s.Name)
		}
		seen[v] = true
	}
	return nil
}

// EffectiveDomain returns the specialization domain of a multiverse
// variable under the paper's default policy: an explicit domain wins;
// enums use all enumerators; other integers use {0, 1}.
func EffectiveDomain(s *VarSym, enums map[string]*EnumDecl) []int64 {
	if len(s.Domain) > 0 {
		out := make([]int64, len(s.Domain))
		copy(out, s.Domain)
		return out
	}
	if s.Type.Kind == KindEnum {
		if e, ok := enums[s.Type.EnumName]; ok {
			out := make([]int64, len(e.Values))
			copy(out, e.Values)
			return out
		}
	}
	return []int64{0, 1}
}

func (c *checker) declareFunc(d *FuncDecl) error {
	if err := c.validateType(d.P, d.Ret); err != nil {
		return err
	}
	for _, p := range d.Params {
		if err := c.validateType(d.P, p.Type); err != nil {
			return err
		}
		if p.Type.Kind == KindArray || p.Type.Kind == KindVoid {
			return errf(d.P, "invalid parameter type %s", p.Type)
		}
	}
	if d.NoScratch && d.Ret.Kind != KindVoid {
		return errf(d.P, "noscratch function %q must return void", d.Name)
	}
	// A multiverse prototype without a body is fine — the attribute
	// must be visible in every unit (paper §5).
	storage := StorageGlobal
	if d.Static {
		storage = StorageStatic
	}
	sym := &VarSym{Name: d.Name, Type: d.Type(), Storage: storage, Func: d, Multiverse: d.Multiverse}
	if prev, ok := c.unit.Globals[d.Name]; ok {
		if prev.Func == nil {
			return errf(d.P, "%q redeclared as a function", d.Name)
		}
		if !prev.Type.Same(sym.Type) {
			return errf(d.P, "conflicting declarations of %q", d.Name)
		}
		if prev.Func.Multiverse != d.Multiverse {
			return errf(d.P, "inconsistent multiverse attribute on function %q", d.Name)
		}
		if prev.Func.NoScratch != d.NoScratch {
			return errf(d.P, "inconsistent noscratch attribute on function %q", d.Name)
		}
		if prev.Func.Body != nil && d.Body != nil {
			return errf(d.P, "function %q redefined", d.Name)
		}
		if d.Body != nil {
			prev.Func = d // definition wins
		}
		d.Sym = prev
		return nil
	}
	d.Sym = sym
	c.unit.Globals[d.Name] = sym
	return nil
}

func (c *checker) validateType(pos Pos, t *Type) error {
	switch t.Kind {
	case KindEnum:
		if _, ok := c.unit.Enums[t.EnumName]; !ok {
			return errf(pos, "undefined enum %q", t.EnumName)
		}
	case KindPtr:
		if t.Elem.Kind == KindFunc {
			return c.validateType(pos, t.Elem.Ret)
		}
		return c.validateType(pos, t.Elem)
	case KindArray:
		if t.ArrayLen <= 0 {
			return errf(pos, "array length must be positive")
		}
		return c.validateType(pos, t.Elem)
	}
	return nil
}

func (c *checker) checkGlobalInit(d *GlobalDecl) error {
	if d.Init == nil {
		return nil
	}
	s := d.Sym
	if s.Extern {
		return errf(d.P, "extern %q cannot have an initializer", s.Name)
	}
	x, err := c.checkExpr(d.Init)
	if err != nil {
		return err
	}
	d.Init = x
	v, ok := constValue(x)
	if !ok {
		return errf(d.P, "initializer of %q must be an integer constant expression", s.Name)
	}
	if !s.Type.IsInteger() {
		return errf(d.P, "cannot initialize %s with a constant", s.Type)
	}
	v = Truncate(v, s.Type)
	s.Init = &v
	return nil
}

// ---- Function bodies ----

func (c *checker) checkFuncBody(d *FuncDecl) error {
	c.curFunc = d
	for _, name := range d.BindOnly {
		sym, ok := c.unit.Globals[name]
		if !ok || !sym.Multiverse {
			return errf(d.P, "bind(%s): not a multiverse configuration switch", name)
		}
	}
	c.pushScope()
	defer c.popScope()
	for _, p := range d.Params {
		if p.Name == "" {
			return errf(d.P, "parameter of %q missing a name", d.Name)
		}
		if err := c.declareLocal(d.P, p); err != nil {
			return err
		}
	}
	if len(d.Params) > 6 {
		return errf(d.P, "function %q has more than 6 parameters", d.Name)
	}
	return c.checkStmt(d.Body)
}

func (c *checker) pushScope() {
	c.scopes = append(c.scopes, make(map[string]*VarSym))
}

func (c *checker) popScope() { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declareLocal(pos Pos, s *VarSym) error {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[s.Name]; dup {
		return errf(pos, "%q redeclared in this scope", s.Name)
	}
	c.seq++
	s.Seq = c.seq
	top[s.Name] = s
	return nil
}

func (c *checker) lookup(name string) *VarSym {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	return c.unit.Globals[name]
}

func (c *checker) checkStmt(s Stmt) error {
	switch s := s.(type) {
	case *Block:
		c.pushScope()
		defer c.popScope()
		for _, st := range s.Stmts {
			if err := c.checkStmt(st); err != nil {
				return err
			}
		}
		return nil

	case *DeclStmt:
		if err := c.validateType(s.Pos(), s.Sym.Type); err != nil {
			return err
		}
		switch s.Sym.Type.Kind {
		case KindVoid, KindArray, KindFunc:
			return errf(s.Pos(), "invalid local variable type %s", s.Sym.Type)
		}
		if s.Init != nil {
			x, err := c.checkExpr(s.Init)
			if err != nil {
				return err
			}
			if err := c.checkAssignable(s.Pos(), s.Sym.Type, x); err != nil {
				return err
			}
			s.Init = x
		}
		return c.declareLocal(s.Pos(), s.Sym)

	case *ExprStmt:
		x, err := c.checkExpr(s.X)
		if err != nil {
			return err
		}
		s.X = x
		return nil

	case *If:
		x, err := c.checkCond(s.Cond)
		if err != nil {
			return err
		}
		s.Cond = x
		if err := c.checkStmt(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return c.checkStmt(s.Else)
		}
		return nil

	case *While:
		x, err := c.checkCond(s.Cond)
		if err != nil {
			return err
		}
		s.Cond = x
		c.loopDepth++
		c.breakDepth++
		defer func() { c.loopDepth--; c.breakDepth-- }()
		return c.checkStmt(s.Body)

	case *DoWhile:
		c.loopDepth++
		c.breakDepth++
		err := c.checkStmt(s.Body)
		c.loopDepth--
		c.breakDepth--
		if err != nil {
			return err
		}
		x, err := c.checkCond(s.Cond)
		if err != nil {
			return err
		}
		s.Cond = x
		return nil

	case *For:
		c.pushScope()
		defer c.popScope()
		if s.Init != nil {
			if err := c.checkStmt(s.Init); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			x, err := c.checkCond(s.Cond)
			if err != nil {
				return err
			}
			s.Cond = x
		}
		if s.Post != nil {
			x, err := c.checkExpr(s.Post)
			if err != nil {
				return err
			}
			s.Post = x
		}
		c.loopDepth++
		c.breakDepth++
		defer func() { c.loopDepth--; c.breakDepth-- }()
		return c.checkStmt(s.Body)

	case *Switch:
		return c.checkSwitch(s)

	case *Return:
		ret := c.curFunc.Ret
		if s.X == nil {
			if ret.Kind != KindVoid {
				return errf(s.Pos(), "missing return value in %q", c.curFunc.Name)
			}
			return nil
		}
		if ret.Kind == KindVoid {
			return errf(s.Pos(), "return with a value in void function %q", c.curFunc.Name)
		}
		x, err := c.checkExpr(s.X)
		if err != nil {
			return err
		}
		if err := c.checkAssignable(s.Pos(), ret, x); err != nil {
			return err
		}
		s.X = x
		return nil

	case *Break:
		if c.breakDepth == 0 {
			return errf(s.Pos(), "break outside a loop or switch")
		}
		return nil

	case *Continue:
		if c.loopDepth == 0 {
			return errf(s.Pos(), "continue outside a loop")
		}
		return nil

	case *Empty:
		return nil
	}
	return errf(s.Pos(), "internal: unknown statement %T", s)
}

func (c *checker) checkSwitch(s *Switch) error {
	x, err := c.checkExpr(s.Cond)
	if err != nil {
		return err
	}
	if !x.Type().IsInteger() {
		return errf(s.Pos(), "switch requires an integer, not %s", x.Type())
	}
	s.Cond = x
	seen := make(map[int64]bool)
	sawDefault := false
	c.breakDepth++
	defer func() { c.breakDepth-- }()
	for _, cs := range s.Cases {
		if cs.IsDefault {
			if sawDefault {
				return errf(cs.P, "multiple default labels")
			}
			sawDefault = true
		} else {
			// The parser stashed the label expression as a leading
			// ExprStmt placeholder; resolve it to a constant.
			placeholder, ok := cs.Stmts[0].(*ExprStmt)
			if !ok {
				return errf(cs.P, "internal: malformed case label")
			}
			lx, err := c.checkExpr(placeholder.X)
			if err != nil {
				return err
			}
			v, isConst := constValue(lx)
			if !isConst {
				return errf(cs.P, "case label must be an integer constant expression")
			}
			if seen[v] {
				return errf(cs.P, "duplicate case value %d", v)
			}
			seen[v] = true
			cs.Val = v
			cs.Stmts = cs.Stmts[1:]
		}
		c.pushScope()
		for _, st := range cs.Stmts {
			if err := c.checkStmt(st); err != nil {
				c.popScope()
				return err
			}
		}
		c.popScope()
	}
	return nil
}

func (c *checker) checkCond(x Expr) (Expr, error) {
	x, err := c.checkExpr(x)
	if err != nil {
		return nil, err
	}
	if !x.Type().IsScalar() {
		return nil, errf(x.Pos(), "condition must be scalar, not %s", x.Type())
	}
	return x, nil
}

// checkAssignable validates storing a value of x's type into type dst.
func (c *checker) checkAssignable(pos Pos, dst *Type, x Expr) error {
	src := x.Type()
	switch {
	case dst.IsInteger() && src.IsInteger():
		return nil
	case dst.Kind == KindPtr && src.Kind == KindPtr:
		return nil // C-style lenient pointer assignment
	case dst.Kind == KindPtr && src.IsInteger():
		if lit, ok := x.(*IntLit); ok && lit.Value == 0 {
			return nil // null pointer constant
		}
		return errf(pos, "cannot assign %s to %s without a cast", src, dst)
	default:
		return errf(pos, "cannot assign %s to %s", src, dst)
	}
}

func isLvalue(x Expr) bool {
	switch x := x.(type) {
	case *VarRef:
		return x.Sym != nil && x.Sym.Func == nil && x.Sym.Type.Kind != KindArray
	case *Unary:
		return x.Op == "*"
	case *Index:
		return true
	}
	return false
}

func (c *checker) checkExpr(x Expr) (Expr, error) {
	switch x := x.(type) {
	case *IntLit:
		if x.Ty == nil {
			x.Ty = TypeInt
			if x.Value > math.MaxInt32 || x.Value < math.MinInt32 {
				x.Ty = TypeLong
			}
		}
		return x, nil

	case *StrLit:
		x.Ty = PointerTo(TypeChar)
		return x, nil

	case *VarRef:
		if builtinNames[x.Name] {
			return nil, errf(x.Pos(), "builtin %q must be called", x.Name)
		}
		if v, ok := c.enumConsts[x.Name]; ok {
			e := c.enumOf[x.Name]
			return &IntLit{exprBase{P: x.Pos(), Ty: EnumType(e.Name)}, v}, nil
		}
		sym := c.lookup(x.Name)
		if sym == nil {
			return nil, errf(x.Pos(), "undefined: %q", x.Name)
		}
		x.Sym = sym
		switch {
		case sym.Func != nil:
			x.Ty = PointerTo(sym.Type)
		case sym.Type.Kind == KindArray:
			x.Ty = PointerTo(sym.Type.Elem) // array-to-pointer decay
		default:
			x.Ty = sym.Type
		}
		return x, nil

	case *Unary:
		inner, err := c.checkExpr(x.X)
		if err != nil {
			return nil, err
		}
		x.X = inner
		t := inner.Type()
		switch x.Op {
		case "-", "~":
			if !t.IsInteger() {
				return nil, errf(x.Pos(), "unary %s requires an integer, not %s", x.Op, t)
			}
			x.Ty = Common(t, TypeInt)
		case "!":
			if !t.IsScalar() {
				return nil, errf(x.Pos(), "unary ! requires a scalar, not %s", t)
			}
			x.Ty = TypeInt
		case "*":
			if t.Kind != KindPtr || t.Elem.Kind == KindFunc || t.Elem.Kind == KindVoid {
				return nil, errf(x.Pos(), "cannot dereference %s", t)
			}
			x.Ty = t.Elem
		case "&":
			if vr, ok := inner.(*VarRef); ok && vr.Sym.Func != nil {
				// &f on a function yields the same function pointer.
				return inner, nil
			}
			if !isLvalue(inner) {
				return nil, errf(x.Pos(), "cannot take the address of this expression")
			}
			x.Ty = PointerTo(t)
		default:
			return nil, errf(x.Pos(), "internal: unary %q", x.Op)
		}
		return x, nil

	case *Binary:
		return c.checkBinary(x)

	case *Assign:
		lhs, err := c.checkExpr(x.LHS)
		if err != nil {
			return nil, err
		}
		rhs, err := c.checkExpr(x.RHS)
		if err != nil {
			return nil, err
		}
		x.LHS, x.RHS = lhs, rhs
		if !isLvalue(lhs) {
			return nil, errf(x.Pos(), "left side of %s is not assignable", x.Op)
		}
		lt := lhs.Type()
		if x.Op == "=" {
			if err := c.checkAssignable(x.Pos(), lt, rhs); err != nil {
				return nil, err
			}
		} else {
			// Compound: lhs op= rhs needs integer lhs (or ptr +=/-= int).
			if lt.Kind == KindPtr {
				if (x.Op != "+=" && x.Op != "-=") || !rhs.Type().IsInteger() {
					return nil, errf(x.Pos(), "invalid %s on %s", x.Op, lt)
				}
			} else if !lt.IsInteger() || !rhs.Type().IsInteger() {
				return nil, errf(x.Pos(), "invalid %s on %s and %s", x.Op, lt, rhs.Type())
			}
		}
		x.Ty = lt
		return x, nil

	case *IncDec:
		inner, err := c.checkExpr(x.X)
		if err != nil {
			return nil, err
		}
		x.X = inner
		if !isLvalue(inner) {
			return nil, errf(x.Pos(), "%s requires an lvalue", x.Op)
		}
		t := inner.Type()
		if !t.IsInteger() && t.Kind != KindPtr {
			return nil, errf(x.Pos(), "%s requires an integer or pointer", x.Op)
		}
		x.Ty = t
		return x, nil

	case *Call:
		fn, err := c.checkExpr(x.Fn)
		if err != nil {
			return nil, err
		}
		x.Fn = fn
		ft := fn.Type()
		if ft.Kind == KindPtr && ft.Elem.Kind == KindFunc {
			ft = ft.Elem
		}
		if ft.Kind != KindFunc {
			return nil, errf(x.Pos(), "cannot call a value of type %s", fn.Type())
		}
		if len(x.Args) != len(ft.Params) {
			return nil, errf(x.Pos(), "call has %d arguments, want %d", len(x.Args), len(ft.Params))
		}
		for i, a := range x.Args {
			ca, err := c.checkExpr(a)
			if err != nil {
				return nil, err
			}
			if err := c.checkAssignable(a.Pos(), ft.Params[i], ca); err != nil {
				return nil, err
			}
			x.Args[i] = ca
		}
		x.Ty = ft.Ret
		return x, nil

	case *Index:
		base, err := c.checkExpr(x.Base)
		if err != nil {
			return nil, err
		}
		idx, err := c.checkExpr(x.Idx)
		if err != nil {
			return nil, err
		}
		x.Base, x.Idx = base, idx
		bt := base.Type()
		if bt.Kind != KindPtr || bt.Elem.Kind == KindVoid || bt.Elem.Kind == KindFunc {
			return nil, errf(x.Pos(), "cannot index %s", bt)
		}
		if !idx.Type().IsInteger() {
			return nil, errf(x.Pos(), "index must be an integer")
		}
		x.Ty = bt.Elem
		return x, nil

	case *Cast:
		inner, err := c.checkExpr(x.X)
		if err != nil {
			return nil, err
		}
		x.X = inner
		if err := c.validateType(x.Pos(), x.To); err != nil {
			return nil, err
		}
		from := inner.Type()
		ok := (x.To.IsScalar() && from.IsScalar()) || x.To.Kind == KindVoid
		if !ok {
			return nil, errf(x.Pos(), "invalid cast from %s to %s", from, x.To)
		}
		x.Ty = x.To
		return x, nil

	case *Cond:
		cond, err := c.checkCond(x.C)
		if err != nil {
			return nil, err
		}
		tv, err := c.checkExpr(x.T)
		if err != nil {
			return nil, err
		}
		fv, err := c.checkExpr(x.F)
		if err != nil {
			return nil, err
		}
		x.C, x.T, x.F = cond, tv, fv
		tt, ft := tv.Type(), fv.Type()
		switch {
		case tt.IsInteger() && ft.IsInteger():
			x.Ty = Common(tt, ft)
		case tt.Kind == KindPtr && ft.Kind == KindPtr:
			x.Ty = tt
		default:
			return nil, errf(x.Pos(), "mismatched ?: operand types %s and %s", tt, ft)
		}
		return x, nil

	case *Builtin:
		return c.checkBuiltin(x)
	}
	return nil, errf(x.Pos(), "internal: unknown expression %T", x)
}

func (c *checker) checkBinary(x *Binary) (Expr, error) {
	lhs, err := c.checkExpr(x.X)
	if err != nil {
		return nil, err
	}
	rhs, err := c.checkExpr(x.Y)
	if err != nil {
		return nil, err
	}
	x.X, x.Y = lhs, rhs
	lt, rt := lhs.Type(), rhs.Type()

	switch x.Op {
	case "&&", "||":
		if !lt.IsScalar() || !rt.IsScalar() {
			return nil, errf(x.Pos(), "%s requires scalar operands", x.Op)
		}
		x.Ty = TypeInt
		return x, nil

	case "==", "!=", "<", "<=", ">", ">=":
		switch {
		case lt.IsInteger() && rt.IsInteger():
		case lt.Kind == KindPtr && rt.Kind == KindPtr:
		case lt.Kind == KindPtr && isNullConst(rhs):
		case rt.Kind == KindPtr && isNullConst(lhs):
		default:
			return nil, errf(x.Pos(), "cannot compare %s and %s", lt, rt)
		}
		x.Ty = TypeInt
		return x, nil

	case "+", "-":
		if lt.Kind == KindPtr || rt.Kind == KindPtr {
			switch {
			case lt.Kind == KindPtr && rt.IsInteger():
				x.Ty = lt
			case rt.Kind == KindPtr && lt.IsInteger() && x.Op == "+":
				x.Ty = rt
			case lt.Kind == KindPtr && rt.Kind == KindPtr && x.Op == "-":
				if !lt.Elem.Same(rt.Elem) {
					return nil, errf(x.Pos(), "pointer subtraction of incompatible types")
				}
				x.Ty = TypeLong
			default:
				return nil, errf(x.Pos(), "invalid pointer arithmetic %s %s %s", lt, x.Op, rt)
			}
			return x, nil
		}
		fallthrough

	case "*", "/", "%", "&", "|", "^":
		if !lt.IsInteger() || !rt.IsInteger() {
			return nil, errf(x.Pos(), "%s requires integer operands, got %s and %s", x.Op, lt, rt)
		}
		x.Ty = Common(lt, rt)
		return x, nil

	case "<<", ">>":
		if !lt.IsInteger() || !rt.IsInteger() {
			return nil, errf(x.Pos(), "%s requires integer operands", x.Op)
		}
		x.Ty = Common(lt, TypeInt)
		return x, nil
	}
	return nil, errf(x.Pos(), "internal: binary %q", x.Op)
}

func isNullConst(x Expr) bool {
	lit, ok := x.(*IntLit)
	return ok && lit.Value == 0
}

var builtinSigs = map[string]struct {
	args int
	ret  *Type
}{
	"__xchg":  {2, TypeLong},
	"__pause": {0, TypeVoid},
	"__cli":   {0, TypeVoid},
	"__sti":   {0, TypeVoid},
	"__hcall": {1, TypeVoid},
	"__outb":  {2, TypeVoid},
	"__inb":   {1, TypeInt},
	"__rdtsc": {0, TypeULong},
}

func (c *checker) checkBuiltin(x *Builtin) (Expr, error) {
	sig, ok := builtinSigs[x.Name]
	if !ok {
		return nil, errf(x.Pos(), "internal: unknown builtin %q", x.Name)
	}
	if len(x.Args) != sig.args {
		return nil, errf(x.Pos(), "%s takes %d arguments, got %d", x.Name, sig.args, len(x.Args))
	}
	for i, a := range x.Args {
		ca, err := c.checkExpr(a)
		if err != nil {
			return nil, err
		}
		x.Args[i] = ca
	}
	if x.Name == "__xchg" {
		pt := x.Args[0].Type()
		if pt.Kind != KindPtr || pt.Elem.ByteSize() != 8 {
			return nil, errf(x.Pos(), "__xchg requires a pointer to an 8-byte integer, got %s", pt)
		}
		if !x.Args[1].Type().IsInteger() {
			return nil, errf(x.Pos(), "__xchg value must be an integer")
		}
	} else {
		for _, a := range x.Args {
			if !a.Type().IsInteger() {
				return nil, errf(a.Pos(), "%s arguments must be integers", x.Name)
			}
		}
	}
	x.Ty = sig.ret
	return x, nil
}
