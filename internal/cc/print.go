package cc

import (
	"fmt"
	"strings"
)

// FormatFunc renders a (possibly specialized) function definition back
// to MVC source. The variant generator uses it to make generated
// variants inspectable (`mvcc -dump-variants`), and the tests use it
// for parse-print round trips.
func FormatFunc(f *FuncDecl) string {
	p := &srcPrinter{}
	p.funcDecl(f)
	return p.sb.String()
}

// FormatExpr renders one expression.
func FormatExpr(e Expr) string {
	p := &srcPrinter{}
	p.expr(e, 0)
	return p.sb.String()
}

type srcPrinter struct {
	sb     strings.Builder
	indent int
}

func (p *srcPrinter) nl() {
	p.sb.WriteString("\n")
	for i := 0; i < p.indent; i++ {
		p.sb.WriteString("\t")
	}
}

func (p *srcPrinter) funcDecl(f *FuncDecl) {
	if f.Multiverse {
		p.sb.WriteString("multiverse ")
	}
	if f.NoScratch {
		p.sb.WriteString("noscratch ")
	}
	if f.Static {
		p.sb.WriteString("static ")
	}
	p.sb.WriteString(typeName(f.Ret))
	p.sb.WriteString(" ")
	p.sb.WriteString(f.Name)
	p.sb.WriteString("(")
	if len(f.Params) == 0 {
		p.sb.WriteString("void")
	}
	for i, param := range f.Params {
		if i > 0 {
			p.sb.WriteString(", ")
		}
		p.sb.WriteString(typeName(param.Type))
		p.sb.WriteString(" ")
		p.sb.WriteString(localName(param))
	}
	p.sb.WriteString(")")
	if f.Body == nil {
		p.sb.WriteString(";")
		return
	}
	p.sb.WriteString(" ")
	p.block(f.Body)
	p.sb.WriteString("\n")
}

// typeName renders a type in MVC declaration syntax.
func typeName(t *Type) string {
	switch t.Kind {
	case KindPtr:
		return typeName(t.Elem) + "*"
	case KindArray:
		// Only valid in global declarations; expressions never need it.
		return fmt.Sprintf("%s[%d]", typeName(t.Elem), t.ArrayLen)
	default:
		return t.String()
	}
}

// localName disambiguates shadowed locals with their sema sequence
// number so the printed program stays compilable.
func localName(s *VarSym) string {
	if s.Storage == StorageLocal || s.Storage == StorageParam {
		if s.Seq > 0 {
			return fmt.Sprintf("%s_%d", s.Name, s.Seq)
		}
	}
	return s.Name
}

func (p *srcPrinter) block(b *Block) {
	p.sb.WriteString("{")
	p.indent++
	for _, st := range b.Stmts {
		p.nl()
		p.stmt(st)
	}
	p.indent--
	p.nl()
	p.sb.WriteString("}")
}

func (p *srcPrinter) stmt(s Stmt) {
	switch s := s.(type) {
	case nil:
	case *Block:
		p.block(s)
	case *DeclStmt:
		p.sb.WriteString(typeName(s.Sym.Type))
		p.sb.WriteString(" ")
		p.sb.WriteString(localName(s.Sym))
		if s.Init != nil {
			p.sb.WriteString(" = ")
			p.expr(s.Init, 0)
		}
		p.sb.WriteString(";")
	case *ExprStmt:
		p.expr(s.X, 0)
		p.sb.WriteString(";")
	case *If:
		p.sb.WriteString("if (")
		p.expr(s.Cond, 0)
		p.sb.WriteString(") ")
		p.stmtAsBlock(s.Then)
		if s.Else != nil {
			p.sb.WriteString(" else ")
			p.stmtAsBlock(s.Else)
		}
	case *While:
		p.sb.WriteString("while (")
		p.expr(s.Cond, 0)
		p.sb.WriteString(") ")
		p.stmtAsBlock(s.Body)
	case *DoWhile:
		p.sb.WriteString("do ")
		p.stmtAsBlock(s.Body)
		p.sb.WriteString(" while (")
		p.expr(s.Cond, 0)
		p.sb.WriteString(");")
	case *For:
		p.sb.WriteString("for (")
		if s.Init != nil {
			p.stmt(s.Init) // includes its own ';'
		} else {
			p.sb.WriteString(";")
		}
		p.sb.WriteString(" ")
		if s.Cond != nil {
			p.expr(s.Cond, 0)
		}
		p.sb.WriteString("; ")
		if s.Post != nil {
			p.expr(s.Post, 0)
		}
		p.sb.WriteString(") ")
		p.stmtAsBlock(s.Body)
	case *Switch:
		p.sb.WriteString("switch (")
		p.expr(s.Cond, 0)
		p.sb.WriteString(") {")
		for _, cs := range s.Cases {
			p.nl()
			if cs.IsDefault {
				p.sb.WriteString("default:")
			} else {
				fmt.Fprintf(&p.sb, "case %d:", cs.Val)
			}
			p.indent++
			for _, st := range cs.Stmts {
				p.nl()
				p.stmt(st)
			}
			p.indent--
		}
		p.nl()
		p.sb.WriteString("}")
	case *Return:
		p.sb.WriteString("return")
		if s.X != nil {
			p.sb.WriteString(" ")
			p.expr(s.X, 0)
		}
		p.sb.WriteString(";")
	case *Break:
		p.sb.WriteString("break;")
	case *Continue:
		p.sb.WriteString("continue;")
	case *Empty:
		p.sb.WriteString(";")
	default:
		fmt.Fprintf(&p.sb, "/* ?%T */", s)
	}
}

// stmtAsBlock prints control-flow bodies as braced blocks so dangling
// elses cannot re-associate.
func (p *srcPrinter) stmtAsBlock(s Stmt) {
	if b, ok := s.(*Block); ok {
		p.block(b)
		return
	}
	p.sb.WriteString("{")
	p.indent++
	p.nl()
	p.stmt(s)
	p.indent--
	p.nl()
	p.sb.WriteString("}")
}

// Binding powers for parenthesization, mirroring the parser's levels.
var binPrec = map[string]int{
	"||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

const (
	precTernary = 0
	precUnary   = 11
	precPostfix = 12
)

// expr prints e, parenthesizing when its precedence is below min.
func (p *srcPrinter) expr(e Expr, min int) {
	switch e := e.(type) {
	case *IntLit:
		if e.Value < 0 {
			// Negative literals re-lex as unary minus; parenthesize so
			// contexts like case labels or a-(-1) stay unambiguous.
			fmt.Fprintf(&p.sb, "(%d)", e.Value)
		} else {
			fmt.Fprintf(&p.sb, "%d", e.Value)
		}
	case *StrLit:
		fmt.Fprintf(&p.sb, "%q", e.Value)
	case *VarRef:
		if e.Sym != nil {
			p.sb.WriteString(localName(e.Sym))
		} else {
			p.sb.WriteString(e.Name)
		}
	case *Unary:
		p.paren(min > precUnary, func() {
			p.sb.WriteString(e.Op)
			// Space avoids -(-x) printing as --x.
			if e.Op == "-" {
				p.sb.WriteString(" ")
			}
			p.expr(e.X, precUnary)
		})
	case *Binary:
		prec := binPrec[e.Op]
		p.paren(min > prec, func() {
			p.expr(e.X, prec)
			fmt.Fprintf(&p.sb, " %s ", e.Op)
			p.expr(e.Y, prec+1)
		})
	case *Assign:
		p.paren(min > precTernary, func() {
			p.expr(e.LHS, precPostfix)
			fmt.Fprintf(&p.sb, " %s ", e.Op)
			p.expr(e.RHS, precTernary)
		})
	case *IncDec:
		if e.Prefix {
			p.sb.WriteString(e.Op)
			p.expr(e.X, precUnary)
		} else {
			p.expr(e.X, precPostfix)
			p.sb.WriteString(e.Op)
		}
	case *Call:
		p.expr(e.Fn, precPostfix)
		p.sb.WriteString("(")
		for i, a := range e.Args {
			if i > 0 {
				p.sb.WriteString(", ")
			}
			p.expr(a, precTernary)
		}
		p.sb.WriteString(")")
	case *Index:
		p.expr(e.Base, precPostfix)
		p.sb.WriteString("[")
		p.expr(e.Idx, precTernary)
		p.sb.WriteString("]")
	case *Cast:
		p.paren(min > precUnary, func() {
			fmt.Fprintf(&p.sb, "(%s)", typeName(e.To))
			p.expr(e.X, precUnary)
		})
	case *Cond:
		p.paren(min > precTernary, func() {
			p.expr(e.C, 1)
			p.sb.WriteString(" ? ")
			p.expr(e.T, precTernary)
			p.sb.WriteString(" : ")
			p.expr(e.F, precTernary)
		})
	case *Builtin:
		p.sb.WriteString(e.Name)
		p.sb.WriteString("(")
		for i, a := range e.Args {
			if i > 0 {
				p.sb.WriteString(", ")
			}
			p.expr(a, precTernary)
		}
		p.sb.WriteString(")")
	default:
		fmt.Fprintf(&p.sb, "/* ?%T */", e)
	}
}

func (p *srcPrinter) paren(need bool, body func()) {
	if need {
		p.sb.WriteString("(")
	}
	body()
	if need {
		p.sb.WriteString(")")
	}
}
