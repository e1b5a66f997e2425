package mvir

import (
	"reflect"
	"strconv"

	"repro/internal/cc"
)

// Fingerprint returns a canonical textual form of f's body in which
// local variables are numbered by first appearance. Two functions with
// the same fingerprint compile to identical code, so the variant
// generator merges variants whose optimized fingerprints coincide
// (paper §3: "merge function bodies that become equal after
// optimization").
func Fingerprint(f *cc.FuncDecl) string {
	var p printer
	return string(p.fingerprint(nil, f))
}

// printer renders fingerprints without fmt, appending to a byte
// buffer the caller owns. One printer can render many; each clears and
// reuses the local-numbering map.
type printer struct {
	locals map[*cc.VarSym]int64
}

// fingerprint renders f's fingerprint into dst[:0], growing it as
// needed, and returns the result.
func (p *printer) fingerprint(dst []byte, f *cc.FuncDecl) []byte {
	if p.locals == nil {
		p.locals = make(map[*cc.VarSym]int64)
	} else {
		clear(p.locals)
	}
	for _, param := range f.Params {
		p.localID(param)
	}
	b := append(dst[:0], "func("...)
	b = strconv.AppendInt(b, int64(len(f.Params)), 10)
	b = append(b, ')')
	b = appendTypeSig(b, f.Ret)
	b = append(b, '{')
	if f.Body != nil {
		b = p.stmt(b, f.Body)
	}
	return append(b, '}')
}

func (p *printer) localID(s *cc.VarSym) int64 {
	if id, ok := p.locals[s]; ok {
		return id
	}
	id := int64(len(p.locals))
	p.locals[s] = id
	return id
}

func appendTypeSig(b []byte, t *cc.Type) []byte {
	if t == nil {
		return append(b, '?')
	}
	switch t.Kind {
	case cc.KindVoid:
		return append(b, 'v')
	case cc.KindBool:
		return append(b, 'b')
	case cc.KindInt, cc.KindEnum:
		if t.IsSigned() {
			b = append(b, 'i')
		} else {
			b = append(b, 'u')
		}
		return strconv.AppendInt(b, t.ByteSize()*8, 10)
	case cc.KindPtr:
		return appendTypeSig(append(b, 'p'), t.Elem)
	case cc.KindArray:
		b = strconv.AppendInt(append(b, 'a'), t.ArrayLen, 10)
		return appendTypeSig(b, t.Elem)
	case cc.KindFunc:
		b = append(b, "f("...)
		for i, q := range t.Params {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendTypeSig(b, q)
		}
		return appendTypeSig(append(b, ')'), t.Ret)
	}
	return append(b, '?')
}

func (p *printer) expr(b []byte, e cc.Expr) []byte {
	switch e := e.(type) {
	case nil:
		return append(b, '_')
	case *cc.IntLit:
		b = strconv.AppendInt(append(b, '#'), e.Value, 10)
		return appendTypeSig(append(b, ':'), e.Type())
	case *cc.StrLit:
		return strconv.AppendQuote(b, e.Value)
	case *cc.VarRef:
		if e.Sym != nil && (e.Sym.Storage == cc.StorageLocal || e.Sym.Storage == cc.StorageParam) {
			return strconv.AppendInt(append(b, 'l'), p.localID(e.Sym), 10)
		}
		return append(append(b, "g:"...), e.Name...)
	case *cc.Unary:
		b = append(append(b, '('), e.Op...)
		b = p.expr(b, e.X)
		return append(b, ')')
	case *cc.Binary:
		b = append(append(b, '('), e.Op...)
		b = appendTypeSig(append(b, ':'), e.Type())
		b = p.expr(append(b, ' '), e.X)
		b = p.expr(append(b, ' '), e.Y)
		return append(b, ')')
	case *cc.Assign:
		b = append(append(b, '('), e.Op...)
		b = p.expr(append(b, ' '), e.LHS)
		b = p.expr(append(b, ' '), e.RHS)
		return append(b, ')')
	case *cc.IncDec:
		b = append(append(b, '('), e.Op...)
		b = p.expr(append(b, ' '), e.X)
		return append(b, ')')
	case *cc.Call:
		b = p.expr(append(b, "(call "...), e.Fn)
		for _, a := range e.Args {
			b = p.expr(append(b, ' '), a)
		}
		return append(b, ')')
	case *cc.Index:
		b = p.expr(append(b, "(idx "...), e.Base)
		b = p.expr(append(b, ' '), e.Idx)
		return append(b, ')')
	case *cc.Cast:
		b = appendTypeSig(append(b, "(cast:"...), e.To)
		b = p.expr(append(b, ' '), e.X)
		return append(b, ')')
	case *cc.Cond:
		b = p.expr(append(b, "(?: "...), e.C)
		b = p.expr(append(b, ' '), e.T)
		b = p.expr(append(b, ' '), e.F)
		return append(b, ')')
	case *cc.Builtin:
		b = append(append(b, '('), e.Name...)
		for _, a := range e.Args {
			b = p.expr(append(b, ' '), a)
		}
		return append(b, ')')
	}
	return append(append(b, '?'), reflect.TypeOf(e).String()...)
}

func (p *printer) stmt(b []byte, s cc.Stmt) []byte {
	switch s := s.(type) {
	case nil, *cc.Empty:
		return b
	case *cc.Block:
		b = append(b, '{')
		for _, st := range s.Stmts {
			b = p.stmt(b, st)
		}
		return append(b, '}')
	case *cc.DeclStmt:
		b = strconv.AppendInt(append(b, "decl l"...), p.localID(s.Sym), 10)
		b = appendTypeSig(append(b, ':'), s.Sym.Type)
		if s.Init != nil {
			b = p.expr(append(b, '='), s.Init)
		}
		return append(b, ';')
	case *cc.ExprStmt:
		return append(p.expr(b, s.X), ';')
	case *cc.If:
		b = p.expr(append(b, "if "...), s.Cond)
		b = p.stmt(b, s.Then)
		if s.Else != nil {
			b = p.stmt(append(b, "else"...), s.Else)
		}
		return b
	case *cc.While:
		b = p.expr(append(b, "while "...), s.Cond)
		return p.stmt(b, s.Body)
	case *cc.DoWhile:
		b = p.stmt(append(b, "do"...), s.Body)
		b = p.expr(append(b, "while "...), s.Cond)
		return append(b, ';')
	case *cc.For:
		b = p.stmt(append(b, "for("...), s.Init)
		b = p.expr(append(b, ';'), s.Cond)
		b = p.expr(append(b, ';'), s.Post)
		return p.stmt(append(b, ')'), s.Body)
	case *cc.Switch:
		b = p.expr(append(b, "switch "...), s.Cond)
		b = append(b, '{')
		for _, cs := range s.Cases {
			if cs.IsDefault {
				b = append(b, "default:"...)
			} else {
				b = append(strconv.AppendInt(append(b, "case "...), cs.Val, 10), ':')
			}
			for _, st := range cs.Stmts {
				b = p.stmt(b, st)
			}
		}
		return append(b, '}')
	case *cc.Return:
		b = p.expr(append(b, "return "...), s.X)
		return append(b, ';')
	case *cc.Break:
		return append(b, "break;"...)
	case *cc.Continue:
		return append(b, "continue;"...)
	}
	return append(append(b, '?'), reflect.TypeOf(s).String()...)
}
