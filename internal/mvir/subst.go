package mvir

import (
	"fmt"

	"repro/internal/cc"
)

// Substitute replaces every *read* of the given configuration switches
// in f's body with the constant from the assignment, exactly as the
// compiler plugin does before the optimization passes (paper §3).
// Writes to a substituted switch are kept: a store's target is never
// substituted.
func Substitute(f *cc.FuncDecl, assignment map[*cc.VarSym]int64) {
	s := &substituter{assignment: assignment}
	if f.Body != nil {
		s.stmt(f.Body)
	}
}

type substituter struct {
	assignment map[*cc.VarSym]int64
}

// value returns the constant replacement for a read of e, if any.
func (s *substituter) value(e cc.Expr) (cc.Expr, bool) {
	vr, ok := e.(*cc.VarRef)
	if !ok || vr.Sym == nil {
		return nil, false
	}
	v, ok := s.assignment[vr.Sym]
	if !ok {
		return nil, false
	}
	lit := &cc.IntLit{Value: v}
	lit.P = vr.P
	lit.SetType(vr.Type())
	return lit, true
}

// expr rewrites reads inside e and returns the replacement.
func (s *substituter) expr(e cc.Expr) cc.Expr {
	if e == nil {
		return nil
	}
	if lit, ok := s.value(e); ok {
		return lit
	}
	switch e := e.(type) {
	case *cc.IntLit, *cc.StrLit, *cc.VarRef:
		return e
	case *cc.Unary:
		if e.Op == "&" {
			// Taking the address of a switch is not a read; the
			// variable keeps existing in memory.
			return e
		}
		e.X = s.expr(e.X)
		return e
	case *cc.Binary:
		e.X = s.expr(e.X)
		e.Y = s.expr(e.Y)
		return e
	case *cc.Assign:
		e.LHS = s.lvalue(e.LHS)
		e.RHS = s.expr(e.RHS)
		return e
	case *cc.IncDec:
		e.X = s.lvalue(e.X)
		return e
	case *cc.Call:
		e.Fn = s.expr(e.Fn)
		for i := range e.Args {
			e.Args[i] = s.expr(e.Args[i])
		}
		return e
	case *cc.Index:
		e.Base = s.expr(e.Base)
		e.Idx = s.expr(e.Idx)
		return e
	case *cc.Cast:
		e.X = s.expr(e.X)
		return e
	case *cc.Cond:
		e.C = s.expr(e.C)
		e.T = s.expr(e.T)
		e.F = s.expr(e.F)
		return e
	case *cc.Builtin:
		for i := range e.Args {
			e.Args[i] = s.expr(e.Args[i])
		}
		return e
	}
	panic(fmt.Sprintf("mvir: substitute in unknown expression %T", e))
}

// lvalue rewrites the non-store parts of an lvalue expression
// (indices, pointer operands) but never the stored-to location itself,
// so a write to a switch, and a compound assignment's read of it, stay
// accesses to the variable.
func (s *substituter) lvalue(e cc.Expr) cc.Expr {
	switch e := e.(type) {
	case *cc.VarRef:
		return e
	case *cc.Unary: // *p
		e.X = s.expr(e.X)
		return e
	case *cc.Index:
		e.Base = s.expr(e.Base)
		e.Idx = s.expr(e.Idx)
		return e
	}
	return s.expr(e)
}

func (s *substituter) stmt(st cc.Stmt) {
	switch st := st.(type) {
	case nil:
	case *cc.Block:
		for i := range st.Stmts {
			s.stmt(st.Stmts[i])
		}
	case *cc.DeclStmt:
		st.Init = s.expr(st.Init)
	case *cc.ExprStmt:
		st.X = s.expr(st.X)
	case *cc.If:
		st.Cond = s.expr(st.Cond)
		s.stmt(st.Then)
		s.stmt(st.Else)
	case *cc.While:
		st.Cond = s.expr(st.Cond)
		s.stmt(st.Body)
	case *cc.DoWhile:
		s.stmt(st.Body)
		st.Cond = s.expr(st.Cond)
	case *cc.For:
		s.stmt(st.Init)
		st.Cond = s.expr(st.Cond)
		st.Post = s.expr(st.Post)
		s.stmt(st.Body)
	case *cc.Switch:
		st.Cond = s.expr(st.Cond)
		for _, cs := range st.Cases {
			for i := range cs.Stmts {
				s.stmt(cs.Stmts[i])
			}
		}
	case *cc.Return:
		st.X = s.expr(st.X)
	case *cc.Break, *cc.Continue, *cc.Empty:
	default:
		panic(fmt.Sprintf("mvir: substitute in unknown statement %T", st))
	}
}

// ReferencedSwitches returns the multiverse configuration switches read
// or written anywhere in f's body, in first-appearance order. This is
// the set the variant generator builds its cross product over.
func ReferencedSwitches(f *cc.FuncDecl) []*cc.VarSym {
	var order []*cc.VarSym
	seen := make(map[*cc.VarSym]bool)
	cc.Inspect(f, func(n cc.Node) bool {
		if vr, ok := n.(*cc.VarRef); ok && vr.Sym != nil && vr.Sym.Multiverse && !seen[vr.Sym] {
			seen[vr.Sym] = true
			order = append(order, vr.Sym)
		}
		return true
	})
	return order
}
