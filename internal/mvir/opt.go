package mvir

import (
	"bytes"

	"repro/internal/cc"
)

// Optimize runs the specialization-oriented optimization pipeline on f
// until it reaches a fixed point: constant folding, branch pruning,
// local constant propagation, unreachable-code elimination, and
// dead-store elimination. It corresponds to the subset of GCC's
// optimizers the paper identifies as "of special effectiveness":
// constant propagation, constant folding and dead-code elimination.
//
// A round that leaves the fingerprint unchanged ends the loop. Each
// round prints into the buffer of the round before last, and Optimize
// returns the final fingerprint, Fingerprint(f) of the body it leaves,
// which the variant generator uses as the merge key.
func Optimize(f *cc.FuncDecl) string {
	var p printer
	prev := p.fingerprint(nil, f)
	if f.Body == nil {
		return string(prev)
	}
	cur := make([]byte, 0, len(prev)) // rounds seldom grow a body
	for i := 0; i < 16; i++ {
		o := &optimizer{addrTaken: addrTakenLocals(f)}
		body := o.stmt(f.Body, env{})
		if body == nil {
			f.Body = &cc.Block{}
		} else if b, ok := body.(*cc.Block); ok {
			f.Body = b
		} else {
			f.Body = &cc.Block{Stmts: []cc.Stmt{body}}
		}
		removeDeadLocals(f)
		cur = p.fingerprint(cur, f)
		if bytes.Equal(cur, prev) {
			break
		}
		prev, cur = cur, prev
	}
	return string(prev)
}

// env tracks locals currently known to hold a constant.
type env map[*cc.VarSym]int64

func (e env) clone() env {
	n := make(env, len(e))
	for k, v := range e {
		n[k] = v
	}
	return n
}

func (e env) killAssigned(s cc.Stmt) {
	if s == nil || len(e) == 0 {
		return
	}
	dead := make(map[*cc.VarSym]bool)
	assignedLocals(s, dead)
	for sym := range dead {
		delete(e, sym)
	}
}

type optimizer struct {
	addrTaken map[*cc.VarSym]bool
}

// litOf returns the constant value of e if it is an integer literal.
func litOf(e cc.Expr) (int64, bool) {
	lit, ok := e.(*cc.IntLit)
	if !ok {
		return 0, false
	}
	return lit.Value, true
}

func intLit(v int64, t *cc.Type, pos cc.Pos) *cc.IntLit {
	l := &cc.IntLit{Value: v}
	l.P = pos
	l.SetType(t)
	return l
}

func (o *optimizer) expr(e cc.Expr, env env) cc.Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *cc.IntLit, *cc.StrLit:
		return e

	case *cc.VarRef:
		if v, ok := env[e.Sym]; ok {
			return intLit(v, e.Type(), e.Pos())
		}
		return e

	case *cc.Unary:
		if e.Op != "&" {
			e.X = o.expr(e.X, env)
		}
		if v, ok := litOf(e.X); ok {
			if r, ok := cc.FoldUnary(e, v); ok {
				return intLit(r, e.Type(), e.Pos())
			}
		}
		return e

	case *cc.Binary:
		return o.binary(e, env)

	case *cc.Assign:
		e.LHS = o.lvalue(e.LHS, env)
		e.RHS = o.expr(e.RHS, env)
		return e

	case *cc.IncDec:
		e.X = o.lvalue(e.X, env)
		return e

	case *cc.Call:
		e.Fn = o.expr(e.Fn, env)
		for i := range e.Args {
			e.Args[i] = o.expr(e.Args[i], env)
		}
		return e

	case *cc.Index:
		e.Base = o.expr(e.Base, env)
		e.Idx = o.expr(e.Idx, env)
		return e

	case *cc.Cast:
		e.X = o.expr(e.X, env)
		if v, ok := litOf(e.X); ok && e.Type().IsInteger() {
			return intLit(cc.Truncate(v, e.Type()), e.Type(), e.Pos())
		}
		return e

	case *cc.Cond:
		e.C = o.expr(e.C, env)
		if v, ok := litOf(e.C); ok {
			if v != 0 {
				return o.expr(e.T, env)
			}
			return o.expr(e.F, env)
		}
		e.T = o.expr(e.T, env)
		e.F = o.expr(e.F, env)
		return e

	case *cc.Builtin:
		for i := range e.Args {
			e.Args[i] = o.expr(e.Args[i], env)
		}
		return e
	}
	return e
}

// lvalue folds the computed parts of an lvalue (pointer operands,
// indices) but keeps the location itself a location.
func (o *optimizer) lvalue(e cc.Expr, env env) cc.Expr {
	switch e := e.(type) {
	case *cc.VarRef:
		return e
	case *cc.Unary: // *p
		e.X = o.expr(e.X, env)
		return e
	case *cc.Index:
		e.Base = o.expr(e.Base, env)
		e.Idx = o.expr(e.Idx, env)
		return e
	}
	return e
}

func (o *optimizer) binary(e *cc.Binary, env env) cc.Expr {
	e.X = o.expr(e.X, env)

	// Short-circuit operators: the left side decides whether the right
	// side runs at all.
	if e.Op == "&&" || e.Op == "||" {
		if v, ok := litOf(e.X); ok {
			taken := (e.Op == "&&" && v != 0) || (e.Op == "||" && v == 0)
			if !taken {
				// Result is fully decided: 0 for a false &&, 1 for a
				// true ||; the right side never runs.
				r := int64(0)
				if e.Op == "||" {
					r = 1
				}
				return intLit(r, e.Type(), e.Pos())
			}
			// Result is !!Y.
			y := o.expr(e.Y, env)
			if vy, ok := litOf(y); ok {
				r := int64(0)
				if vy != 0 {
					r = 1
				}
				return intLit(r, e.Type(), e.Pos())
			}
			ne := &cc.Binary{Op: "!=", X: y, Y: intLit(0, cc.TypeInt, e.Pos())}
			ne.P = e.Pos()
			ne.SetType(cc.TypeInt)
			return ne
		}
		e.Y = o.expr(e.Y, env)
		if v, ok := litOf(e.Y); ok && !HasSideEffects(e.X) {
			// X && 0 -> 0, X || 1 -> 1 when X is pure.
			if e.Op == "&&" && v == 0 {
				return intLit(0, e.Type(), e.Pos())
			}
			if e.Op == "||" && v != 0 {
				return intLit(1, e.Type(), e.Pos())
			}
		}
		return e
	}

	e.Y = o.expr(e.Y, env)
	xv, xok := litOf(e.X)
	yv, yok := litOf(e.Y)
	if xok && yok {
		if r, ok := cc.FoldBinary(e, xv, yv); ok {
			return intLit(r, e.Type(), e.Pos())
		}
	}
	return e
}

// terminates reports whether the statement never falls through.
func terminates(s cc.Stmt) bool {
	switch s := s.(type) {
	case *cc.Return, *cc.Break, *cc.Continue:
		return true
	case *cc.Block:
		n := len(s.Stmts)
		return n > 0 && terminates(s.Stmts[n-1])
	case *cc.If:
		return s.Else != nil && terminates(s.Then) && terminates(s.Else)
	}
	return false
}

// stmt optimizes one statement under the incoming constant environment
// and returns the replacement (nil when the statement disappears).
// The environment is updated in place to reflect the statement's
// effects.
func (o *optimizer) stmt(s cc.Stmt, env env) cc.Stmt {
	switch s := s.(type) {
	case nil:
		return nil

	case *cc.Block:
		var out []cc.Stmt
		for _, st := range s.Stmts {
			n := o.stmt(st, env)
			if n == nil {
				continue
			}
			if blk, ok := n.(*cc.Block); ok && len(blk.Stmts) == 0 {
				continue
			}
			out = append(out, n)
			if terminates(n) {
				break // everything after is unreachable
			}
		}
		s.Stmts = out
		if len(out) == 0 {
			return nil
		}
		return s

	case *cc.DeclStmt:
		s.Init = o.expr(s.Init, env)
		if v, ok := litOf(s.Init); ok && !o.addrTaken[s.Sym] {
			env[s.Sym] = cc.Truncate(v, s.Sym.Type)
		} else {
			delete(env, s.Sym)
		}
		return s

	case *cc.ExprStmt:
		s.X = o.expr(s.X, env)
		env.killAssigned(s)
		// Track simple constant stores to locals.
		if a, ok := s.X.(*cc.Assign); ok && a.Op == "=" {
			if sym := localSym(a.LHS); sym != nil && !o.addrTaken[sym] {
				if v, ok := litOf(a.RHS); ok {
					env[sym] = cc.Truncate(v, sym.Type)
				}
			}
		}
		if !HasSideEffects(s.X) {
			return nil
		}
		return s

	case *cc.If:
		s.Cond = o.expr(s.Cond, env)
		if v, ok := litOf(s.Cond); ok {
			if v != 0 {
				return o.stmt(s.Then, env)
			}
			if s.Else != nil {
				return o.stmt(s.Else, env)
			}
			return nil
		}
		thenEnv, elseEnv := env.clone(), env.clone()
		s.Then = o.stmt(s.Then, thenEnv)
		if s.Else != nil {
			s.Else = o.stmt(s.Else, elseEnv)
		}
		env.killAssigned(s)
		if s.Then == nil && s.Else == nil {
			if HasSideEffects(s.Cond) {
				es := &cc.ExprStmt{X: s.Cond}
				return es
			}
			return nil
		}
		if s.Then == nil {
			// if (c) {} else B  ->  if (!c) B
			not := &cc.Unary{Op: "!", X: s.Cond}
			not.SetType(cc.TypeInt)
			s.Cond = not
			s.Then = s.Else
			s.Else = nil
		}
		return s

	case *cc.While:
		env.killAssigned(s)
		s.Cond = o.expr(s.Cond, env)
		if v, ok := litOf(s.Cond); ok && v == 0 {
			return nil
		}
		s.Body = o.stmt(s.Body, env.clone())
		if s.Body == nil {
			s.Body = &cc.Block{}
		}
		return s

	case *cc.DoWhile:
		env.killAssigned(s)
		s.Body = o.stmt(s.Body, env.clone())
		s.Cond = o.expr(s.Cond, env.clone())
		if s.Body == nil {
			s.Body = &cc.Block{}
		}
		if v, ok := litOf(s.Cond); ok && v == 0 && !containsLoopCtl(s.Body) {
			// do B while(0) runs B exactly once.
			return s.Body
		}
		return s

	case *cc.For:
		s.Init = o.stmt(s.Init, env)
		env.killAssigned(s.Body)
		if s.Post != nil {
			post := &cc.ExprStmt{X: s.Post}
			env.killAssigned(post)
		}
		s.Cond = o.expr(s.Cond, env.clone())
		if v, ok := litOf(s.Cond); ok && v == 0 {
			return s.Init
		}
		bodyEnv := env.clone()
		s.Body = o.stmt(s.Body, bodyEnv)
		if s.Body == nil {
			s.Body = &cc.Block{}
		}
		s.Post = o.expr(s.Post, env.clone())
		env.killAssigned(s)
		return s

	case *cc.Switch:
		return o.switchStmt(s, env)

	case *cc.Return:
		s.X = o.expr(s.X, env)
		return s

	case *cc.Empty:
		return nil

	case *cc.Break, *cc.Continue:
		return s
	}
	return s
}

// switchStmt optimizes a switch; a constant scrutinee selects the
// matching case chain statically (the fallthrough suffix wrapped in a
// do-while(0) so break still exits), mirroring how GCC folds constant
// switches during specialization.
func (o *optimizer) switchStmt(s *cc.Switch, env env) cc.Stmt {
	s.Cond = o.expr(s.Cond, env)
	env.killAssigned(s)
	if v, ok := litOf(s.Cond); ok {
		idx := -1
		for i, cs := range s.Cases {
			if !cs.IsDefault && cs.Val == v {
				idx = i
				break
			}
		}
		if idx < 0 {
			for i, cs := range s.Cases {
				if cs.IsDefault {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			return nil // no case matches, no default: the switch vanishes
		}
		// Collect the fallthrough suffix starting at the match.
		body := &cc.Block{}
		for _, cs := range s.Cases[idx:] {
			body.Stmts = append(body.Stmts, cs.Stmts...)
		}
		if containsContinue(body) {
			// A continue would be captured by the do-while wrapper;
			// keep the switch intact (codegen handles it correctly).
			for _, cs := range s.Cases {
				o.optimizeCaseStmts(cs, env)
			}
			return s
		}
		wrapped := &cc.DoWhile{Body: body, Cond: intLit(0, cc.TypeInt, s.Pos())}
		return o.stmt(wrapped, env)
	}
	for _, cs := range s.Cases {
		o.optimizeCaseStmts(cs, env)
	}
	return s
}

func (o *optimizer) optimizeCaseStmts(cs *cc.SwitchCase, env env) {
	var out []cc.Stmt
	for _, st := range cs.Stmts {
		if n := o.stmt(st, env.clone()); n != nil {
			out = append(out, n)
		}
	}
	cs.Stmts = out
}

// containsLoopCtl reports whether s contains a break/continue that
// binds to the enclosing loop (not to a nested one).
func containsLoopCtl(s cc.Stmt) bool {
	found := false
	cc.Inspect(s, func(n cc.Node) bool {
		switch n := n.(type) {
		case *cc.Break, *cc.Continue:
			found = true
		case *cc.Switch:
			// break inside binds to the switch; only continue escapes.
			found = found || containsContinue(n)
			return false
		case *cc.While, *cc.DoWhile, *cc.For:
			return false // loops rebind break and continue
		}
		return !found
	})
	return found
}

// containsContinue reports whether s contains a continue that binds to
// the enclosing loop (nested loops rebind it; switches do not).
func containsContinue(s cc.Stmt) bool {
	found := false
	cc.Inspect(s, func(n cc.Node) bool {
		switch n.(type) {
		case *cc.Continue:
			found = true
		case *cc.While, *cc.DoWhile, *cc.For:
			return false
		}
		return !found
	})
	return found
}

// removeDeadLocals drops locals that are never read and whose address
// is never taken, turning their initializers and assignments into bare
// side-effect evaluation.
func removeDeadLocals(f *cc.FuncDecl) {
	reads := localReads(f)
	addr := addrTakenLocals(f)
	dead := func(sym *cc.VarSym) bool {
		return sym != nil && sym.Storage == cc.StorageLocal &&
			reads[sym] == 0 && !addr[sym]
	}
	var fix func(s cc.Stmt) cc.Stmt
	fixBlock := func(b *cc.Block) {
		var out []cc.Stmt
		for _, st := range b.Stmts {
			if n := fix(st); n != nil {
				out = append(out, n)
			}
		}
		b.Stmts = out
	}
	fix = func(s cc.Stmt) cc.Stmt {
		switch s := s.(type) {
		case nil:
			return nil
		case *cc.Block:
			fixBlock(s)
			if len(s.Stmts) == 0 {
				return nil
			}
			return s
		case *cc.DeclStmt:
			if dead(s.Sym) {
				if s.Init != nil && HasSideEffects(s.Init) {
					return &cc.ExprStmt{X: s.Init}
				}
				return nil
			}
			return s
		case *cc.ExprStmt:
			if a, ok := s.X.(*cc.Assign); ok && a.Op == "=" {
				if vr, ok := a.LHS.(*cc.VarRef); ok && dead(vr.Sym) {
					if HasSideEffects(a.RHS) {
						return &cc.ExprStmt{X: a.RHS}
					}
					return nil
				}
			}
			if id, ok := s.X.(*cc.IncDec); ok {
				if vr, ok := id.X.(*cc.VarRef); ok && dead(vr.Sym) {
					return nil
				}
			}
			return s
		case *cc.If:
			s.Then = fix(s.Then)
			s.Else = fix(s.Else)
			if s.Then == nil && s.Else == nil {
				if HasSideEffects(s.Cond) {
					return &cc.ExprStmt{X: s.Cond}
				}
				return nil
			}
			if s.Then == nil {
				not := &cc.Unary{Op: "!", X: s.Cond}
				not.SetType(cc.TypeInt)
				s.Cond = not
				s.Then = s.Else
				s.Else = nil
			}
			return s
		case *cc.While:
			s.Body = ensureStmt(fix(s.Body))
			return s
		case *cc.DoWhile:
			s.Body = ensureStmt(fix(s.Body))
			return s
		case *cc.For:
			s.Init = fix(s.Init)
			s.Body = ensureStmt(fix(s.Body))
			return s
		case *cc.Switch:
			for _, cs := range s.Cases {
				var out []cc.Stmt
				for _, st := range cs.Stmts {
					if n := fix(st); n != nil {
						out = append(out, n)
					}
				}
				cs.Stmts = out
			}
			return s
		}
		return s
	}
	if f.Body != nil {
		fixBlock(f.Body)
	}
}

func ensureStmt(s cc.Stmt) cc.Stmt {
	if s == nil {
		return &cc.Block{}
	}
	return s
}
