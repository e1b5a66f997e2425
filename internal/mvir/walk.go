package mvir

import "repro/internal/cc"

// HasSideEffects reports whether evaluating e can change program state
// (assignments, calls, builtins, loads are considered pure; loads of
// volatile state do not exist in MVC).
func HasSideEffects(e cc.Expr) bool {
	found := false
	cc.Inspect(e, func(n cc.Node) bool {
		switch n.(type) {
		case *cc.Assign, *cc.IncDec, *cc.Call, *cc.Builtin:
			found = true
		}
		return !found
	})
	return found
}

// localSym returns the local or parameter symbol e names, or nil.
func localSym(e cc.Expr) *cc.VarSym {
	if vr, ok := e.(*cc.VarRef); ok && vr.Sym != nil &&
		(vr.Sym.Storage == cc.StorageLocal || vr.Sym.Storage == cc.StorageParam) {
		return vr.Sym
	}
	return nil
}

// assignedLocals collects the local/param symbols assigned (or
// inc/dec'ed) anywhere inside the statement.
func assignedLocals(s cc.Stmt, out map[*cc.VarSym]bool) {
	cc.Inspect(s, func(n cc.Node) bool {
		var sym *cc.VarSym
		switch n := n.(type) {
		case *cc.Assign:
			sym = localSym(n.LHS)
		case *cc.IncDec:
			sym = localSym(n.X)
		}
		if sym != nil {
			out[sym] = true
		}
		return true
	})
}

// addrTakenLocals collects local/param symbols whose address is taken
// in f. Their values can change through pointers, so constant
// propagation must never track them.
func addrTakenLocals(f *cc.FuncDecl) map[*cc.VarSym]bool {
	out := make(map[*cc.VarSym]bool)
	cc.Inspect(f, func(n cc.Node) bool {
		if u, ok := n.(*cc.Unary); ok && u.Op == "&" {
			if sym := localSym(u.X); sym != nil {
				out[sym] = true
			}
		}
		return true
	})
	return out
}

// localReads counts reads of each local/param symbol in f (writes via
// Assign LHS / IncDec do not count as reads, but compound assignments
// do).
func localReads(f *cc.FuncDecl) map[*cc.VarSym]int {
	counts := make(map[*cc.VarSym]int)
	var store cc.Expr // the variable a plain store or inc/dec writes
	cc.Inspect(f, func(n cc.Node) bool {
		switch n := n.(type) {
		case *cc.Assign:
			store = nil
			if n.Op == "=" {
				store = n.LHS
			}
		case *cc.IncDec:
			store = n.X
		case *cc.VarRef:
			// A store target is the first child of its Assign or
			// IncDec, so it is the next node after it.
			if sym := localSym(n); sym != nil && n != store {
				counts[sym]++
			}
		}
		return true
	})
	return counts
}
