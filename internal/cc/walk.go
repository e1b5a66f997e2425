package cc

// Inspect traverses the tree rooted at n depth first: it calls f(n)
// and, if f returns true, inspects each non-nil child of n in turn. A
// FuncDecl's child is its body. Children come in source order: a For
// visits Init, Cond, Post, Body and a DoWhile Body, Cond.
//
// Inspect is the compiler's one read-only traversal. The passes that
// rewrite or print the tree (sema's checker, the printers, the
// cloner, Substitute, Optimize and codegen's lowering) keep their own
// switches.
func Inspect(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	switch n := n.(type) {
	case *FuncDecl:
		if n.Body != nil {
			Inspect(n.Body, f)
		}
	case *Block:
		for _, s := range n.Stmts {
			Inspect(s, f)
		}
	case *DeclStmt:
		Inspect(n.Init, f)
	case *ExprStmt:
		Inspect(n.X, f)
	case *If:
		Inspect(n.Cond, f)
		Inspect(n.Then, f)
		Inspect(n.Else, f)
	case *While:
		Inspect(n.Cond, f)
		Inspect(n.Body, f)
	case *DoWhile:
		Inspect(n.Body, f)
		Inspect(n.Cond, f)
	case *For:
		Inspect(n.Init, f)
		Inspect(n.Cond, f)
		Inspect(n.Post, f)
		Inspect(n.Body, f)
	case *Switch:
		Inspect(n.Cond, f)
		for _, cs := range n.Cases {
			for _, s := range cs.Stmts {
				Inspect(s, f)
			}
		}
	case *Return:
		Inspect(n.X, f)
	case *Unary:
		Inspect(n.X, f)
	case *Binary:
		Inspect(n.X, f)
		Inspect(n.Y, f)
	case *Assign:
		Inspect(n.LHS, f)
		Inspect(n.RHS, f)
	case *IncDec:
		Inspect(n.X, f)
	case *Call:
		Inspect(n.Fn, f)
		for _, a := range n.Args {
			Inspect(a, f)
		}
	case *Index:
		Inspect(n.Base, f)
		Inspect(n.Idx, f)
	case *Cast:
		Inspect(n.X, f)
	case *Cond:
		Inspect(n.C, f)
		Inspect(n.T, f)
		Inspect(n.F, f)
	case *Builtin:
		for _, a := range n.Args {
			Inspect(a, f)
		}
	}
}
