package mvir

import "repro/internal/cc"

// AssignOSRLabels stamps every loop and call in f's body with a
// variant-invariant logical label (1..N for loops, 1..M for calls),
// numbering each kind in cc.Inspect order. It must run on the
// pristine declaration *before* variant cloning: CloneFunc copies the
// label fields, so every clone — and the generic — carries the same
// id for the same source construct. The optimizer only deletes or
// folds nodes (it never merges or duplicates loops/calls), so a label
// surviving into two variants always names the same source point;
// labels elided from a variant simply have no mapped OSR point there.
func AssignOSRLabels(f *cc.FuncDecl) {
	loops, calls := 0, 0
	cc.Inspect(f, func(n cc.Node) bool {
		switch n := n.(type) {
		case *cc.While:
			loops++
			n.OSR = loops
		case *cc.DoWhile:
			loops++
			n.OSR = loops
		case *cc.For:
			loops++
			n.OSR = loops
		case *cc.Call:
			calls++
			n.OSR = calls
		}
		return true
	})
}
