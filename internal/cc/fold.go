package cc

// This file is the compiler's one constant folder. Sema evaluates
// global initializers and case labels with constValue, and the
// optimizer (package mvir) folds a node with FoldUnary, FoldBinary or
// Truncate once its operands are literals, so a constant expression
// has the same value wherever it is folded: each operation works in
// its operands' types and is narrowed to its result type. (Generated
// code narrows only at stores and casts, so an overflowing int
// operation folds to a different value than it computes at run time.)

// Truncate narrows v to the width and signedness of t, as a store of v
// into a t does.
func Truncate(v int64, t *Type) int64 {
	size := t.ByteSize()
	if size >= 8 || size == 0 {
		return v
	}
	shift := uint(64 - 8*size)
	if t.IsSigned() {
		return v << shift >> shift
	}
	if t.Kind == KindBool {
		return b2i(v != 0)
	}
	return int64(uint64(v) << shift >> shift)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// FoldUnary returns e's value when its operand has the constant value
// v. It reports false for & and *, which do not fold.
func FoldUnary(e *Unary, v int64) (int64, bool) {
	switch e.Op {
	case "-":
		return Truncate(-v, e.Ty), true
	case "~":
		return Truncate(^v, e.Ty), true
	case "!":
		return b2i(v == 0), true
	}
	return 0, false
}

// FoldBinary returns e's value when its operands have the constant
// values x and y. The operation is signed unless the common type of the
// operands is unsigned. It reports false for pointer operands (their
// arithmetic keeps its relocations), for a zero divisor (the run-time
// fault stays in place) and for && and ||, whose right operand may not
// run.
func FoldBinary(e *Binary, x, y int64) (int64, bool) {
	xt, yt := e.X.Type(), e.Y.Type()
	if !xt.IsInteger() || !yt.IsInteger() {
		return 0, false
	}
	unsigned := !Common(xt, yt).IsSigned()
	less := func(a, b int64) bool {
		if unsigned {
			return uint64(a) < uint64(b)
		}
		return a < b
	}
	var r int64
	switch e.Op {
	case "+":
		r = x + y
	case "-":
		r = x - y
	case "*":
		r = x * y
	case "/", "%":
		switch {
		case y == 0:
			return 0, false
		case unsigned && e.Op == "/":
			r = int64(uint64(x) / uint64(y))
		case unsigned:
			r = int64(uint64(x) % uint64(y))
		case e.Op == "/":
			r = x / y
		default:
			r = x % y
		}
	case "&":
		r = x & y
	case "|":
		r = x | y
	case "^":
		r = x ^ y
	case "<<":
		r = x << (uint64(y) & 63)
	case ">>":
		if unsigned {
			r = int64(uint64(x) >> (uint64(y) & 63))
		} else {
			r = x >> (uint64(y) & 63)
		}
	case "==":
		r = b2i(x == y)
	case "!=":
		r = b2i(x != y)
	case "<":
		r = b2i(less(x, y))
	case "<=":
		r = b2i(!less(y, x))
	case ">":
		r = b2i(less(y, x))
	case ">=":
		r = b2i(!less(x, y))
	default:
		return 0, false
	}
	return Truncate(r, e.Ty), true
}

// constValue returns the value of x when x is an integer constant
// expression: integer literals combined by the unary, binary and cast
// operators the folder evaluates. x must have been checked.
func constValue(x Expr) (int64, bool) {
	switch x := x.(type) {
	case *IntLit:
		return x.Value, true
	case *Unary:
		if v, ok := constValue(x.X); ok {
			return FoldUnary(x, v)
		}
	case *Binary:
		a, ok := constValue(x.X)
		if !ok {
			return 0, false
		}
		if b, ok := constValue(x.Y); ok {
			return FoldBinary(x, a, b)
		}
	case *Cast:
		if v, ok := constValue(x.X); ok && x.Ty.IsInteger() {
			return Truncate(v, x.Ty), true
		}
	}
	return 0, false
}
