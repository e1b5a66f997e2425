// Package difftest cross-checks the whole pipeline (parser, checker,
// optimizer, code generator, linker, CPU) against independent oracles:
//
//   - random expression trees are compiled to MVC and evaluated on the
//     simulated machine, then compared against a Go-side evaluator
//     implementing the same semantics;
//   - the multiverse soundness property of §7.4: for every switch
//     assignment, committed execution computes the same results as
//     dynamic execution;
//   - optimizer soundness: compiling with and without the optimization
//     passes yields behaviorally identical programs.
package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
)

// ---- random expression generation ----

// expr is a tiny AST mirrored in both MVC source and Go evaluation.
type expr interface {
	src() string
	eval(env map[string]int64) int64
}

type lit struct{ v int64 }

func (l lit) src() string                 { return fmt.Sprintf("%d", l.v) }
func (l lit) eval(map[string]int64) int64 { return l.v }

type ref struct{ name string }

func (r ref) src() string                     { return r.name }
func (r ref) eval(env map[string]int64) int64 { return env[r.name] }

type unary struct {
	op string
	x  expr
}

func (u unary) src() string { return "(" + u.op + " " + u.x.src() + ")" }
func (u unary) eval(env map[string]int64) int64 {
	v := u.x.eval(env)
	switch u.op {
	case "-":
		return -v
	case "~":
		return ^v
	case "!":
		if v == 0 {
			return 1
		}
		return 0
	}
	panic(u.op)
}

type binary struct {
	op   string
	x, y expr
}

func (b binary) src() string { return "(" + b.x.src() + " " + b.op + " " + b.y.src() + ")" }
func (b binary) eval(env map[string]int64) int64 {
	x := b.x.eval(env)
	y := b.y.eval(env)
	boolToInt := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	switch b.op {
	case "+":
		return x + y
	case "-":
		return x - y
	case "*":
		return x * y
	case "&":
		return x & y
	case "|":
		return x | y
	case "^":
		return x ^ y
	case "==":
		return boolToInt(x == y)
	case "!=":
		return boolToInt(x != y)
	case "<":
		return boolToInt(x < y)
	case "<=":
		return boolToInt(x <= y)
	case ">":
		return boolToInt(x > y)
	case ">=":
		return boolToInt(x >= y)
	case "&&":
		return boolToInt(x != 0 && y != 0)
	case "||":
		return boolToInt(x != 0 || y != 0)
	}
	panic(b.op)
}

type shift struct {
	op string
	x  expr
	k  int64 // constant shift amount 0..63
}

func (s shift) src() string { return fmt.Sprintf("(%s %s %d)", s.x.src(), s.op, s.k) }
func (s shift) eval(env map[string]int64) int64 {
	x := s.x.eval(env)
	if s.op == "<<" {
		return x << uint(s.k)
	}
	return x >> uint(s.k) // long >> is arithmetic
}

type ternary struct{ c, t, f expr }

func (t ternary) src() string {
	return "(" + t.c.src() + " ? " + t.t.src() + " : " + t.f.src() + ")"
}
func (t ternary) eval(env map[string]int64) int64 {
	if t.c.eval(env) != 0 {
		return t.t.eval(env)
	}
	return t.f.eval(env)
}

// safeDiv guards division by zero like C code would: y == 0 ? x : x/y.
type safeDiv struct {
	op   string // "/" or "%"
	x, y expr
}

func (d safeDiv) src() string {
	return fmt.Sprintf("((%s) == 0 ? (%s) : (%s) %s (%s))",
		d.y.src(), d.x.src(), d.x.src(), d.op, d.y.src())
}
func (d safeDiv) eval(env map[string]int64) int64 {
	y := d.y.eval(env)
	x := d.x.eval(env)
	if y == 0 {
		return x
	}
	// Mirror the simulator: INT64_MIN / -1 overflows on the host too,
	// so the generator never produces INT64_MIN literals and variables
	// are bounded; division stays in range.
	if d.op == "/" {
		return x / y
	}
	return x % y
}

var varNames = []string{"a", "b", "c"}

func genExpr(rng *rand.Rand, depth int) expr {
	if depth <= 0 {
		if rng.Intn(2) == 0 {
			return lit{rng.Int63n(2000) - 1000}
		}
		return ref{varNames[rng.Intn(len(varNames))]}
	}
	switch rng.Intn(10) {
	case 0:
		return unary{[]string{"-", "~", "!"}[rng.Intn(3)], genExpr(rng, depth-1)}
	case 1:
		return shift{[]string{"<<", ">>"}[rng.Intn(2)], genExpr(rng, depth-1), rng.Int63n(8)}
	case 2:
		return ternary{genExpr(rng, depth-1), genExpr(rng, depth-1), genExpr(rng, depth-1)}
	case 3:
		return safeDiv{[]string{"/", "%"}[rng.Intn(2)], genExpr(rng, depth-1), genExpr(rng, depth-1)}
	default:
		ops := []string{"+", "-", "*", "&", "|", "^", "==", "!=", "<", "<=", ">", ">=", "&&", "||"}
		return binary{ops[rng.Intn(len(ops))], genExpr(rng, depth-1), genExpr(rng, depth-1)}
	}
}

func TestRandomExpressionsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const perProgram = 8
	for round := 0; round < 12; round++ {
		// Batch several expressions into one program to amortize the
		// compile cost.
		exprs := make([]expr, perProgram)
		var sb strings.Builder
		for i := range exprs {
			exprs[i] = genExpr(rng, 3+rng.Intn(3))
			fmt.Fprintf(&sb, "long f%d(long a, long b, long c) { return %s; }\n", i, exprs[i].src())
		}
		sys, err := core.BuildSystem(core.GenOptions{}, nil,
			core.Source{Name: "rand", Text: sb.String()})
		if err != nil {
			t.Fatalf("round %d: %v\nsource:\n%s", round, err, sb.String())
		}
		for trial := 0; trial < 4; trial++ {
			env := map[string]int64{
				"a": rng.Int63n(100000) - 50000,
				"b": rng.Int63n(100000) - 50000,
				"c": rng.Int63n(7) - 3, // small values exercise !=0 paths
			}
			for i, e := range exprs {
				want := e.eval(env)
				got, err := sys.Machine.CallNamed(fmt.Sprintf("f%d", i),
					uint64(env["a"]), uint64(env["b"]), uint64(env["c"]))
				if err != nil {
					t.Fatalf("round %d f%d: %v\nexpr: %s", round, i, err, e.src())
				}
				if int64(got) != want {
					t.Fatalf("round %d f%d(%d,%d,%d) = %d, want %d\nexpr: %s",
						round, i, env["a"], env["b"], env["c"], int64(got), want, e.src())
				}
			}
		}
	}
}

// ---- multiverse soundness (§7.4) ----

// genSwitchBody builds a random statement tree over two switches and
// an accumulator, mirrored by a Go closure.
func genSwitchBody(rng *rand.Rand, depth int) (string, func(s1, s2, acc int64) int64) {
	if depth <= 0 || rng.Intn(3) == 0 {
		k := rng.Int63n(100) + 1
		switch rng.Intn(3) {
		case 0:
			return fmt.Sprintf("acc += %d;", k), func(_, _, acc int64) int64 { return acc + k }
		case 1:
			return fmt.Sprintf("acc ^= %d;", k), func(_, _, acc int64) int64 { return acc ^ k }
		default:
			return fmt.Sprintf("acc = acc * 3 + %d;", k), func(_, _, acc int64) int64 { return acc*3 + k }
		}
	}
	sw := rng.Intn(2)
	swName := []string{"s1", "s2"}[sw]
	if rng.Intn(4) == 0 {
		// A C switch over the configuration variable, one arm per
		// domain value plus default (break-terminated, no fallthrough
		// so the Go mirror stays simple).
		arms := make([]func(s1, s2, acc int64) int64, 3)
		var sb strings.Builder
		fmt.Fprintf(&sb, "switch (%s) { ", swName)
		for v := 0; v < 2; v++ {
			armSrc, armGo := genSwitchBody(rng, depth-1)
			arms[v] = armGo
			fmt.Fprintf(&sb, "case %d: %s break; ", v, armSrc)
		}
		defSrc, defGo := genSwitchBody(rng, depth-1)
		arms[2] = defGo
		fmt.Fprintf(&sb, "default: %s }", defSrc)
		return sb.String(), func(s1, s2, acc int64) int64 {
			v := []int64{s1, s2}[sw]
			if v == 0 || v == 1 {
				return arms[v](s1, s2, acc)
			}
			return arms[2](s1, s2, acc)
		}
	}
	cmpVal := rng.Int63n(3)
	op := []string{"==", "!=", ">"}[rng.Intn(3)]
	thenSrc, thenGo := genSwitchBody(rng, depth-1)
	elseSrc, elseGo := genSwitchBody(rng, depth-1)
	src := fmt.Sprintf("if (%s %s %d) { %s } else { %s }", swName, op, cmpVal, thenSrc, elseSrc)
	return src, func(s1, s2, acc int64) int64 {
		v := []int64{s1, s2}[sw]
		var taken bool
		switch op {
		case "==":
			taken = v == cmpVal
		case "!=":
			taken = v != cmpVal
		case ">":
			taken = v > cmpVal
		}
		if taken {
			return thenGo(s1, s2, acc)
		}
		return elseGo(s1, s2, acc)
	}
}

func TestCommittedEqualsDynamicProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 8; round++ {
		bodySrc, bodyGo := genSwitchBody(rng, 3)
		src := fmt.Sprintf(`
			multiverse(0, 1, 2) int s1;
			multiverse(0, 1, 2) int s2;
			long acc;
			multiverse void step(void) { %s }
			void run(void) { step(); }
			long get(void) { return acc; }
			void reset(void) { acc = 0; }
		`, strings.ReplaceAll(bodySrc, "acc", "acc"))
		sys, err := core.BuildSystem(core.GenOptions{}, nil,
			core.Source{Name: "prop", Text: src})
		if err != nil {
			t.Fatalf("round %d: %v\n%s", round, err, src)
		}
		for s1 := int64(0); s1 <= 2; s1++ {
			for s2 := int64(0); s2 <= 2; s2++ {
				want := bodyGo(s1, s2, 0)
				for _, committed := range []bool{false, true} {
					if err := sys.SetSwitch("s1", s1); err != nil {
						t.Fatal(err)
					}
					if err := sys.SetSwitch("s2", s2); err != nil {
						t.Fatal(err)
					}
					if committed {
						if _, err := sys.RT.Commit(); err != nil {
							t.Fatal(err)
						}
					} else if err := sys.RT.Revert(); err != nil {
						t.Fatal(err)
					}
					if _, err := sys.Machine.CallNamed("reset"); err != nil {
						t.Fatal(err)
					}
					if _, err := sys.Machine.CallNamed("run"); err != nil {
						t.Fatal(err)
					}
					got, err := sys.Machine.CallNamed("get")
					if err != nil {
						t.Fatal(err)
					}
					if int64(got) != want {
						t.Fatalf("round %d s1=%d s2=%d committed=%v: got %d, want %d\nbody: %s",
							round, s1, s2, committed, int64(got), want, bodySrc)
					}
				}
			}
		}
	}
}

// ---- optimizer soundness ----

func TestOptimizerPreservesBehavior(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 6; round++ {
		bodySrc, _ := genSwitchBody(rng, 4)
		src := fmt.Sprintf(`
			multiverse int s1;
			multiverse int s2;
			long acc;
			multiverse void step(void) { %s }
			void run(void) { step(); }
			long get(void) { return acc; }
			void reset(void) { acc = 0; }
		`, bodySrc)
		build := func(disable bool) *core.System {
			sys, err := core.BuildSystem(core.GenOptions{DisableOptimizer: disable}, nil,
				core.Source{Name: "opt", Text: src})
			if err != nil {
				t.Fatalf("round %d (disable=%v): %v", round, disable, err)
			}
			return sys
		}
		optimized := build(false)
		plain := build(true)
		for s1 := int64(0); s1 <= 1; s1++ {
			for s2 := int64(0); s2 <= 1; s2++ {
				results := make([]int64, 2)
				for i, sys := range []*core.System{optimized, plain} {
					if err := sys.SetSwitch("s1", s1); err != nil {
						t.Fatal(err)
					}
					if err := sys.SetSwitch("s2", s2); err != nil {
						t.Fatal(err)
					}
					if _, err := sys.RT.Commit(); err != nil {
						t.Fatal(err)
					}
					if _, err := sys.Machine.CallNamed("reset"); err != nil {
						t.Fatal(err)
					}
					if _, err := sys.Machine.CallNamed("run"); err != nil {
						t.Fatal(err)
					}
					got, err := sys.Machine.CallNamed("get")
					if err != nil {
						t.Fatal(err)
					}
					results[i] = int64(got)
				}
				if results[0] != results[1] {
					t.Fatalf("round %d s1=%d s2=%d: optimized %d != unoptimized %d\nbody: %s",
						round, s1, s2, results[0], results[1], bodySrc)
				}
			}
		}
	}
}

// ---- unsigned differential check ----

func TestUnsignedExpressionsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	cases := []struct {
		src  string
		eval func(a, b uint64) uint64
	}{
		{"a / (b | 1)", func(a, b uint64) uint64 { return a / (b | 1) }},
		{"a % (b | 1)", func(a, b uint64) uint64 { return a % (b | 1) }},
		{"a >> 7", func(a, b uint64) uint64 { return a >> 7 }},
		{"(a > b)", func(a, b uint64) uint64 { return b2u(a > b) }},
		{"(a <= b)", func(a, b uint64) uint64 { return b2u(a <= b) }},
		{"a * b + (a ^ b)", func(a, b uint64) uint64 { return a*b + (a ^ b) }},
		// Constant operands fold in their own types: int arithmetic
		// wraps at 32 bits, a cast narrows, a comparison is an int.
		{"2147483647 + 1", func(a, b uint64) uint64 {
			n := int32(math.MaxInt32)
			return uint64(int64(n + 1))
		}},
		{"(uchar)300", func(a, b uint64) uint64 {
			n := 300
			return uint64(uint8(n))
		}},
		{"(1 < 2)", func(a, b uint64) uint64 { return 1 }},
	}
	// Each case is also compiled with literal operands, three times
	// over: as a function's return value, as a global's initializer and
	// as a case label. All three must match the host's result.
	operand := regexp.MustCompile(`\b[ab]\b`)
	type literal struct {
		a, b uint64
		src  string
	}
	lits := make([][]literal, len(cases))
	lrng := rand.New(rand.NewSource(4321))
	var sb strings.Builder
	for i, c := range cases {
		fmt.Fprintf(&sb, "ulong g%d(ulong a, ulong b) { return %s; }\n", i, c.src)
		forms := 1
		if operand.MatchString(c.src) {
			forms = 4
		}
		for j := 0; j < forms; j++ {
			a, b := lrng.Uint64(), lrng.Uint64()
			src := operand.ReplaceAllStringFunc(c.src, func(v string) string {
				if v == "a" {
					return fmt.Sprintf("((ulong)%#x)", a)
				}
				return fmt.Sprintf("((ulong)%#x)", b)
			})
			lits[i] = append(lits[i], literal{a, b, src})
			fmt.Fprintf(&sb, "ulong f%d_%d(void) { return %s; }\n", i, j, src)
			fmt.Fprintf(&sb, "ulong c%d_%d = %s;\n", i, j, src)
			fmt.Fprintf(&sb, "int k%d_%d(ulong x) { switch (x) { case %s: return 1; } return 0; }\n", i, j, src)
		}
	}
	sys, err := core.BuildSystem(core.GenOptions{}, nil,
		core.Source{Name: "unsigned", Text: sb.String()})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		for j, l := range lits[i] {
			want := c.eval(l.a, l.b)
			if got, err := sys.Machine.CallNamed(fmt.Sprintf("f%d_%d", i, j)); err != nil || got != want {
				t.Errorf("return %s = %#x (%v), want %#x", l.src, got, err, want)
			}
			if got, err := sys.Machine.ReadGlobal(fmt.Sprintf("c%d_%d", i, j), 8); err != nil || got != want {
				t.Errorf("initializer %s = %#x (%v), want %#x", l.src, got, err, want)
			}
			if got, err := sys.Machine.CallNamed(fmt.Sprintf("k%d_%d", i, j), want); err != nil || got != 1 {
				t.Errorf("case %s: does not match %#x (%v)", l.src, want, err)
			}
		}
	}
	for trial := 0; trial < 50; trial++ {
		a, b := rng.Uint64(), rng.Uint64()
		for i, c := range cases {
			got, err := sys.Machine.CallNamed(fmt.Sprintf("g%d", i), a, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := c.eval(a, b); got != want {
				t.Fatalf("g%d(%#x, %#x) = %#x, want %#x (%s)", i, a, b, got, want, c.src)
			}
		}
	}
}

// ---- pretty-printer round trip on random programs ----

func TestPrintedProgramsBehaveIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const perProgram = 6
	for round := 0; round < 6; round++ {
		exprs := make([]expr, perProgram)
		var sb strings.Builder
		for i := range exprs {
			exprs[i] = genExpr(rng, 3)
			fmt.Fprintf(&sb, "long f%d(long a, long b, long c) { return %s; }\n", i, exprs[i].src())
		}
		src := sb.String()
		u, err := cc.Parse("orig.mvc", src)
		if err != nil {
			t.Fatal(err)
		}
		if err := cc.Check(u); err != nil {
			t.Fatal(err)
		}
		// Re-render every function and build the printed program.
		var printed strings.Builder
		for i := 0; i < perProgram; i++ {
			printed.WriteString(cc.FormatFunc(u.Globals[fmt.Sprintf("f%d", i)].Func))
			printed.WriteString("\n")
		}
		sysA, err := core.BuildSystem(core.GenOptions{}, nil,
			core.Source{Name: "orig", Text: src})
		if err != nil {
			t.Fatal(err)
		}
		sysB, err := core.BuildSystem(core.GenOptions{}, nil,
			core.Source{Name: "printed", Text: printed.String()})
		if err != nil {
			t.Fatalf("printed program does not compile: %v\n%s", err, printed.String())
		}
		for trial := 0; trial < 3; trial++ {
			a := uint64(rng.Int63n(100000))
			b := uint64(rng.Int63n(100000))
			c := uint64(rng.Int63n(7))
			for i := 0; i < perProgram; i++ {
				name := fmt.Sprintf("f%d", i)
				ra, err := sysA.Machine.CallNamed(name, a, b, c)
				if err != nil {
					t.Fatal(err)
				}
				rb, err := sysB.Machine.CallNamed(name, a, b, c)
				if err != nil {
					t.Fatal(err)
				}
				if ra != rb {
					t.Fatalf("round %d %s(%d,%d,%d): original %d != printed %d\nexpr: %s",
						round, name, a, b, c, int64(ra), int64(rb), exprs[i].src())
				}
			}
		}
	}
}
