package mvir

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cc"
)

func parse(t *testing.T, src string) *cc.Unit {
	t.Helper()
	u, err := cc.Parse("test.mvc", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.Check(u); err != nil {
		t.Fatal(err)
	}
	return u
}

func fn(t *testing.T, u *cc.Unit, name string) *cc.FuncDecl {
	t.Helper()
	s := u.Globals[name]
	if s == nil || s.Func == nil {
		t.Fatalf("no function %q", name)
	}
	return s.Func
}

func TestCloneIsIndependent(t *testing.T) {
	u := parse(t, `
		int g;
		int f(int a) { int x = a + g; return x; }
	`)
	orig := fn(t, u, "f")
	clone := CloneFunc(orig)
	if Fingerprint(orig) != Fingerprint(clone) {
		t.Fatal("clone fingerprint differs")
	}
	// Mutating the clone must not affect the original.
	Substitute(clone, map[*cc.VarSym]int64{u.Globals["g"]: 7})
	Optimize(clone)
	if Fingerprint(orig) == Fingerprint(clone) {
		t.Fatal("substitution leaked into the original")
	}
	// Param symbols must be fresh objects.
	if orig.Params[0] == clone.Params[0] {
		t.Error("clone shares parameter symbols")
	}
}

func TestSubstituteReplacesReads(t *testing.T) {
	u := parse(t, `
		multiverse int A;
		int f(void) { return A + A; }
	`)
	f := CloneFunc(fn(t, u, "f"))
	Substitute(f, map[*cc.VarSym]int64{u.Globals["A"]: 3})
	Optimize(f)
	fp := Fingerprint(f)
	if !strings.Contains(fp, "#6") {
		t.Errorf("A+A with A=3 did not fold to 6: %s", fp)
	}
}

func TestSubstituteDoesNotTouchAddressOf(t *testing.T) {
	u := parse(t, `
		multiverse long A;
		long* f(void) { return &A; }
	`)
	f := CloneFunc(fn(t, u, "f"))
	Substitute(f, map[*cc.VarSym]int64{u.Globals["A"]: 1})
	if !strings.Contains(Fingerprint(f), "g:A") {
		t.Error("&A was substituted away")
	}
}

func TestBranchPruning(t *testing.T) {
	u := parse(t, `
		multiverse int smp;
		void irq_disable(void);
		void acquire(void);
		void lock(void) {
			if (smp) {
				irq_disable();
				acquire();
			} else {
				irq_disable();
			}
		}
	`)
	// smp = 0: only irq_disable survives.
	f0 := CloneFunc(fn(t, u, "lock"))
	Substitute(f0, map[*cc.VarSym]int64{u.Globals["smp"]: 0})
	Optimize(f0)
	fp0 := Fingerprint(f0)
	if strings.Contains(fp0, "acquire") {
		t.Errorf("smp=0 variant still acquires: %s", fp0)
	}
	if !strings.Contains(fp0, "irq_disable") {
		t.Errorf("smp=0 variant lost irq_disable: %s", fp0)
	}
	// smp = 1: both calls survive.
	f1 := CloneFunc(fn(t, u, "lock"))
	Substitute(f1, map[*cc.VarSym]int64{u.Globals["smp"]: 1})
	Optimize(f1)
	if !strings.Contains(Fingerprint(f1), "acquire") {
		t.Error("smp=1 variant lost the acquire call")
	}
}

func TestMergeCandidatesHaveEqualFingerprints(t *testing.T) {
	// Figure 2 of the paper: A=0,B=0 and A=0,B=1 yield the same
	// (empty) body and must merge.
	u := parse(t, `
		multiverse int A;
		multiverse int B;
		void calc(void);
		void logmsg(void);
		void multi(void) {
			if (A) {
				calc();
				if (B) { logmsg(); }
			}
		}
	`)
	variant := func(a, b int64) string {
		f := CloneFunc(fn(t, u, "multi"))
		Substitute(f, map[*cc.VarSym]int64{u.Globals["A"]: a, u.Globals["B"]: b})
		Optimize(f)
		return Fingerprint(f)
	}
	if variant(0, 0) != variant(0, 1) {
		t.Errorf("A=0 variants differ:\n%s\n%s", variant(0, 0), variant(0, 1))
	}
	if variant(1, 0) == variant(1, 1) {
		t.Error("A=1 variants should differ")
	}
	if variant(0, 0) == variant(1, 0) {
		t.Error("A=0 and A=1 variants should differ")
	}
	// The A=0 variant must be empty.
	f := CloneFunc(fn(t, u, "multi"))
	Substitute(f, map[*cc.VarSym]int64{u.Globals["A"]: 0, u.Globals["B"]: 0})
	Optimize(f)
	if len(f.Body.Stmts) != 0 {
		t.Errorf("A=0 body not empty: %s", Fingerprint(f))
	}
}

func TestLocalConstantPropagation(t *testing.T) {
	u := parse(t, `
		multiverse int A;
		int f(void) {
			int x = A * 2;
			if (x > 1) { return 100; }
			return 200;
		}
	`)
	f := CloneFunc(fn(t, u, "f"))
	Substitute(f, map[*cc.VarSym]int64{u.Globals["A"]: 3})
	Optimize(f)
	fp := Fingerprint(f)
	if !strings.Contains(fp, "#100") || strings.Contains(fp, "#200") {
		t.Errorf("constant propagation through local failed: %s", fp)
	}
	if strings.Contains(fp, "if") {
		t.Errorf("branch not pruned: %s", fp)
	}
}

func TestWhileFalseRemoved(t *testing.T) {
	u := parse(t, `
		multiverse int on;
		void work(void);
		void f(void) { while (on) { work(); } }
	`)
	f := CloneFunc(fn(t, u, "f"))
	Substitute(f, map[*cc.VarSym]int64{u.Globals["on"]: 0})
	Optimize(f)
	if len(f.Body.Stmts) != 0 {
		t.Errorf("while(0) not removed: %s", Fingerprint(f))
	}
}

func TestForFalseKeepsInit(t *testing.T) {
	u := parse(t, `
		multiverse int n;
		int g;
		void f(void) { for (g = 5; n; g++) { } }
	`)
	f := CloneFunc(fn(t, u, "f"))
	Substitute(f, map[*cc.VarSym]int64{u.Globals["n"]: 0})
	Optimize(f)
	fp := Fingerprint(f)
	if !strings.Contains(fp, "g:g") || strings.Contains(fp, "for") {
		t.Errorf("for(0) should keep only the init: %s", fp)
	}
}

func TestDoWhileFalseRunsOnce(t *testing.T) {
	u := parse(t, `
		multiverse int again;
		void work(void);
		void f(void) { do { work(); } while (again); }
	`)
	f := CloneFunc(fn(t, u, "f"))
	Substitute(f, map[*cc.VarSym]int64{u.Globals["again"]: 0})
	Optimize(f)
	fp := Fingerprint(f)
	if strings.Contains(fp, "do") || !strings.Contains(fp, "work") {
		t.Errorf("do-while(0): %s", fp)
	}
}

func TestShortCircuitFolding(t *testing.T) {
	u := parse(t, `
		multiverse int A;
		int side(void);
		int f(void) { return A && side(); }
		int g(void) { return A || 1; }
	`)
	f := CloneFunc(fn(t, u, "f"))
	Substitute(f, map[*cc.VarSym]int64{u.Globals["A"]: 0})
	Optimize(f)
	fp := Fingerprint(f)
	if strings.Contains(fp, "side") {
		t.Errorf("0 && side() kept the call: %s", fp)
	}
	g := CloneFunc(fn(t, u, "g"))
	Substitute(g, map[*cc.VarSym]int64{u.Globals["A"]: 1})
	Optimize(g)
	if !strings.Contains(Fingerprint(g), "#1") {
		t.Errorf("1 || 1 not folded: %s", Fingerprint(g))
	}
}

func TestUnreachableAfterReturn(t *testing.T) {
	u := parse(t, `
		multiverse int early;
		void work(void);
		void f(void) {
			if (early) { return; }
			work();
		}
	`)
	f := CloneFunc(fn(t, u, "f"))
	Substitute(f, map[*cc.VarSym]int64{u.Globals["early"]: 1})
	Optimize(f)
	fp := Fingerprint(f)
	if strings.Contains(fp, "work") {
		t.Errorf("unreachable call survived: %s", fp)
	}
}

func TestDeadStoreElimination(t *testing.T) {
	u := parse(t, `
		multiverse int on;
		int pure(int a, int b) { return a + b; }
		void f(void) {
			int unused = 1 + 2;
			if (on) { unused = 7; }
		}
	`)
	f := CloneFunc(fn(t, u, "f"))
	Substitute(f, map[*cc.VarSym]int64{u.Globals["on"]: 0})
	Optimize(f)
	if len(f.Body.Stmts) != 0 {
		t.Errorf("dead local not removed: %s", Fingerprint(f))
	}
}

func TestDeadStoreKeepsSideEffects(t *testing.T) {
	u := parse(t, `
		int effect(void);
		void f(void) { int unused = effect(); }
	`)
	f := CloneFunc(fn(t, u, "f"))
	Optimize(f)
	if !strings.Contains(Fingerprint(f), "effect") {
		t.Error("side-effecting initializer dropped")
	}
}

func TestAddressTakenLocalNotPropagated(t *testing.T) {
	u := parse(t, `
		void update(long* p);
		long f(void) {
			long x = 1;
			update(&x);
			return x;
		}
	`)
	f := CloneFunc(fn(t, u, "f"))
	Optimize(f)
	fp := Fingerprint(f)
	if !strings.Contains(fp, "return l") {
		t.Errorf("address-taken local folded to a constant: %s", fp)
	}
}

func TestReferencedSwitches(t *testing.T) {
	u := parse(t, `
		multiverse int A;
		multiverse int B;
		int other;
		int f(void) { return A + other; }
		int g(void) { return B + A; }
		int h(void) { return other; }
	`)
	a, b := u.Globals["A"], u.Globals["B"]
	if got := ReferencedSwitches(fn(t, u, "f")); len(got) != 1 || got[0] != a {
		t.Errorf("f switches = %v", got)
	}
	if got := ReferencedSwitches(fn(t, u, "g")); len(got) != 2 || got[0] != b || got[1] != a {
		t.Errorf("g switches = %v", got)
	}
	if got := ReferencedSwitches(fn(t, u, "h")); len(got) != 0 {
		t.Errorf("h switches = %v", got)
	}
}

func TestUnsignedFolding(t *testing.T) {
	u := parse(t, `
		multiverse int A;
		uint f(void) { return (uint)A / 2; }
		int g(void) { uint x = (uint)0 - 1; return x > 0; }
	`)
	f := CloneFunc(fn(t, u, "f"))
	Substitute(f, map[*cc.VarSym]int64{u.Globals["A"]: 7})
	Optimize(f)
	if !strings.Contains(Fingerprint(f), "#3") {
		t.Errorf("7u/2 != 3: %s", Fingerprint(f))
	}
	g := CloneFunc(fn(t, u, "g"))
	Optimize(g)
	if !strings.Contains(Fingerprint(g), "#1") {
		t.Errorf("(0u-1) > 0 should fold to 1 (unsigned): %s", Fingerprint(g))
	}
}

func TestTruncationOnNarrowTypes(t *testing.T) {
	u := parse(t, `
		int f(void) { char c = (char)300; return c; }
	`)
	f := CloneFunc(fn(t, u, "f"))
	Optimize(f)
	if !strings.Contains(Fingerprint(f), "#44") { // 300 mod 256 = 44
		t.Errorf("char truncation: %s", Fingerprint(f))
	}
}

func TestTernaryFolding(t *testing.T) {
	u := parse(t, `
		multiverse int A;
		int f(void) { return A ? 10 : 20; }
	`)
	f := CloneFunc(fn(t, u, "f"))
	Substitute(f, map[*cc.VarSym]int64{u.Globals["A"]: 1})
	Optimize(f)
	fp := Fingerprint(f)
	if !strings.Contains(fp, "#10") || strings.Contains(fp, "#20") {
		t.Errorf("ternary not folded: %s", fp)
	}
}

func TestOptimizeIdempotent(t *testing.T) {
	u := parse(t, `
		multiverse int A;
		void w(void);
		int f(int n) {
			int acc = 0;
			for (int i = 0; i < n; i++) {
				if (A) { w(); }
				acc += i;
			}
			return acc;
		}
	`)
	f := CloneFunc(fn(t, u, "f"))
	Substitute(f, map[*cc.VarSym]int64{u.Globals["A"]: 0})
	Optimize(f)
	fp1 := Fingerprint(f)
	Optimize(f)
	if Fingerprint(f) != fp1 {
		t.Error("Optimize is not idempotent")
	}
	if strings.Contains(fp1, "g:w") {
		t.Errorf("A=0 kept the call: %s", fp1)
	}
}

func TestDivisionByZeroNotFolded(t *testing.T) {
	u := parse(t, `int f(void) { return 1 / 0; }`)
	f := CloneFunc(fn(t, u, "f"))
	Optimize(f)
	if !strings.Contains(Fingerprint(f), "/") {
		t.Error("1/0 was folded away")
	}
}

func TestFingerprintNormalizesLocalNames(t *testing.T) {
	u := parse(t, `
		int f(void) { int alpha = 1; return alpha; }
		int g(void) { int beta = 1; return beta; }
	`)
	if Fingerprint(fn(t, u, "f")) != Fingerprint(fn(t, u, "g")) {
		t.Error("fingerprints should ignore local names")
	}
}

func TestNestedLoopBreakPreserved(t *testing.T) {
	u := parse(t, `
		multiverse int stop;
		int f(void) {
			int n = 0;
			do {
				while (1) { n++; break; }
			} while (stop);
			return n;
		}
	`)
	f := CloneFunc(fn(t, u, "f"))
	Substitute(f, map[*cc.VarSym]int64{u.Globals["stop"]: 0})
	Optimize(f)
	fp := Fingerprint(f)
	// The inner while(1){...break;} must survive even though the outer
	// do-while(0) unwraps — the break binds to the inner loop.
	if !strings.Contains(fp, "while") || !strings.Contains(fp, "break") {
		t.Errorf("inner loop mangled: %s", fp)
	}
}

func TestConstantSwitchFolds(t *testing.T) {
	u := parse(t, `
		multiverse(0, 1, 2) int mode;
		void a(void);
		void b(void);
		void c(void);
		multiverse void dispatch(void) {
			switch (mode) {
			case 0:
				a();
				break;
			case 1:
				b();
				break;
			default:
				c();
			}
		}
	`)
	variant := func(v int64) string {
		f := CloneFunc(fn(t, u, "dispatch"))
		Substitute(f, map[*cc.VarSym]int64{u.Globals["mode"]: v})
		Optimize(f)
		return Fingerprint(f)
	}
	if fp := variant(0); !strings.Contains(fp, "g:a") || strings.Contains(fp, "g:b") || strings.Contains(fp, "g:c") {
		t.Errorf("mode=0: %s", fp)
	}
	if fp := variant(1); !strings.Contains(fp, "g:b") || strings.Contains(fp, "g:a") {
		t.Errorf("mode=1: %s", fp)
	}
	if fp := variant(2); !strings.Contains(fp, "g:c") || strings.Contains(fp, "g:a") {
		t.Errorf("mode=2 (default): %s", fp)
	}
	if fp := variant(0); strings.Contains(fp, "switch") {
		t.Errorf("constant switch not folded away: %s", fp)
	}
}

func TestConstantSwitchFallthroughFolds(t *testing.T) {
	u := parse(t, `
		multiverse(1, 3) int mode;
		void x(void);
		void y(void);
		multiverse void f(void) {
			switch (mode) {
			case 1:
				x();
			case 2:
				y();
				break;
			case 3:
				y();
			}
		}
	`)
	f := CloneFunc(fn(t, u, "f"))
	Substitute(f, map[*cc.VarSym]int64{u.Globals["mode"]: 1})
	Optimize(f)
	fp := Fingerprint(f)
	// mode=1 falls through into case 2: both x and y run.
	if !strings.Contains(fp, "g:x") || !strings.Contains(fp, "g:y") {
		t.Errorf("fallthrough lost: %s", fp)
	}
}

func TestConstantSwitchNoMatchNoDefaultVanishes(t *testing.T) {
	u := parse(t, `
		multiverse(0, 5) int mode;
		void w(void);
		multiverse void f(void) {
			switch (mode) {
			case 0:
				w();
				break;
			}
		}
	`)
	f := CloneFunc(fn(t, u, "f"))
	Substitute(f, map[*cc.VarSym]int64{u.Globals["mode"]: 5})
	Optimize(f)
	if len(f.Body.Stmts) != 0 {
		t.Errorf("unmatched switch not removed: %s", Fingerprint(f))
	}
}

func TestConstantSwitchWithContinueKept(t *testing.T) {
	// A continue inside the selected case binds to the surrounding
	// loop; the optimizer must NOT wrap it in a do-while(0).
	u := parse(t, `
		multiverse int mode;
		long g;
		multiverse void f(long n) {
			for (long i = 0; i < n; i++) {
				switch (mode) {
				case 0:
					continue;
				default:
					g++;
				}
				g += 100;
			}
		}
	`)
	f := CloneFunc(fn(t, u, "f"))
	Substitute(f, map[*cc.VarSym]int64{u.Globals["mode"]: 0})
	Optimize(f)
	fp := Fingerprint(f)
	if !strings.Contains(fp, "switch") {
		t.Errorf("switch with continue was unsafely folded: %s", fp)
	}
}

// TestOSRLabelsFollowInspectOrder: loops and calls are numbered in
// cc.Inspect order, each kind from 1 — a loop before the loops in its
// body, a call before the calls in its operands.
func TestOSRLabelsFollowInspectOrder(t *testing.T) {
	u := parse(t, `
		long g(long x) { return x; }
		long f(long n) {
			long i;
			long s = 0;
			while (n > 0) { n--; do { s += g(g(n)); } while (0); }
			for (i = 0; i < g(3); i++) { s++; }
			return s;
		}
	`)
	f := fn(t, u, "f")
	AssignOSRLabels(f)
	var loops, calls []int
	var args []cc.Expr
	cc.Inspect(f, func(n cc.Node) bool {
		switch n := n.(type) {
		case *cc.While:
			loops = append(loops, n.OSR)
		case *cc.DoWhile:
			loops = append(loops, n.OSR)
		case *cc.For:
			loops = append(loops, n.OSR)
		case *cc.Call:
			calls = append(calls, n.OSR)
			args = append(args, n.Args[0])
		}
		return true
	})
	if fmt.Sprint(loops) != "[1 2 3]" || fmt.Sprint(calls) != "[1 2 3]" {
		t.Fatalf("loop labels %v, call labels %v; want [1 2 3] each", loops, calls)
	}
	if inner, ok := args[0].(*cc.Call); !ok || inner.OSR != 2 {
		t.Errorf("the outer call's operand is not the call labelled 2")
	}
}
