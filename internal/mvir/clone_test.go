package mvir

import (
	"strings"
	"testing"

	"repro/internal/cc"
)

// kitchenSink exercises every AST node kind the cloner must handle.
const kitchenSink = `
	enum Mode { OFF, ON };
	multiverse enum Mode mode;
	char buf[32];
	long sink;
	long helper(long x) { return x; }
	long (*hook)(long);

	long everything(long p, long* q) {
		long acc = 0;
		int narrow = (int)p;
		acc += narrow;
		acc = acc * 2 - 1;
		acc |= p & 3;
		acc ^= p;
		acc <<= 1;
		acc >>= 1;
		if (mode == ON && p > 0 || !q) { acc++; } else { acc--; }
		while (acc > 100) { acc /= 2; }
		do { acc++; } while (acc < 0);
		for (long i = 0; i < 3; i++) {
			if (i == 1) { continue; }
			if (i == 2) { break; }
			acc += buf[i];
		}
		buf[0] = (char)acc;
		*q = acc;
		q[1] = helper(acc);
		long t = acc > 0 ? acc : -acc;
		acc = t;
		sink = __xchg((ulong*)&sink, acc);
		acc -= sink;
		long old = acc--;
		acc += old;
		hook = helper;
		acc += hook(1);
		;
		return acc + "x"[0];
	}
`

func TestCloneKitchenSink(t *testing.T) {
	u := parse(t, kitchenSink)
	f := fn(t, u, "everything")
	clone := CloneFunc(f)
	if Fingerprint(f) != Fingerprint(clone) {
		t.Fatal("clone fingerprint differs from original")
	}
	// Optimizing the clone must leave the original untouched.
	before := Fingerprint(f)
	Substitute(clone, map[*cc.VarSym]int64{u.Globals["mode"]: 1})
	Optimize(clone)
	if Fingerprint(f) != before {
		t.Fatal("optimizing the clone mutated the original")
	}
}

func TestCloneSharesGlobalsOnly(t *testing.T) {
	u := parse(t, kitchenSink)
	f := fn(t, u, "everything")
	clone := CloneFunc(f)
	// Globals referenced from both must be the same symbol objects.
	var origGlobals, cloneGlobals []*cc.VarSym
	collect := func(fd *cc.FuncDecl, out *[]*cc.VarSym) {
		cc.Inspect(fd, func(e cc.Node) bool {
			if vr, ok := e.(*cc.VarRef); ok && vr.Sym != nil && vr.Sym.IsGlobalData() {
				*out = append(*out, vr.Sym)
			}
			return true
		})
	}
	collect(f, &origGlobals)
	collect(clone, &cloneGlobals)
	if len(origGlobals) == 0 || len(origGlobals) != len(cloneGlobals) {
		t.Fatalf("global refs: %d vs %d", len(origGlobals), len(cloneGlobals))
	}
	for i := range origGlobals {
		if origGlobals[i] != cloneGlobals[i] {
			t.Fatalf("global %d not shared", i)
		}
	}
	// Locals must all be distinct objects.
	origLocals := map[*cc.VarSym]bool{}
	cc.Inspect(f, func(e cc.Node) bool {
		if vr, ok := e.(*cc.VarRef); ok && vr.Sym != nil &&
			(vr.Sym.Storage == cc.StorageLocal || vr.Sym.Storage == cc.StorageParam) {
			origLocals[vr.Sym] = true
		}
		return true
	})
	cc.Inspect(clone, func(e cc.Node) bool {
		if vr, ok := e.(*cc.VarRef); ok && vr.Sym != nil &&
			(vr.Sym.Storage == cc.StorageLocal || vr.Sym.Storage == cc.StorageParam) {
			if origLocals[vr.Sym] {
				t.Fatalf("local %q shared between clone and original", vr.Sym.Name)
			}
		}
		return true
	})
}

func TestHasSideEffects(t *testing.T) {
	u := parse(t, `
		long g;
		long f(void) { return 1; }
		long probe(long a) {
			long pure = a + g * 2;
			long call = f();
			long assign = (g = 1);
			g++;
			return pure + call + assign;
		}
	`)
	probe := fn(t, u, "probe")
	// Find the top-level initializers by scanning DeclStmts.
	decls := probe.Body.Stmts
	pure := decls[0].(*cc.DeclStmt).Init
	call := decls[1].(*cc.DeclStmt).Init
	assign := decls[2].(*cc.DeclStmt).Init
	inc := decls[3].(*cc.ExprStmt).X
	if HasSideEffects(pure) {
		t.Error("pure arithmetic flagged as side-effecting")
	}
	if !HasSideEffects(call) {
		t.Error("call not flagged")
	}
	if !HasSideEffects(assign) {
		t.Error("assignment not flagged")
	}
	if !HasSideEffects(inc) {
		t.Error("increment not flagged")
	}
}

func TestFingerprintCoversAllNodes(t *testing.T) {
	u := parse(t, kitchenSink)
	fp := Fingerprint(fn(t, u, "everything"))
	// Every construct leaves a trace; unknown nodes would print ?T.
	if strings.Contains(fp, "?") && !strings.Contains(fp, "?:") {
		t.Errorf("fingerprint contains unknown-node marker: %s", fp)
	}
	for _, want := range []string{"while", "do", "for", "if", "break;", "continue;", "(call", "(?:", "(__xchg"} {
		if !strings.Contains(fp, want) {
			t.Errorf("fingerprint missing %q", want)
		}
	}
}

func TestOptimizeKitchenSinkPreservesShape(t *testing.T) {
	u := parse(t, kitchenSink)
	f := CloneFunc(fn(t, u, "everything"))
	Optimize(f)
	fp := Fingerprint(f)
	// Calls with side effects must survive.
	for _, want := range []string{"helper", "__xchg"} {
		if !strings.Contains(fp, want) {
			t.Errorf("optimizer dropped %q: %s", want, fp)
		}
	}
}

func TestSubstituteEnumSwitch(t *testing.T) {
	u := parse(t, kitchenSink)
	f := CloneFunc(fn(t, u, "everything"))
	Substitute(f, map[*cc.VarSym]int64{u.Globals["mode"]: 0})
	Optimize(f)
	if strings.Contains(Fingerprint(f), "g:mode") {
		t.Error("enum switch read survived substitution")
	}
}
