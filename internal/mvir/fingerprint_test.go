package mvir

import (
	"testing"

	"repro/internal/cc"
)

// The fingerprints of kitchenSink's everything, pinned as text: the
// merge key must not drift, or variants that merged before stop
// merging. Optimize leaves the unspecialized body as it is (mode is
// unknown); substituting mode=ON lets it fold the guard.
const (
	goldenEverything       = "func(2)i64{{decl l2:i64=#0:i32;decl l3:i32=(cast:i32 l0);(+= l2 l3);(= l2 (-:i64 (*:i64 l2 #2:i32) #1:i32));(|= l2 (&:i64 l0 #3:i32));(^= l2 l0);(<<= l2 #1:i32);(>>= l2 #1:i32);if (||:i32 (&&:i32 (==:i32 g:mode #1:i32) (>:i32 l0 #0:i32)) (!l1)){(++ l2);}else{(-- l2);}while (>:i32 l2 #100:i32){(/= l2 #2:i32);}do{(++ l2);}while (<:i32 l2 #0:i32);for(decl l4:i64=#0:i32;;(<:i32 l4 #3:i32);(++ l4)){if (==:i32 l4 #1:i32){continue;}if (==:i32 l4 #2:i32){break;}(+= l2 (idx g:buf l4));}(= (idx g:buf #0:i32) (cast:i8 l2));(= (*l1) l2);(= (idx l1 #1:i32) (call g:helper l2));decl l5:i64=(?: (>:i32 l2 #0:i32) l2 (-l2));(= l2 l5);(= g:sink (__xchg (cast:pu64 (&g:sink)) l2));(-= l2 g:sink);decl l6:i64=(-- l2);(+= l2 l6);(= g:hook g:helper);(+= l2 (call g:hook #1:i32));return (+:i64 l2 (idx \"x\" #0:i32));}}"
	goldenEverythingModeOn = "func(2)i64{{decl l2:i64=#0:i32;decl l3:i32=(cast:i32 l0);(+= l2 l3);(= l2 (-:i64 (*:i64 l2 #2:i32) #1:i32));(|= l2 (&:i64 l0 #3:i32));(^= l2 l0);(<<= l2 #1:i32);(>>= l2 #1:i32);if (||:i32 (!=:i32 (>:i32 l0 #0:i32) #0:i32) (!l1)){(++ l2);}else{(-- l2);}while (>:i32 l2 #100:i32){(/= l2 #2:i32);}do{(++ l2);}while (<:i32 l2 #0:i32);for(decl l4:i64=#0:i32;;(<:i32 l4 #3:i32);(++ l4)){if (==:i32 l4 #1:i32){continue;}if (==:i32 l4 #2:i32){break;}(+= l2 (idx g:buf l4));}(= (idx g:buf #0:i32) (cast:i8 l2));(= (*l1) l2);(= (idx l1 #1:i32) (call g:helper l2));decl l5:i64=(?: (>:i32 l2 #0:i32) l2 (-l2));(= l2 l5);(= g:sink (__xchg (cast:pu64 (&g:sink)) l2));(-= l2 g:sink);decl l6:i64=(-- l2);(+= l2 l6);(= g:hook g:helper);(+= l2 (call g:hook #1:i32));return (+:i64 l2 (idx \"x\" #0:i32));}}"
)

func TestFingerprintGolden(t *testing.T) {
	u := parse(t, kitchenSink)
	f := fn(t, u, "everything")
	if got := Fingerprint(f); got != goldenEverything {
		t.Errorf("before Optimize:\ngot  %s\nwant %s", got, goldenEverything)
	}
	Optimize(f)
	if got := Fingerprint(f); got != goldenEverything {
		t.Errorf("after Optimize:\ngot  %s\nwant %s", got, goldenEverything)
	}

	u = parse(t, kitchenSink)
	f = fn(t, u, "everything")
	Substitute(f, map[*cc.VarSym]int64{u.Globals["mode"]: 1})
	Optimize(f)
	if got := Fingerprint(f); got != goldenEverythingModeOn {
		t.Errorf("mode=ON after Optimize:\ngot  %s\nwant %s", got, goldenEverythingModeOn)
	}
}

// Optimize's result is the merge key, so it must be exactly the
// fingerprint of the body Optimize leaves behind.
func TestOptimizeReturnsFingerprint(t *testing.T) {
	u := parse(t, `
		long g;
		long still(long a) { g = a; return a; }
		long folds(void) { long x = 2; long y = x * 3; return y + g; }
		long proto(long a, long* b);
	`)
	for _, tc := range []struct {
		name    string
		changes bool // whether Optimize changes the fingerprint
	}{
		{"still", false}, // the first round changes nothing
		{"folds", true},  // the first round folds, the second confirms
		{"proto", false}, // no body
	} {
		f := CloneFunc(fn(t, u, tc.name))
		before := Fingerprint(f)
		got := Optimize(f)
		if want := Fingerprint(f); got != want {
			t.Errorf("%s: Optimize returned %q, the body's fingerprint is %q", tc.name, got, want)
		}
		if (got != before) != tc.changes {
			t.Errorf("%s: fingerprint %q -> %q, want changed=%v", tc.name, before, got, tc.changes)
		}
	}
	if got := Optimize(fn(t, u, "proto")); got != "func(2)i64{}" {
		t.Errorf("prototype fingerprint = %q", got)
	}
}
