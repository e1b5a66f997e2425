package core

import (
	"errors"
	"reflect"
	"repro/internal/machine"
	"testing"
)

// TestRuntimeFieldsClassifiedForSnapshot is the snapshot-completeness
// gate for the runtime: every field of Runtime and of the per-binding
// state structs must be explicitly serialized, derivable, or host
// wiring. A field added without a disposition fails here instead of
// silently never reaching RuntimeState.
func TestRuntimeFieldsClassifiedForSnapshot(t *testing.T) {
	serialized := map[string]bool{
		"funcs":    true, // bindings → FuncBindingState
		"fnptrs":   true, // via ptrOrder → FnPtrBindingState
		"ptrOrder": true,
		"deferred": true, // → DeferredOpState
		"Stats":    true,
		"opSeq":    true,
	}
	derived := map[string]bool{
		// Rebuilt by NewRuntime from the image descriptors; ImportState
		// cross-checks names and addresses against the snapshot.
		"desc": true, "varsByAddr": true, "byGeneric": true, "byName": true,
		// Per-site current/patched bytes are re-read from the restored
		// memory image by ImportState.
		"sites": true,
		// The sorted patch ranges, recomputed from the sites and
		// prologues by NewRuntime and AddModule.
		"ranges": true,
		// tx must be nil at export (enforced) and at import.
		"tx": true,
	}
	hostWiring := map[string]bool{
		"plat":    true,                                  // the platform wraps the (separately restored) machine
		"Options": true,                                  // commit-mode policy, chosen by the harness
		"Tracer":  true, "flight": true, "metrics": true, // observability hooks
		"DisableInlining": true, "PrologueOnly": true, // ablation policy knobs
	}
	// Per-write buffers whose contents never outlive one runtime call.
	buffers := map[string]bool{"buf": true}
	typ := reflect.TypeOf(Runtime{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if serialized[name] || derived[name] || hostWiring[name] || buffers[name] {
			continue
		}
		t.Errorf("Runtime.%s is not classified for snapshots: extend ExportState/ImportState "+
			"(and the wire format in internal/snapshot) or record its disposition here", name)
	}

	// The binding structs mirror into *State types field by field; a
	// new field here must appear there (or be derivable like siteState's
	// current/patched, which ImportState re-reads from memory).
	for _, c := range []struct {
		typ   reflect.Type
		known map[string]bool
	}{
		{reflect.TypeOf(funcState{}), map[string]bool{
			"fd": true, "committed": true, "savedPrologue": true, "prologueOn": true}},
		{reflect.TypeOf(fnptrState{}), map[string]bool{
			"vd": true, "committed": true, "target": true}},
		{reflect.TypeOf(siteState{}), map[string]bool{
			"desc": true, "size": true, "original": true, "current": true, "patched": true}},
	} {
		for i := 0; i < c.typ.NumField(); i++ {
			name := c.typ.Field(i).Name
			if !c.known[name] {
				t.Errorf("%s.%s has no snapshot disposition: extend core.RuntimeState "+
					"(or derive it in ImportState) and update this test", c.typ.Name(), name)
			}
		}
	}
}

// TestRuntimeStateRoundTrip exports a runtime mid-life (committed
// function, pending deferred op) and imports it into a second runtime
// over the same machine, which must then render an identical state
// report and identical re-export.
func TestRuntimeStateRoundTrip(t *testing.T) {
	sys := buildFig2(t)
	setAndCommit(t, sys, map[string]int64{"A": 1, "B": 0})
	call(t, sys, "foo")

	st, err := sys.RT.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	// Mirror the restore order: a fresh machine from the same image
	// (so NewRuntime's site verification sees the original call
	// instructions), then the memory image, then the runtime state —
	// which re-derives per-site patch status from the restored text.
	m2, err := machine.New(sys.Machine.Image)
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := NewRuntime(m2.Image, &UserPlatform{M: m2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Mem.ImportPages(sys.Machine.Mem.ExportPages()); err != nil {
		t.Fatal(err)
	}
	m2.Mem.SetStats(sys.Machine.Mem.Stats)
	if err := rt2.ImportState(st); err != nil {
		t.Fatal(err)
	}
	if got, want := rt2.StateReport(), sys.RT.StateReport(); got != want {
		t.Fatalf("state reports diverged after import:\ngot:\n%s\nwant:\n%s", got, want)
	}
	st2, err := rt2.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Fatalf("re-export diverged:\nfirst:  %+v\nsecond: %+v", st, st2)
	}
	// The imported runtime must keep operating: revert cleanly.
	if err := rt2.Revert(); err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeStateImportRejectsMismatch(t *testing.T) {
	sys := buildFig2(t)
	st, err := sys.RT.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	other, err := BuildSystem(GenOptions{}, nil, Source{Name: "other.mvc", Text: `
		multiverse int X;
		multiverse void g(void) { if (X) {} }
		void use(void) { g(); }
	`})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RT.ImportState(st); err == nil {
		t.Fatal("imported runtime state across images")
	}

	bad := st
	bad.Funcs = append([]FuncBindingState(nil), st.Funcs...)
	bad.Funcs[0].CommittedAddr = 0xdead_beef
	if err := sys.RT.ImportState(bad); err == nil {
		t.Fatal("imported a binding to an unknown variant address")
	}

	// The right records in another order than ExportState's are refused
	// too: one runtime state has one encoding.
	two, err := BuildSystem(GenOptions{}, nil, Source{Name: "two.mvc", Text: `
		multiverse int X;
		multiverse void f(void) { if (X) {} }
		multiverse void g(void) { if (X) {} }
		multiverse void (*p)(void);
		multiverse void (*q)(void);
		void use(void) { f(); g(); p(); q(); }
	`})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = two.RT.ExportState(); err != nil {
		t.Fatal(err)
	}
	if len(st.Funcs) != 2 || len(st.FnPtrs) != 2 {
		t.Fatalf("exported %d functions and %d pointer switches, want 2 of each", len(st.Funcs), len(st.FnPtrs))
	}
	swapped := st
	swapped.Funcs = []FuncBindingState{st.Funcs[1], st.Funcs[0]}
	if err := two.RT.ImportState(swapped); err == nil {
		t.Error("imported functions out of image order")
	}
	swapped = st
	swapped.FnPtrs = []FnPtrBindingState{st.FnPtrs[1], st.FnPtrs[0]}
	if err := two.RT.ImportState(swapped); err == nil {
		t.Error("imported pointer switches out of address order")
	}
}

// TestExportStateNotQuiescedIsTyped pins the supervisor contract: a
// mid-transaction export fails with the retryable ErrNotQuiesced
// sentinel, matchable through errors.Is, not a one-off string.
func TestExportStateNotQuiescedIsTyped(t *testing.T) {
	sys := buildFig2(t)
	sys.RT.tx = &txn{}
	defer func() { sys.RT.tx = nil }()
	if _, err := sys.RT.ExportState(); !errors.Is(err, ErrNotQuiesced) {
		t.Fatalf("ExportState inside txn = %v, want errors.Is ErrNotQuiesced", err)
	}
	if err := sys.RT.ImportState(RuntimeState{}); !errors.Is(err, ErrNotQuiesced) {
		t.Fatalf("ImportState inside txn = %v, want errors.Is ErrNotQuiesced", err)
	}
}
