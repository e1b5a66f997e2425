package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
)

// mainKernelSrc exports a multiverse switch and a multiversed function
// plus a helper, like a kernel exporting symbols to modules.
const mainKernelSrc = `
	multiverse int feature;
	long fastHits;
	long slowHits;
	void fastImpl(void) { fastHits++; }
	void slowImpl(void) { slowHits++; }
	multiverse void op(void) {
		if (feature) { fastImpl(); } else { slowImpl(); }
	}
	void kernelPath(void) { op(); }
	long fasts(void) { return fastHits; }
	long slows(void) { return slowHits; }
`

// moduleSrc is a loadable module: it declares the kernel's switch and
// function extern (the attribute must be on the declaration, §5) and
// adds its own call sites plus its own multiversed function.
const moduleSrc = `
	extern multiverse int feature;
	multiverse void op(void);
	long modCalls;

	void modulePath(void) {
		op();
		modCalls++;
	}
	long moduleCalls(void) { return modCalls; }

	multiverse(0, 1) int mod_verbose;
	long verboseHits;
	multiverse void modLog(void) {
		if (mod_verbose) { verboseHits++; }
	}
	void modWork(void) { modLog(); }
	long verbose(void) { return verboseHits; }
`

func buildWithModule(t *testing.T) *System {
	t.Helper()
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "kernel", Text: mainKernelSrc})
	if err != nil {
		t.Fatal(err)
	}
	loadModule(t, sys, moduleSrc)
	return sys
}

// loadModule builds, loads and registers a module against sys's image
// and makes its symbols callable through the machine.
func loadModule(t *testing.T, sys *System, src string) {
	t.Helper()
	mod, err := BuildModule(sys.Machine.Image, 0, GenOptions{}, Source{Name: "mod", Text: src})
	if err != nil {
		t.Fatalf("BuildModule: %v", err)
	}
	if err := LoadModule(sys.Machine, mod); err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if err := sys.RT.AddModule(mod); err != nil {
		t.Fatalf("AddModule: %v", err)
	}
	for name, s := range mod.Symbols {
		if _, dup := sys.Machine.Image.Symbols[name]; !dup {
			sys.Machine.Image.Symbols[name] = s
		}
	}
}

// TestPatchRangesCoverModule: after AddModule, PatchRanges lists every
// call-site window, the module's included, and every generic prologue,
// sorted by address, and hands out a copy the caller may change.
func TestPatchRangesCoverModule(t *testing.T) {
	sys := buildWithModule(t)
	ranges := sys.RT.PatchRanges()
	has := make(map[PatchRange]bool, len(ranges))
	for i, r := range ranges {
		if i > 0 && ranges[i-1].Addr >= r.Addr {
			t.Fatalf("ranges %d and %d out of order: %#x, %#x", i-1, i, ranges[i-1].Addr, r.Addr)
		}
		has[r] = true
	}
	moduleSites := 0
	for _, s := range sys.RT.desc.Sites {
		n := uint64(isa.CallSiteLen)
		if _, ptr := sys.RT.fnptrs[s.Callee]; ptr {
			n = isa.MemCallSiteLen
		}
		if !has[PatchRange{Addr: s.Addr, Len: n}] {
			t.Errorf("call site window [%#x,+%d) missing", s.Addr, n)
		}
		if s.Addr >= ModuleBase {
			moduleSites++
		}
	}
	if moduleSites == 0 {
		t.Fatal("the module registered no call sites")
	}
	for _, f := range sys.RT.Funcs() {
		if !has[PatchRange{Addr: f.Generic, Len: isa.CallSiteLen}] {
			t.Errorf("prologue of %q at %#x missing", f.Name, f.Generic)
		}
	}
	if want := len(sys.RT.desc.Sites) + len(sys.RT.Funcs()); len(ranges) != want {
		t.Errorf("%d patch ranges, want %d sites and prologues", len(ranges), want)
	}
	ranges[0].Addr++
	if again := sys.RT.PatchRanges(); again[0].Addr == ranges[0].Addr {
		t.Error("changing the returned ranges changed the runtime's")
	}
}

func TestModuleCallSitesGetPatched(t *testing.T) {
	sys := buildWithModule(t)
	call := func(name string) uint64 {
		v, err := sys.Machine.CallNamed(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return v
	}

	// Dynamic execution through the module works before any commit.
	call("modulePath")
	if call("slows") != 1 {
		t.Fatal("module call did not reach the kernel function")
	}

	// Commit feature=1: BOTH the kernel call site and the module call
	// site must be patched to the fast variant.
	if err := sys.SetSwitch("feature", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatal(err)
	}
	// Changing the variable without commit must have no effect in the
	// module either (bound semantics across images).
	if err := sys.SetSwitch("feature", 0); err != nil {
		t.Fatal(err)
	}
	call("modulePath")
	call("kernelPath")
	if call("fasts") != 2 {
		t.Errorf("fasts = %d, want 2 (module site not bound)", call("fasts"))
	}
	if call("slows") != 1 {
		t.Errorf("slows = %d, want 1", call("slows"))
	}
}

func TestModuleLoadedAfterCommitCatchesUp(t *testing.T) {
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "kernel", Text: mainKernelSrc})
	if err != nil {
		t.Fatal(err)
	}
	// Commit BEFORE the module is loaded.
	if err := sys.SetSwitch("feature", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatal(err)
	}
	loadModule(t, sys, moduleSrc)
	// Registering the module leaves the live binding alone: the old
	// sites and the prologue still route to the committed variant.
	if err := sys.RT.Audit(); err != nil {
		t.Fatalf("audit after AddModule: %v", err)
	}
	// The insmod-style re-commit picks up the new sites.
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetSwitch("feature", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Machine.CallNamed("modulePath"); err != nil {
		t.Fatal(err)
	}
	fasts, err := sys.Machine.CallNamed("fasts")
	if err != nil {
		t.Fatal(err)
	}
	if fasts != 1 {
		t.Errorf("fasts = %d, want 1 (late module site not patched)", fasts)
	}
}

// TestModuleLoadKeepsActivenessCheck: a module loaded while a CPU runs
// inside the committed variant must not hide that variant from the
// activeness check. The refusing commit that follows scans the
// variant, not the generic body, with or without the module.
func TestModuleLoadKeepsActivenessCheck(t *testing.T) {
	for _, withModule := range []bool{false, true} {
		sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "kernel", Text: mainKernelSrc})
		if err != nil {
			t.Fatal(err)
		}
		setAndCommit(t, sys, map[string]int64{"feature": 1})
		fs := sys.RT.byName["op"]
		bound := fs.committed
		if bound == nil {
			t.Fatal("op not committed")
		}
		if withModule {
			loadModule(t, sys, moduleSrc)
		}
		if err := sys.Machine.StartCall(sys.Machine.CPU, "kernelPath"); err != nil {
			t.Fatal(err)
		}
		stepInto(t, sys, bound.Addr, bound.Addr+bound.Size)
		sys.RT.SetCommitOptions(CommitOptions{Mode: ModeStopMachine, OnActive: ActiveRefuse})
		if err := sys.SetSwitch("feature", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RT.Commit(); !errors.Is(err, ErrFunctionActive) {
			t.Fatalf("module=%v: commit under a CPU in the committed variant: err = %v, want ErrFunctionActive",
				withModule, err)
		}
		if fs.committed != bound {
			t.Errorf("module=%v: the refused commit changed the binding", withModule)
		}
		stepToHalt(t, sys)
	}
}

// ptrKernelSrc exports a function-pointer switch that a module calls
// through.
const ptrKernelSrc = `
	long hits;
	void helper(void) { hits++; }
	void impl(void) { helper(); }
	multiverse void (*hook)(void);
	void kernelHook(void) { hook(); }
	long hookHits(void) { return hits; }
`

const ptrModuleSrc = `
	extern multiverse void (*hook)(void);
	void moduleHook(void) { hook(); }
`

// TestModuleCatchesUpCommittedPointer: a module calling through an
// already committed pointer switch leaves the kernel's direct call in
// place, and the next commit turns the module's indirect call into a
// direct one too.
func TestModuleCatchesUpCommittedPointer(t *testing.T) {
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "kernel", Text: ptrKernelSrc})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetFnPtr("hook", "impl"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatal(err)
	}
	loadModule(t, sys, ptrModuleSrc)
	if err := sys.RT.Audit(); err != nil {
		t.Fatalf("audit after AddModule: %v", err)
	}
	hook, _ := sys.RT.VarByName("hook")
	if n := sys.RT.Sites(hook); n != 2 {
		t.Fatalf("hook has %d call sites, want 2", n)
	}
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := sys.RT.Audit(); err != nil {
		t.Fatalf("audit after the post-insmod commit: %v", err)
	}
	for _, st := range sys.RT.sites[hook] {
		if !st.patched {
			t.Errorf("site %#x still calls through the pointer", st.desc.Addr)
		}
	}
	// Bound semantics in both images: clearing the pointer without a
	// commit changes nothing.
	if err := sys.SetSwitch("hook", 0); err != nil {
		t.Fatal(err)
	}
	call(t, sys, "kernelHook")
	call(t, sys, "moduleHook")
	if got := call(t, sys, "hookHits"); got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
}

// ownPtrModuleSrc is a module with a pointer switch of its own, and
// the one call site through it.
const ownPtrModuleSrc = `
	long mhits;
	void mimpl(void) { mhits++; }
	multiverse void (*mhook)(void);
	void mcall(void) { mhook(); }
	long mhookHits(void) { return mhits; }
`

// TestModuleOwnPointerSwitch: a module's own pointer switch joins the
// runtime's pointer switches in address order, so Commit binds its
// call site, Audit checks it, Revert unbinds it, ExportState carries
// it, and the state restores onto a runtime with the same module
// loaded.
func TestModuleOwnPointerSwitch(t *testing.T) {
	build := func() *System {
		sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "kernel", Text: mainKernelSrc})
		if err != nil {
			t.Fatal(err)
		}
		loadModule(t, sys, ownPtrModuleSrc)
		return sys
	}
	sys := build()
	if err := sys.SetFnPtr("mhook", "mimpl"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatal(err)
	}
	mhook, _ := sys.RT.VarByName("mhook")
	sites := sys.RT.sites[mhook]
	if len(sites) != 1 {
		t.Fatalf("mhook has %d call sites, want 1", len(sites))
	}
	if !sites[0].patched {
		t.Fatalf("the commit left the call through mhook at %#x unbound", sites[0].desc.Addr)
	}
	if err := sys.RT.Audit(); err != nil {
		t.Fatalf("audit after the commit: %v", err)
	}
	call(t, sys, "mcall")
	if got := call(t, sys, "mhookHits"); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	if err := sys.RT.Revert(); err != nil {
		t.Fatal(err)
	}
	if sites[0].patched {
		t.Fatal("the revert left the call through mhook bound")
	}
	if err := sys.RT.Audit(); err != nil {
		t.Fatalf("audit after the revert: %v", err)
	}
	s, err := sys.RT.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.FnPtrs) != 1 || s.FnPtrs[0].Addr != mhook {
		t.Fatalf("exported pointer switches %+v, want mhook's at %#x", s.FnPtrs, mhook)
	}
	other := build()
	if err := other.RT.ImportState(s); err != nil {
		t.Fatalf("restoring onto a runtime with the same module: %v", err)
	}
	again, err := other.RT.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, again) {
		t.Fatalf("re-export diverged\nfirst:  %+v\nsecond: %+v", s, again)
	}
}

func TestModuleOwnSwitchesWork(t *testing.T) {
	sys := buildWithModule(t)
	if _, ok := sys.RT.VarByName("mod_verbose"); !ok {
		t.Fatal("module switch not registered")
	}
	if err := sys.SetSwitch("mod_verbose", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetSwitch("mod_verbose", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Machine.CallNamed("modWork"); err != nil {
		t.Fatal(err)
	}
	v, err := sys.Machine.CallNamed("verbose")
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("verbose = %d, want 1 (module function not bound)", v)
	}
}

func TestModuleConflictsRejected(t *testing.T) {
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "kernel", Text: mainKernelSrc})
	if err != nil {
		t.Fatal(err)
	}
	// A module that defines a symbol the kernel already exports fails
	// to link against Externs only at load/registration time — here we
	// provoke a descriptor conflict by registering the main image as a
	// module of itself.
	err = sys.RT.AddModule(sys.Machine.Image)
	if err == nil || !strings.Contains(err.Error(), "redefines") {
		t.Errorf("self-registration err = %v, want redefinition error", err)
	}
}

func TestModuleUnresolvedSymbolFails(t *testing.T) {
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "kernel", Text: mainKernelSrc})
	if err != nil {
		t.Fatal(err)
	}
	_, err = BuildModule(sys.Machine.Image, 0, GenOptions{}, Source{Name: "bad", Text: `
		void missingKernelFunc(void);
		void entry(void) { missingKernelFunc(); }
	`})
	if err == nil || !strings.Contains(err.Error(), "undefined symbol") {
		t.Errorf("err = %v, want undefined symbol", err)
	}
}
