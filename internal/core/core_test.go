package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/metrics"
)

// figure2Src is the paper's running example (Figure 2): two boolean
// switches, a multiversed function whose A=0 variants merge.
const figure2Src = `
	multiverse int A;
	multiverse int B;
	long calcCount;
	long logCount;
	void calc(void) { calcCount++; }
	void logmsg(void) { logCount++; }
	multiverse void multi(void) {
		if (A) {
			calc();
			if (B) { logmsg(); }
		}
	}
	void foo(void) { multi(); }
	long calcs(void) { return calcCount; }
	long logs(void) { return logCount; }
`

func buildFig2(t *testing.T) *System {
	t.Helper()
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "fig2.mvc", Text: figure2Src})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func call(t *testing.T, sys *System, name string, args ...uint64) uint64 {
	t.Helper()
	v, err := sys.Machine.CallNamed(name, args...)
	if err != nil {
		t.Fatalf("call %s: %v", name, err)
	}
	return v
}

func setAndCommit(t *testing.T, sys *System, vals map[string]int64) CommitResult {
	t.Helper()
	for k, v := range vals {
		if err := sys.SetSwitch(k, v); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sys.RT.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestVariantGenerationMergesFigure2(t *testing.T) {
	sys := buildFig2(t)
	if len(sys.Report.Functions) != 1 {
		t.Fatalf("reports = %+v", sys.Report.Functions)
	}
	fr := sys.Report.Functions[0]
	if fr.RawVariants != 4 {
		t.Errorf("raw variants = %d, want 4", fr.RawVariants)
	}
	if fr.MergedVariants != 3 {
		t.Errorf("merged variants = %d, want 3 (A=0 merges)", fr.MergedVariants)
	}
	// The merged A=0 variant must carry a range guard B in [0,1].
	var fd *FuncDesc
	for i, f := range sys.RT.Funcs() {
		if f.Name == "multi" {
			fd = &sys.RT.Funcs()[i]
		}
	}
	if fd == nil {
		t.Fatal("no descriptor for multi")
	}
	foundRange := false
	for _, v := range fd.Variants {
		for _, g := range v.Guards {
			if g.Lo == 0 && g.Hi == 1 {
				foundRange = true
			}
		}
	}
	if !foundRange {
		t.Errorf("no merged range guard found: %+v", fd.Variants)
	}
}

// threeSwitchSrc crosses three switches of domain 4 (64 raw variants).
// Values on one side of a threshold fold to the same body, and B's
// merged group {0,1,3} is not contiguous, so it needs two guard boxes.
const threeSwitchSrc = `
	multiverse(0, 1, 2, 3) int A;
	multiverse(0, 1, 2, 3) int B;
	multiverse(0, 1, 2, 3) int C;
	multiverse long f(long x) {
		long r = x;
		if (A > 1) { r = r * 3; } else { r = r + 1; }
		if (B == 2) { r = r - 7; }
		if (C > 0 && A == 3) { r = r ^ 5; }
		return r;
	}
	long run(long x) { return f(x); }
`

func TestVariantMergeThreeSwitches(t *testing.T) {
	for _, tc := range []struct {
		opts   GenOptions
		merged int
		names  []string
	}{
		{GenOptions{VariantSrc: true}, 6, []string{
			"f.A=0-1.B=0-1.C=0-3",
			"f.A=0-1.B=2.C=0-3",
			"f.A=2-3.B=0-1.C=0",
			"f.A=2-3.B=2.C=0",
			"f.A=3.B=0-1.C=1-3",
			"f.A=3.B=2.C=1-3",
		}},
		// Unoptimized bodies still differ in their substituted
		// constants, so nothing merges.
		{GenOptions{DisableOptimizer: true, VariantSrc: true}, 64, nil},
	} {
		_, rep, err := BuildImage(tc.opts, Source{Name: "three.mvc", Text: threeSwitchSrc})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Functions) != 1 {
			t.Fatalf("reports = %+v", rep.Functions)
		}
		fr := rep.Functions[0]
		if fr.RawVariants != 64 || fr.MergedVariants != tc.merged {
			t.Errorf("%+v: raw/merged = %d/%d, want 64/%d", tc.opts, fr.RawVariants, fr.MergedVariants, tc.merged)
		}
		if len(fr.VariantSrc) != tc.merged {
			t.Errorf("%+v: %d variant symbols, want %d", tc.opts, len(fr.VariantSrc), tc.merged)
		}
		for _, name := range tc.names {
			if _, ok := fr.VariantSrc[name]; !ok {
				t.Errorf("no variant %s", name)
			}
		}
	}
}

func TestCommitSemantics(t *testing.T) {
	sys := buildFig2(t)

	// Uncommitted: dynamic evaluation through the generic body.
	setSwitchOnly := func(name string, v int64) {
		if err := sys.SetSwitch(name, v); err != nil {
			t.Fatal(err)
		}
	}
	setSwitchOnly("A", 1)
	setSwitchOnly("B", 1)
	call(t, sys, "foo")
	if call(t, sys, "calcs") != 1 || call(t, sys, "logs") != 1 {
		t.Fatal("generic execution broken")
	}

	// Commit A=1, B=0: calc still runs, log does not.
	setAndCommit(t, sys, map[string]int64{"A": 1, "B": 0})
	call(t, sys, "foo")
	if call(t, sys, "calcs") != 2 || call(t, sys, "logs") != 1 {
		t.Errorf("A=1,B=0 committed: calcs=%d logs=%d", call(t, sys, "calcs"), call(t, sys, "logs"))
	}

	// The key semantic of §2: after the commit, changing the variable
	// WITHOUT a new commit has no effect — the code is bound.
	setSwitchOnly("B", 1)
	call(t, sys, "foo")
	if call(t, sys, "logs") != 1 {
		t.Error("bound variant still evaluates B dynamically")
	}

	// Re-commit picks up the change.
	setAndCommit(t, sys, map[string]int64{"A": 1, "B": 1})
	call(t, sys, "foo")
	if call(t, sys, "logs") != 2 {
		t.Error("re-commit did not install the B=1 variant")
	}

	// Commit A=0: multi becomes empty (erased call site).
	setAndCommit(t, sys, map[string]int64{"A": 0, "B": 0})
	before := call(t, sys, "calcs")
	call(t, sys, "foo")
	if call(t, sys, "calcs") != before {
		t.Error("A=0 variant still calls calc")
	}
}

func TestRevertRestoresDynamicBehavior(t *testing.T) {
	sys := buildFig2(t)
	setAndCommit(t, sys, map[string]int64{"A": 0, "B": 0})
	if err := sys.RT.Revert(); err != nil {
		t.Fatal(err)
	}
	// Dynamic again: A=1 honoured without commit.
	if err := sys.SetSwitch("A", 1); err != nil {
		t.Fatal(err)
	}
	call(t, sys, "foo")
	if call(t, sys, "calcs") != 1 {
		t.Error("revert did not restore dynamic evaluation")
	}
}

func TestOutOfDomainFallsBackToGeneric(t *testing.T) {
	sys := buildFig2(t)
	res := setAndCommit(t, sys, map[string]int64{"A": 3, "B": 4})
	if res.Committed != 0 || res.Generic != 1 {
		t.Errorf("commit result = %+v, want generic fallback", res)
	}
	// Figure 3d: the generic code still behaves correctly (A=3 is
	// truthy).
	call(t, sys, "foo")
	if call(t, sys, "calcs") != 1 {
		t.Error("generic fallback broken")
	}
	if sys.RT.Stats.GenericSignals == 0 {
		t.Error("generic fallback not signalled")
	}
}

func TestCompletenessThroughFunctionPointer(t *testing.T) {
	// Calls through untracked function pointers must reach the
	// committed variant via the prologue jump (§7.4).
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "fp.mvc", Text: `
		multiverse int on;
		long count;
		multiverse void tick(void) { if (on) { count = count + 100; } else { count++; } }
		void (*escape)(void);
		void setup(void) { escape = tick; }
		void callEscape(void) { escape(); }
		long get(void) { return count; }
	`})
	if err != nil {
		t.Fatal(err)
	}
	call(t, sys, "setup")
	if err := sys.SetSwitch("on", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatal(err)
	}
	// Bind on=1, then flip the variable: an indirect call must still
	// execute the committed on=1 variant.
	if err := sys.SetSwitch("on", 0); err != nil {
		t.Fatal(err)
	}
	call(t, sys, "callEscape")
	if got := call(t, sys, "get"); got != 100 {
		t.Errorf("count = %d, want 100 (prologue jump missing?)", got)
	}
}

func TestCommitFuncAndRefs(t *testing.T) {
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "two.mvc", Text: `
		multiverse int a;
		multiverse int b;
		long r;
		multiverse void fa(void) { if (a) { r += 1; } }
		multiverse void fb(void) { if (b) { r += 10; } }
		void runBoth(void) { fa(); fb(); }
		long get(void) { return r; }
	`})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetSwitch("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetSwitch("b", 1); err != nil {
		t.Fatal(err)
	}
	// Commit only fa via commit_refs(&a).
	aAddr, _ := sys.RT.VarByName("a")
	if _, err := sys.RT.CommitRefs(aAddr); err != nil {
		t.Fatal(err)
	}
	// Flip both variables: fa is bound (a=1 behaviour), fb dynamic.
	if err := sys.SetSwitch("a", 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetSwitch("b", 0); err != nil {
		t.Fatal(err)
	}
	call(t, sys, "runBoth")
	if got := call(t, sys, "get"); got != 1 {
		t.Errorf("r = %d, want 1 (fa bound to a=1, fb dynamic with b=0)", got)
	}
	// RevertRefs(&a) unbinds fa again.
	if err := sys.RT.RevertRefs(aAddr); err != nil {
		t.Fatal(err)
	}
	call(t, sys, "runBoth")
	if got := call(t, sys, "get"); got != 1 {
		t.Errorf("r = %d after revert, want 1 (fa dynamic with a=0)", got)
	}

	// CommitFunc on fb only.
	fbAddr, ok := sys.RT.FuncByName("fb")
	if !ok {
		t.Fatal("fb not found")
	}
	if err := sys.SetSwitch("b", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RT.CommitFunc(fbAddr); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetSwitch("b", 0); err != nil {
		t.Fatal(err)
	}
	call(t, sys, "runBoth")
	if got := call(t, sys, "get"); got != 11 {
		t.Errorf("r = %d, want 11 (fb bound to b=1)", got)
	}
	// RevertFunc fb.
	if err := sys.RT.RevertFunc(fbAddr); err != nil {
		t.Fatal(err)
	}
	call(t, sys, "runBoth")
	if got := call(t, sys, "get"); got != 11 {
		t.Errorf("r = %d, want 11 (both dynamic, a=0, b=0)", got)
	}
}

func TestFunctionPointerSwitchCommit(t *testing.T) {
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "pv.mvc", Text: `
		long nativeCalls;
		long xenCalls;
		void native_sti(void) { nativeCalls++; }
		void xen_sti(void) { xenCalls++; }
		multiverse void (*pv_sti)(void);
		void irq_enable(void) { pv_sti(); }
		long natives(void) { return nativeCalls; }
		long xens(void) { return xenCalls; }
	`})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetFnPtr("pv_sti", "native_sti"); err != nil {
		t.Fatal(err)
	}
	// Uncommitted: indirect call works.
	call(t, sys, "irq_enable")
	if call(t, sys, "natives") != 1 {
		t.Fatal("indirect pvop call broken")
	}
	// Commit: the call site becomes a direct call.
	res, err := sys.RT.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 1 {
		t.Errorf("commit result = %+v", res)
	}
	// Flip the pointer WITHOUT commit: bound semantics keep calling
	// native_sti.
	if err := sys.SetFnPtr("pv_sti", "xen_sti"); err != nil {
		t.Fatal(err)
	}
	call(t, sys, "irq_enable")
	if call(t, sys, "natives") != 2 || call(t, sys, "xens") != 0 {
		t.Error("committed fnptr call site still indirect")
	}
	// Re-commit: now xen_sti.
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatal(err)
	}
	call(t, sys, "irq_enable")
	if call(t, sys, "xens") != 1 {
		t.Error("re-commit did not repoint the call site")
	}
	// Revert: indirect again, follows the pointer.
	if err := sys.RT.Revert(); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetFnPtr("pv_sti", "native_sti"); err != nil {
		t.Fatal(err)
	}
	call(t, sys, "irq_enable")
	if call(t, sys, "natives") != 3 {
		t.Error("revert did not restore the indirect call")
	}
}

func TestEmptyVariantErasesCallSite(t *testing.T) {
	sys := buildFig2(t)
	setAndCommit(t, sys, map[string]int64{"A": 0, "B": 0})
	if sys.RT.Stats.SitesInlined == 0 {
		t.Errorf("empty variant was not inlined: %+v", sys.RT.Stats)
	}
	// The erased call must still be erased after many calls, and
	// revert must restore it.
	for i := 0; i < 10; i++ {
		call(t, sys, "foo")
	}
	if call(t, sys, "calcs") != 0 {
		t.Error("erased call site executed something")
	}
}

func TestTinyBodyInliningSTI(t *testing.T) {
	// A variant that is just __sti() must be inlined into the call
	// site (the PV-Ops case of §6.1).
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "sti.mvc", Text: `
		multiverse int paravirt;
		multiverse void irq_enable(void) {
			if (paravirt) { __hcall(1); } else { __sti(); }
		}
		void kernelPath(void) { irq_enable(); }
	`})
	if err != nil {
		t.Fatal(err)
	}
	setAndCommit(t, sys, map[string]int64{"paravirt": 0})
	if sys.RT.Stats.SitesInlined != 1 {
		t.Errorf("sti variant not inlined: %+v", sys.RT.Stats)
	}
	call(t, sys, "kernelPath")
	if !sys.Machine.CPU.InterruptsEnabled() {
		t.Error("inlined sti did not execute")
	}
}

func TestGuardRangeNeverMatchesUnspecializedValue(t *testing.T) {
	// Domain {0, 4}: the values are not contiguous, so no single range
	// guard may cover them — a runtime value of 2 must fall back to
	// the generic.
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "gap.mvc", Text: `
		multiverse(0, 4) int mode;
		long r;
		multiverse void f(void) { if (mode == 0) { r = 100; } else { r = 200; } }
		void run(void) { f(); }
		long get(void) { return r; }
	`})
	if err != nil {
		t.Fatal(err)
	}
	// mode=4 and mode=0 both produce r=200/100; but mode=2 (not in the
	// domain) must not match a guard built from merging 0 and 4.
	if err := sys.SetSwitch("mode", 2); err != nil {
		t.Fatal(err)
	}
	res, err := sys.RT.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 0 {
		t.Errorf("value outside the domain matched a guard: %+v", res)
	}
	call(t, sys, "run")
	if got := call(t, sys, "get"); got != 200 {
		t.Errorf("generic result = %d, want 200", got)
	}
}

func TestTamperedCallSiteDetected(t *testing.T) {
	sys := buildFig2(t)
	// Corrupt the first recorded call site behind the runtime's back.
	fnAddr, _ := sys.RT.FuncByName("multi")
	if sys.RT.Sites(fnAddr) == 0 {
		t.Fatal("no call sites")
	}
	site := sys.RT.sites[fnAddr][0].desc.Addr
	if err := sys.Machine.Mem.WriteForce(site, []byte{0x01, 0x01, 0x01, 0x01, 0x01}); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetSwitch("A", 1); err != nil {
		t.Fatal(err)
	}
	_, err := sys.RT.Commit()
	if err == nil || !strings.Contains(err.Error(), "modified behind") {
		t.Errorf("tampered site not detected: %v", err)
	}
}

func TestVariantExplosionRejected(t *testing.T) {
	src := `
		multiverse(0,1,2,3,4,5,6,7) int a;
		multiverse(0,1,2,3,4,5,6,7) int b;
		multiverse(0,1,2,3,4,5,6,7) int c;
		multiverse void f(void) { if (a + b + c) { } }
	`
	_, _, err := BuildImage(GenOptions{}, Source{Name: "boom.mvc", Text: src})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("variant explosion not rejected: %v", err)
	}
	// Partial specialization, multiverse(bind(a)), rescues it.
	bound := strings.Replace(src, "multiverse void f", "multiverse(bind(a)) void f", 1)
	_, rep, err := BuildImage(GenOptions{}, Source{Name: "ok.mvc", Text: bound})
	if err != nil {
		t.Fatalf("bind subset failed: %v", err)
	}
	if rep.Functions[0].RawVariants != 8 {
		t.Errorf("bound variants = %d, want 8", rep.Functions[0].RawVariants)
	}
}

// TestWriteWarning: a write to a bound switch is warned once per write
// site, not once per assignment (two sites, 16 assignments).
func TestWriteWarning(t *testing.T) {
	_, rep, err := BuildImage(GenOptions{}, Source{Name: "warn.mvc", Text: writeSrc})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`warn.mvc:5:60: write to bound configuration switch "A" in specialized variant`,
		`warn.mvc:5:66: write to bound configuration switch "B" in specialized variant`,
	}
	if !slices.Equal(rep.Warnings, want) {
		t.Errorf("warnings = %q, want %q", rep.Warnings, want)
	}
}

func TestKernelPlatformPatchesThroughRX(t *testing.T) {
	img, _, err := BuildImage(GenOptions{}, Source{Name: "fig2.mvc", Text: figure2Src})
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(img)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(img, &KernelPlatform{UserPlatform{M: m}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteGlobal("A", 4, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteGlobal("B", 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Commit(); err != nil {
		t.Fatalf("kernel-mode commit failed: %v", err)
	}
	if _, err := m.CallNamed("foo"); err != nil {
		t.Fatal(err)
	}
	got, err := m.CallNamed("logs")
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("logs = %d", got)
	}
}

func TestWXSafePatching(t *testing.T) {
	img, _, err := BuildImage(GenOptions{}, Source{Name: "fig2.mvc", Text: figure2Src})
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(img, machine.WithWX())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(img, &UserPlatform{M: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteGlobal("A", 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Commit(); err != nil {
		t.Fatalf("W^X commit failed: %v", err)
	}
	// Text must be back to r-x (not writable) after patching.
	addr, _ := rt.FuncByName("multi")
	prot, _ := m.Mem.ProtOf(addr)
	if prot.String() != "r-x" {
		t.Errorf("text prot after commit = %v", prot)
	}
}

// TestCommitIdempotent: in every commit mode, a second commit with
// unchanged switch values patches, restores and flushes nothing.
func TestCommitIdempotent(t *testing.T) {
	for _, mode := range []CommitMode{ModeParked, ModeStopMachine, ModeTextPoke} {
		t.Run(mode.String(), func(t *testing.T) {
			sys := buildFig2(t)
			sys.RT.SetCommitOptions(CommitOptions{Mode: mode})
			setAndCommit(t, sys, map[string]int64{"A": 1, "B": 1})
			stats, mem := sys.RT.Stats, sys.Machine.Mem.Stats
			if _, err := sys.RT.Commit(); err != nil {
				t.Fatal(err)
			}
			s := sys.RT.Stats
			if s.SitesPatched != stats.SitesPatched || s.SitesInlined != stats.SitesInlined ||
				s.SitesReverted != stats.SitesReverted || s.ProloguePatch != stats.ProloguePatch {
				t.Errorf("idempotent commit moved site counters:\nbefore %+v\nafter  %+v", stats, s)
			}
			if got := sys.Machine.Mem.Stats; got != mem {
				t.Errorf("idempotent commit moved memory counters: %+v -> %+v", mem, got)
			}
		})
	}
}

// TestRuntimeAPIErrors: an entry point handed an address that names no
// function or switch fails before it counts, traces or times anything.
func TestRuntimeAPIErrors(t *testing.T) {
	sys := buildFig2(t)
	Observers{Metrics: metrics.New()}.Attach(sys.Machine, sys.RT)
	mm := sys.RT.metrics
	var events strings.Builder
	sys.RT.Tracer = &eventLog{sym: symbolizer(sys), out: &events}
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"CommitFunc", func() error { _, err := sys.RT.CommitFunc(0xdead); return err }},
		{"RevertFunc", func() error { return sys.RT.RevertFunc(0xdead) }},
		{"CommitRefs", func() error { _, err := sys.RT.CommitRefs(0x1234); return err }},
		{"RevertRefs", func() error { return sys.RT.RevertRefs(0x1234) }},
	} {
		stats := sys.RT.Stats
		if err := c.call(); err == nil {
			t.Errorf("%s on a random address succeeded", c.name)
		}
		if sys.RT.Stats != stats {
			t.Errorf("%s on a random address moved Stats: %+v -> %+v", c.name, stats, sys.RT.Stats)
		}
		if events.Len() != 0 {
			t.Errorf("%s on a random address traced:\n%s", c.name, events.String())
			events.Reset()
		}
		if n := mm.commitLatency.Snapshot().Count; n != 0 {
			t.Errorf("%s on a random address observed %d commit latencies", c.name, n)
		}
	}
	if err := sys.SetSwitch("nope", 1); err == nil {
		t.Error("SetSwitch on unknown switch succeeded")
	}
}

func TestDescriptorsDecoded(t *testing.T) {
	sys := buildFig2(t)
	if len(sys.RT.Vars()) != 2 {
		t.Errorf("vars = %+v", sys.RT.Vars())
	}
	names := map[string]bool{}
	for _, v := range sys.RT.Vars() {
		names[v.Name] = true
		if v.Width != 4 || !v.Signed || v.FnPtr {
			t.Errorf("descriptor %+v", v)
		}
	}
	if !names["A"] || !names["B"] {
		t.Errorf("names = %v", names)
	}
	fnAddr, ok := sys.RT.FuncByName("multi")
	if !ok || fnAddr == 0 {
		t.Error("multi descriptor missing")
	}
	if sys.RT.Sites(fnAddr) != 1 {
		t.Errorf("call sites = %d, want 1", sys.RT.Sites(fnAddr))
	}
}
