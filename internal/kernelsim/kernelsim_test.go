package kernelsim

import (
	"testing"

	"repro/internal/core"
)

func quick() MeasureOpts { return MeasureOpts{Samples: 20, Iters: 50, Warmup: 2} }

// --- Figure 1 ---

func fig1Cell(t *testing.T, b Fig1Binding, smp bool) float64 {
	t.Helper()
	sys, err := BuildFig1(b, smp)
	if err != nil {
		t.Fatalf("build %v smp=%v: %v", b, smp, err)
	}
	res, err := sys.Measure(quick())
	if err != nil {
		t.Fatalf("measure %v smp=%v: %v", b, smp, err)
	}
	if res.Mean <= 0 {
		t.Fatalf("%v smp=%v: non-positive mean %v", b, smp, res)
	}
	return res.Mean
}

func TestFig1ShapeUP(t *testing.T) {
	a := fig1Cell(t, Fig1Static, false)
	b := fig1Cell(t, Fig1Dynamic, false)
	c := fig1Cell(t, Fig1Multiverse, false)
	// Paper: A (6.64) < C (7.48) < B (9.75) in the UP case.
	if !(a < c) {
		t.Errorf("static (%.2f) should beat multiverse (%.2f)", a, c)
	}
	if !(c < b) {
		t.Errorf("multiverse (%.2f) should beat dynamic if (%.2f)", c, b)
	}
}

func TestFig1ShapeSMP(t *testing.T) {
	a := fig1Cell(t, Fig1Static, true)
	b := fig1Cell(t, Fig1Dynamic, true)
	c := fig1Cell(t, Fig1Multiverse, true)
	up := fig1Cell(t, Fig1Multiverse, false)
	// Paper: all three within a whisker of each other under SMP
	// (28.82 / 28.91 / 28.86), and far above the UP numbers.
	rel := func(x, y float64) float64 {
		d := x - y
		if d < 0 {
			d = -d
		}
		return d / y
	}
	// The in-order cost model exposes call/frame overhead an OoO core
	// hides, so "virtually equal" (paper: 28.82/28.91/28.86) becomes
	// "within ~45% with the same ordering" here; the defining property
	// is that the SMP cells tower over every UP cell.
	if rel(b, a) > 0.45 || rel(c, a) > 0.45 {
		t.Errorf("SMP variants diverge: A=%.2f B=%.2f C=%.2f", a, b, c)
	}
	if !(a <= c && c <= b) {
		t.Errorf("SMP ordering should stay A <= C <= B: A=%.2f C=%.2f B=%.2f", a, c, b)
	}
	if a < 1.5*up {
		t.Errorf("SMP (%.2f) should dwarf UP (%.2f)", a, up)
	}
}

func TestFig1ColdBTBPenalizesDynamic(t *testing.T) {
	dyn, err := BuildFig1(Fig1Dynamic, false)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := BuildFig1(Fig1Multiverse, false)
	if err != nil {
		t.Fatal(err)
	}
	o := quick()
	dynWarm, err := dyn.Measure(o)
	if err != nil {
		t.Fatal(err)
	}
	dynCold, err := dyn.MeasureColdBTB(o)
	if err != nil {
		t.Fatal(err)
	}
	mvCold, err := mv.MeasureColdBTB(o)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's §1 argument: with a cold BTB the dynamic check's
	// branch mispredicts, adding 15-20 cycles the multiversed variant
	// does not pay at that decision point.
	if dynCold.Mean <= dynWarm.Mean {
		t.Errorf("cold BTB (%.2f) not worse than warm (%.2f)", dynCold.Mean, dynWarm.Mean)
	}
	if dynCold.Mean <= mvCold.Mean {
		t.Errorf("dynamic cold (%.2f) should exceed multiverse cold (%.2f)", dynCold.Mean, mvCold.Mean)
	}
}

// --- Figure 4 left: spinlocks ---

func spinCell(t *testing.T, k SpinKernel, smp bool) float64 {
	t.Helper()
	s, err := BuildSpin(k)
	if err != nil {
		t.Fatalf("build %v: %v", k, err)
	}
	if err := s.SetSMP(smp); err != nil {
		t.Fatalf("SetSMP(%v) on %v: %v", smp, k, err)
	}
	res, err := s.Measure(quick())
	if err != nil {
		t.Fatalf("measure %v: %v", k, err)
	}
	return res.Mean
}

func TestFig4SpinlockUnicoreShape(t *testing.T) {
	mainline := spinCell(t, SpinMainline, false)
	ifel := spinCell(t, SpinIf, false)
	mv := spinCell(t, SpinMultiverse, false)
	static := spinCell(t, SpinStaticUP, false)
	// Paper: static < multiverse < if < mainline; multiverse roughly
	// twice as fast as mainline.
	if !(static < mv && mv < ifel && ifel < mainline) {
		t.Errorf("unicore order wrong: static=%.1f mv=%.1f if=%.1f mainline=%.1f",
			static, mv, ifel, mainline)
	}
	if mainline < 1.5*mv {
		t.Errorf("multiverse (%.1f) should be ~2x faster than mainline (%.1f)", mv, mainline)
	}
}

func TestFig4SpinlockMulticoreShape(t *testing.T) {
	mainline := spinCell(t, SpinMainline, true)
	ifel := spinCell(t, SpinIf, true)
	mv := spinCell(t, SpinMultiverse, true)
	rel := func(x float64) float64 {
		d := x - mainline
		if d < 0 {
			d = -d
		}
		return d / mainline
	}
	if rel(ifel) > 0.25 || rel(mv) > 0.25 {
		t.Errorf("multicore variants diverge: mainline=%.1f if=%.1f mv=%.1f", mainline, ifel, mv)
	}
}

func TestSpinlockKernelsBehaveCorrectly(t *testing.T) {
	for _, k := range []SpinKernel{SpinMainline, SpinIf, SpinMultiverse} {
		s, err := BuildSpin(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetSMP(true); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Measure(MeasureOpts{Samples: 2, Iters: 10, Warmup: 0}); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		// Lock must end unlocked, preemption balanced.
		lw, err := s.LockWord()
		if err != nil {
			t.Fatal(err)
		}
		if lw != 0 {
			t.Errorf("%v: lock word = %d after balanced lock/unlock", k, lw)
		}
		pc, err := s.PreemptCount()
		if err != nil {
			t.Fatal(err)
		}
		if pc != 0 {
			t.Errorf("%v: preempt count = %d", k, pc)
		}
	}
}

func TestSpinMultiverseHotplugCycle(t *testing.T) {
	// UP -> SMP -> UP, as in the cloud-CPU-hotplug story of §1.
	s, err := BuildSpin(SpinMultiverse)
	if err != nil {
		t.Fatal(err)
	}
	o := quick()
	if err := s.SetSMP(false); err != nil {
		t.Fatal(err)
	}
	up1, err := s.Measure(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetSMP(true); err != nil {
		t.Fatal(err)
	}
	smp, err := s.Measure(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetSMP(false); err != nil {
		t.Fatal(err)
	}
	up2, err := s.Measure(o)
	if err != nil {
		t.Fatal(err)
	}
	if smp.Mean < 1.3*up1.Mean {
		t.Errorf("SMP commit had no cost effect: up=%.1f smp=%.1f", up1.Mean, smp.Mean)
	}
	if diff := up2.Mean - up1.Mean; diff > 1 || diff < -1 {
		t.Errorf("hotplug cycle not reversible: %.2f vs %.2f", up1.Mean, up2.Mean)
	}
	if err := s.SetSMP(true); err != nil {
		t.Fatal(err)
	}
}

func TestStaticUPCannotGoSMP(t *testing.T) {
	s, err := BuildSpin(SpinStaticUP)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetSMP(true); err == nil {
		t.Error("UP-only kernel accepted SMP mode")
	}
}

// --- Figure 4 right: PV-Ops ---

func pvCell(t *testing.T, k PVKernel, env PVEnv) float64 {
	t.Helper()
	p, err := BuildPV(k, env)
	if err != nil {
		t.Fatalf("build %v/%v: %v", k, env, err)
	}
	res, err := p.Measure(quick())
	if err != nil {
		t.Fatalf("measure %v/%v: %v", k, env, err)
	}
	return res.Mean
}

func TestFig4PVOpsNativeShape(t *testing.T) {
	cur := pvCell(t, PVCurrent, EnvNative)
	mv := pvCell(t, PVMultiverse, EnvNative)
	off := pvCell(t, PVDisabled, EnvNative)
	// Paper: all three perform similarly on bare metal because both
	// patching mechanisms inline the single sti/cli instruction.
	max := cur
	if mv > max {
		max = mv
	}
	if off > max {
		max = off
	}
	min := cur
	if mv < min {
		min = mv
	}
	if off < min {
		min = off
	}
	if max-min > 0.35*max {
		t.Errorf("native kernels diverge: current=%.2f mv=%.2f ifdef=%.2f", cur, mv, off)
	}
}

func TestFig4PVOpsXenShape(t *testing.T) {
	cur := pvCell(t, PVCurrent, EnvXen)
	mv := pvCell(t, PVMultiverse, EnvXen)
	// Paper: the multiversed kernel beats the current mechanism in the
	// guest because of the custom calling convention's save/restore
	// overhead.
	if mv >= cur {
		t.Errorf("multiverse (%.2f) should beat current PV-Ops (%.2f) in the guest", mv, cur)
	}
	native := pvCell(t, PVMultiverse, EnvNative)
	if cur <= native {
		t.Errorf("guest (%.2f) should cost more than native (%.2f)", cur, native)
	}
}

func TestPVOpsGuestUsesHypercalls(t *testing.T) {
	p, err := BuildPV(PVMultiverse, EnvXen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Measure(MeasureOpts{Samples: 1, Iters: 10, Warmup: 0}); err != nil {
		t.Fatal(err)
	}
	if p.Xen.Hypercalls == 0 {
		t.Error("guest kernel issued no hypercalls")
	}
	// Virtual interrupt flag must be consistent (last op disables).
	if p.System().Machine.CPU.InterruptsEnabled() {
		t.Error("interrupts enabled after trailing cli")
	}
}

func TestPVDisabledRefusesXen(t *testing.T) {
	if _, err := BuildPV(PVDisabled, EnvXen); err == nil {
		t.Error("paravirt-less kernel booted as Xen guest")
	}
}

func TestPVCurrentInlinesNatives(t *testing.T) {
	p, err := BuildPV(PVCurrent, EnvNative)
	if err != nil {
		t.Fatal(err)
	}
	if p.Runtime().Stats.SitesInlined == 0 {
		t.Error("native pvops were not inlined at their call sites")
	}
}

// --- E7: many call sites ---

func TestManyCallSitesPatching(t *testing.T) {
	sys, err := BuildManyCallSites(200)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := TimeCommit(sys, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CallSites != 200 {
		t.Errorf("call sites = %d, want 200", rep.CallSites)
	}
	if rep.SitesTouched != 200 {
		t.Errorf("sites touched = %d, want 200", rep.SitesTouched)
	}
	// Sanity: the kernel still works after mass patching.
	if _, err := sys.Machine.CallNamed("subsys_0"); err != nil {
		t.Fatal(err)
	}
	lw, err := sys.Machine.ReadGlobal("lock_word", 8)
	if err != nil {
		t.Fatal(err)
	}
	if lw != 0 {
		t.Error("lock held after subsys call")
	}
	// Repatch to UP and verify reconfiguration took effect.
	rep2, err := TimeCommit(sys, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.SitesTouched != 200 {
		t.Errorf("UP repatch touched %d sites", rep2.SitesTouched)
	}
}

// TestCommitAllocsIndependentOfSites pins a commit's per-site work as
// allocation-free: a config_smp flip plus Commit, and a Revert plus
// Commit, allocate as often on BuildManyCallSites(100) as on
// BuildManyCallSites(PaperCallSites), in every commit mode. A guest
// call first halts the CPU, as it is between the reconfigure
// workload's operations.
func TestCommitAllocsIndependentOfSites(t *testing.T) {
	// The Go runtime allocates now and then on its own: a GC cycle's
	// bookkeeping, and each interface type assertion's cache, built
	// once at a random call. AllocsPerRun floors the per-run mean, so
	// with 32 runs those few strays cannot move it; an allocation per
	// run still does.
	const runs = 32
	measure := func(n int, mode core.CommitMode) (flip, revert float64) {
		sys, err := BuildManyCallSites(n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Machine.CallNamed("subsys_0"); err != nil {
			t.Fatal(err)
		}
		sys.RT.SetCommitOptions(core.CommitOptions{Mode: mode})
		smp := int64(0)
		flip = testing.AllocsPerRun(runs, func() {
			smp = 1 - smp
			if err := sys.SetSwitch("config_smp", smp); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.RT.Commit(); err != nil {
				t.Fatal(err)
			}
		})
		revert = testing.AllocsPerRun(runs, func() {
			if err := sys.RT.Revert(); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.RT.Commit(); err != nil {
				t.Fatal(err)
			}
		})
		return flip, revert
	}
	for _, mode := range []core.CommitMode{core.ModeParked, core.ModeStopMachine, core.ModeTextPoke} {
		smallFlip, smallRevert := measure(100, mode)
		bigFlip, bigRevert := measure(PaperCallSites, mode)
		if smallFlip != bigFlip {
			t.Errorf("%v: flip+commit allocates %v times for n=100, %v for n=%d",
				mode, smallFlip, bigFlip, PaperCallSites)
		}
		if smallRevert != bigRevert {
			t.Errorf("%v: revert+commit allocates %v times for n=100, %v for n=%d",
				mode, smallRevert, bigRevert, PaperCallSites)
		}
	}
}

// --- §7.5: measurement validity under interrupt perturbation ---

func TestOutlierFilteringAbsorbsInterrupts(t *testing.T) {
	// The paper observed rare outliers "presumably attributable to the
	// occurrence of processor interrupts during measurement" and
	// excluded them. Reproduce the situation: enable asynchronous
	// interrupt perturbation, measure, and check that the filtered
	// mean stays near the quiet mean while the raw maximum spikes.
	quiet, err := BuildFig1(Fig1Multiverse, false)
	if err != nil {
		t.Fatal(err)
	}
	qres, err := quiet.Measure(MeasureOpts{Samples: 200, Iters: 20, Warmup: 2})
	if err != nil {
		t.Fatal(err)
	}

	noisy, err := BuildFig1(Fig1Multiverse, false)
	if err != nil {
		t.Fatal(err)
	}
	// One interrupt roughly every 40 samples' worth of cycles: rare
	// spikes, like timer ticks during a microbenchmark.
	noisy.sys.Machine.CPU.SetInterruptPerturbation(40_000, 3_000)
	// The fig1 loop runs with interrupts toggled by lock_release's sti.
	nres, err := noisy.Measure(MeasureOpts{Samples: 200, Iters: 20, Warmup: 2})
	if err != nil {
		t.Fatal(err)
	}
	if noisy.sys.Machine.CPU.Stats().Interrupts == 0 {
		t.Skip("no interrupts fired during measurement window")
	}
	// The spikes must be visible in the raw max but mostly filtered
	// from the mean.
	if nres.Max <= qres.Max {
		t.Errorf("no interrupt spike visible: noisy max %.1f <= quiet max %.1f", nres.Max, qres.Max)
	}
	if nres.Mean > qres.Mean*1.25 {
		t.Errorf("filtered mean drifted: %.2f vs quiet %.2f", nres.Mean, qres.Mean)
	}
}

// --- E10: alternative() macros vs multiverse ---

func TestAlternativeVsMultiverseBehaviour(t *testing.T) {
	for _, k := range []AltKernel{AltMacro, AltMultiverse} {
		for _, feature := range []bool{false, true} {
			a, err := BuildAlt(k, feature)
			if err != nil {
				t.Fatalf("%v feature=%v: %v", k, feature, err)
			}
			if _, err := a.Measure(MeasureOpts{Samples: 2, Iters: 50, Warmup: 0}); err != nil {
				t.Fatal(err)
			}
			ev, err := a.Events()
			if err != nil {
				t.Fatal(err)
			}
			if feature && ev == 0 {
				t.Errorf("%v: feature on but no events", k)
			}
			if !feature && ev != 0 {
				t.Errorf("%v: feature patched out but %d events fired", k, ev)
			}
		}
	}
}

func TestAlternativeVsMultiversePerformance(t *testing.T) {
	// The unification claim: multiverse matches the special-purpose
	// mechanism without its hand-maintained metadata.
	o := quick()
	cell := func(k AltKernel, feature bool) float64 {
		a, err := BuildAlt(k, feature)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Measure(o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Mean
	}
	offAlt := cell(AltMacro, false)
	offMV := cell(AltMultiverse, false)
	onAlt := cell(AltMacro, true)
	onMV := cell(AltMultiverse, true)
	near := func(a, b float64) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		return d <= 2.0
	}
	if !near(offAlt, offMV) {
		t.Errorf("feature off: alternative %.2f vs multiverse %.2f", offAlt, offMV)
	}
	if !near(onAlt, onMV) {
		t.Errorf("feature on: alternative %.2f vs multiverse %.2f", onAlt, onMV)
	}
	// Patching the feature out must actually help.
	if offAlt >= onAlt {
		t.Errorf("NOP patching did not help: off %.2f, on %.2f", offAlt, onAlt)
	}
}

func TestAlternativeScanFindsSites(t *testing.T) {
	a, err := BuildAlt(AltMacro, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sites) != 1 {
		t.Errorf("sites = %d, want 1", len(a.Sites))
	}
}

func TestLabelStrings(t *testing.T) {
	cases := map[string]string{
		Fig1Static.String():     "A static (#ifdef)",
		Fig1Dynamic.String():    "B dynamic (if)",
		Fig1Multiverse.String(): "C multiverse",
		SpinMainline.String():   "No Lock Elision",
		SpinIf.String():         "Lock Elision [if]",
		SpinMultiverse.String(): "Lock Elision [multiverse]",
		SpinStaticUP.String():   "Lock Elision [ifdef Off]",
		PVCurrent.String():      "PV-Op Patching [current]",
		PVMultiverse.String():   "PV-Op Patching [multiverse]",
		PVDisabled.String():     "PV-OP Disabled [ifdef]",
		EnvNative.String():      "Native",
		EnvXen.String():         "XEN (guest)",
		AltMacro.String():       "alternative macro",
		AltMultiverse.String():  "multiverse",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("label %q != %q", got, want)
		}
	}
	if Fig1Binding(99).String() != "?" || SpinKernel(99).String() != "?" ||
		PVKernel(99).String() != "?" {
		t.Error("unknown labels should render '?'")
	}
}

func TestAccessorsNonNil(t *testing.T) {
	s, err := BuildSpin(SpinMultiverse)
	if err != nil {
		t.Fatal(err)
	}
	if s.Runtime() == nil || s.System() == nil {
		t.Error("spin accessors nil")
	}
	a, err := BuildAlt(AltMultiverse, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.System() == nil {
		t.Error("alt accessor nil")
	}
	if n, err := BuildManyCallSites(1); err == nil || n != nil {
		t.Error("BuildManyCallSites(1) should fail")
	}
}
