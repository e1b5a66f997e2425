package difftest

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/faultinject"
	"repro/internal/kernelsim"
	"repro/internal/machine"
	"repro/internal/muslsim"
)

// The fault injector is a host-side instrument: attaching a plan whose
// points never fire must not change a single simulated cycle. These
// tests run each workload in three arms and require the bench.Result
// structs (mean, std, min, max, sample and drop counts) bit-identical
// across them:
//
//   - bare, with no injector;
//   - inert, with an empty plan attached. It arms no fetch fault, so
//     Run keeps to superblocks exactly as in the bare arm;
//   - step, with a plan arming on every CPU a fetch fault that never
//     fires. An armed fetch fault is the one thing that holds Run and
//     RunUntil to single steps (it is consulted before every fetch),
//     so this arm is the end-to-end comparison of Step against the
//     superblock interpreter: blocks and single steps run the same
//     handlers, and chaining, budget clamping, batched statistics and
//     the shared epilogue must not move a cycle across the E1 kernels
//     (commits, icache flushes, BRK text pokes, SMP) and E4.
//
// Together with the unit tests this pins the acceptance property that
// un-instrumented runs are unperturbed: the hooks are nil-checked on
// the hot paths and the retry/backoff machinery only advances cycles
// after a fault fires.

// arm is one way to run a workload in the comparisons.
type arm int

const (
	armBare arm = iota
	armInert
	armStep
)

var arms = []arm{armBare, armInert, armStep}

func (a arm) String() string { return [...]string{"bare", "inert", "step"}[a] }

// attach wires the arm's plan, if any, into m.
func (a arm) attach(m *machine.Machine) {
	switch a {
	case armInert:
		faultinject.Exact().Attach(m)
	case armStep:
		// No run reaches cycle MaxUint64, so these points never fire.
		var pts []faultinject.Point
		for i := range m.CPUs() {
			pts = append(pts, faultinject.Point{Kind: faultinject.KindFetchFault, CPU: i, Cycle: math.MaxUint64})
		}
		faultinject.Exact(pts...).Attach(m)
	}
}

// checkDispatch requires the step arm to have run no instruction in a
// block and the other two to have run some.
func (a arm) checkDispatch(t *testing.T, s cpu.Stats, what string) {
	t.Helper()
	if blocks := s.BlockInsts > 0; blocks != (a != armStep) {
		t.Errorf("%s, %v arm: %d of %d instructions ran in blocks", what, a, s.BlockInsts, s.Instructions)
	}
}

// smpLabel names a measurement's UP/SMP configuration.
var smpLabel = map[bool]string{false: "up", true: "smp"}

// compareArms measures the workload in every arm and reports each
// measurement that differs between the bare arm and another.
func compareArms(t *testing.T, measure func(a arm) map[string]bench.Result) {
	t.Helper()
	bare := measure(armBare)
	for _, a := range arms[1:] {
		other := measure(a)
		if len(bare) == 0 || len(bare) != len(other) {
			t.Fatalf("%v arm: measured %d/%d cells", a, len(bare), len(other))
		}
		for k, r := range bare {
			if r != other[k] {
				t.Errorf("%s: results differ in the %v arm:\nbare: %+v\n%v: %+v", k, a, r, a, other[k])
			}
		}
	}
}

func TestSuperblockInvarianceFig1(t *testing.T) {
	opts := kernelsim.MeasureOpts{Samples: 10, Iters: 30, Warmup: 2}
	compareArms(t, func(a arm) map[string]bench.Result {
		out := make(map[string]bench.Result)
		for _, b := range []kernelsim.Fig1Binding{
			kernelsim.Fig1Static, kernelsim.Fig1Dynamic, kernelsim.Fig1Multiverse,
		} {
			for _, smp := range []bool{false, true} {
				sys, err := kernelsim.BuildFig1(b, smp)
				if err != nil {
					t.Fatalf("BuildFig1(%v, %v): %v", b, smp, err)
				}
				a.attach(sys.System().Machine)
				r, err := sys.Measure(opts)
				if err != nil {
					t.Fatalf("Measure(%v, %v): %v", b, smp, err)
				}
				key := b.String() + "/" + smpLabel[smp]
				a.checkDispatch(t, sys.System().Machine.TotalStats(), key)
				out[key] = r
			}
		}
		return out
	})
}

func TestFaultInjectorInvarianceSpin(t *testing.T) {
	opts := kernelsim.MeasureOpts{Samples: 10, Iters: 30, Warmup: 2}
	compareArms(t, func(a arm) map[string]bench.Result {
		out := make(map[string]bench.Result)
		for _, smp := range []bool{false, true} {
			s, err := kernelsim.BuildSpin(kernelsim.SpinMultiverse)
			if err != nil {
				t.Fatalf("BuildSpin: %v", err)
			}
			a.attach(s.System().Machine)
			if err := s.SetSMP(smp); err != nil {
				t.Fatalf("SetSMP(%v): %v", smp, err)
			}
			r, err := s.Measure(opts)
			if err != nil {
				t.Fatalf("Measure(smp=%v): %v", smp, err)
			}
			a.checkDispatch(t, s.System().Machine.TotalStats(), smpLabel[smp])
			out[smpLabel[smp]] = r
		}
		return out
	})
}

// measureMusl measures every muslsim.Funcs() entry on each build in
// the given arm.
func measureMusl(t *testing.T, builds []muslsim.Build, samples int, iters uint64) func(a arm) map[string]bench.Result {
	return func(a arm) map[string]bench.Result {
		t.Helper()
		out := make(map[string]bench.Result)
		for _, build := range builds {
			m, err := muslsim.BuildMusl(build)
			if err != nil {
				t.Fatalf("BuildMusl(%v): %v", build, err)
			}
			a.attach(m.System().Machine)
			if err := m.SetThreads(false); err != nil {
				t.Fatalf("SetThreads: %v", err)
			}
			for _, f := range muslsim.Funcs() {
				r, err := m.Measure(f, samples, iters)
				if err != nil {
					t.Fatalf("Measure(%v): %v", f, err)
				}
				out[build.String()+"/"+f.String()] = r
			}
			a.checkDispatch(t, m.System().Machine.TotalStats(), build.String())
		}
		return out
	}
}

func TestSuperblockInvarianceMusl(t *testing.T) {
	compareArms(t, measureMusl(t, []muslsim.Build{muslsim.Plain, muslsim.Multiverse}, 8, 20))
}

func TestFaultInjectorInvarianceMusl(t *testing.T) {
	compareArms(t, measureMusl(t, []muslsim.Build{muslsim.Multiverse}, 6, 40))
}

// TestSuperblockArchStatsInvariance pins the statistics of the E1
// workload across the arms: the inert arm's, host-side counters
// included, equal the bare arm's; the step arm's architectural
// statistics — instruction, branch, load/store, mispredict, interrupt
// and trap counts — do too. Host-side accelerator stats (Decode*,
// Block*) legitimately differ between the two dispatch strategies and
// are zeroed before that comparison.
func TestSuperblockArchStatsInvariance(t *testing.T) {
	stats := func(a arm) cpu.Stats {
		sys, err := kernelsim.BuildFig1(kernelsim.Fig1Multiverse, true)
		if err != nil {
			t.Fatal(err)
		}
		a.attach(sys.System().Machine)
		if _, err := sys.Measure(kernelsim.MeasureOpts{Samples: 5, Iters: 20, Warmup: 1}); err != nil {
			t.Fatal(err)
		}
		s := sys.System().Machine.TotalStats()
		a.checkDispatch(t, s, "e1")
		return s
	}
	bare, inert, step := stats(armBare), stats(armInert), stats(armStep)
	if bare != inert {
		t.Errorf("stats differ with an inert plan attached:\nbare:  %+v\ninert: %+v", bare, inert)
	}
	for _, s := range []*cpu.Stats{&bare, &step} {
		s.DecodeHits, s.DecodeMisses = 0, 0
		s.BlockBuilds, s.BlockHits, s.BlockInsts, s.BlockInvalidates = 0, 0, 0, 0
	}
	if bare != step {
		t.Errorf("architectural stats differ on single steps:\nbare: %+v\nstep: %+v", bare, step)
	}
}

// An exhausted plan (every point already fired) must be as invisible
// as an empty one: the firing bookkeeping lives outside the cycle
// model.
func TestExhaustedPlanIsInert(t *testing.T) {
	opts := kernelsim.MeasureOpts{Samples: 6, Iters: 20, Warmup: 1}

	s, err := kernelsim.BuildSpin(kernelsim.SpinMultiverse)
	if err != nil {
		t.Fatalf("BuildSpin: %v", err)
	}
	if err := s.SetSMP(true); err != nil {
		t.Fatalf("SetSMP(true): %v", err)
	}
	if err := s.SetSMP(false); err != nil {
		t.Fatalf("SetSMP(false): %v", err)
	}
	base, err := s.Measure(opts)
	if err != nil {
		t.Fatalf("baseline Measure: %v", err)
	}

	s2, err := kernelsim.BuildSpin(kernelsim.SpinMultiverse)
	if err != nil {
		t.Fatalf("BuildSpin: %v", err)
	}
	plan := faultinject.Exact(faultinject.Point{Kind: faultinject.KindProtect, Op: 0, Transient: true})
	plan.Attach(s2.System().Machine)
	// The transient fault fires during the first commit's first protect
	// flip and is retried transparently; the commit still succeeds and
	// the plan is spent.
	if err := s2.SetSMP(true); err != nil {
		t.Fatalf("commit with armed transient protect fault: %v", err)
	}
	if plan.Remaining() != 0 {
		t.Fatal("transient protect fault never fired")
	}
	if err := s2.SetSMP(false); err != nil {
		t.Fatalf("re-commit after exhausting the plan: %v", err)
	}
	got, err := s2.Measure(opts)
	if err != nil {
		t.Fatalf("Measure with exhausted plan: %v", err)
	}
	if got != base {
		t.Errorf("results differ with exhausted plan attached:\nbare:      %+v\nexhausted: %+v", base, got)
	}
	armInert.checkDispatch(t, s2.System().Machine.TotalStats(), "exhausted plan")
}
