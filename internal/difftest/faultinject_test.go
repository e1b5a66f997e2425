package difftest

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/faultinject"
	"repro/internal/kernelsim"
	"repro/internal/muslsim"
)

// The fault injector is a host-side instrument: attaching a plan whose
// points never fire must not change a single simulated cycle. An
// attached injector is also the one thing that holds Run and RunUntil
// to single steps (it is consulted before every fetch), so these tests
// are the end-to-end comparison of Step against the superblock
// interpreter too: blocks and single steps run the same handlers, and
// chaining, budget clamping, batched statistics and the shared
// epilogue must not move a cycle across the E1 kernels (commits, icache
// flushes, BRK text pokes, SMP) and E4. They run each workload with no
// injector and with an inert (empty) plan attached and require the
// bench.Result structs (mean, std, min, max, sample and drop counts)
// to be bit-identical. Together with the unit tests this pins the
// acceptance property that un-instrumented runs are unperturbed: the
// hooks are nil-checked on the hot paths and the retry/backoff
// machinery only advances cycles after a fault fires.

// smpLabel names a measurement's UP/SMP configuration.
var smpLabel = map[bool]string{false: "up", true: "smp"}

// compareInert reports every measurement that differs between the
// bare and inert-plan runs.
func compareInert(t *testing.T, bare, inert map[string]bench.Result) {
	t.Helper()
	if len(bare) == 0 || len(bare) != len(inert) {
		t.Fatalf("measured %d/%d cells", len(bare), len(inert))
	}
	for k, r := range bare {
		if r != inert[k] {
			t.Errorf("%s: results differ with inert injector attached:\nbare:  %+v\ninert: %+v",
				k, r, inert[k])
		}
	}
}

func TestSuperblockInvarianceFig1(t *testing.T) {
	opts := kernelsim.MeasureOpts{Samples: 10, Iters: 30, Warmup: 2}
	measure := func(attach bool) map[string]bench.Result {
		out := make(map[string]bench.Result)
		for _, b := range []kernelsim.Fig1Binding{
			kernelsim.Fig1Static, kernelsim.Fig1Dynamic, kernelsim.Fig1Multiverse,
		} {
			for _, smp := range []bool{false, true} {
				sys, err := kernelsim.BuildFig1(b, smp)
				if err != nil {
					t.Fatalf("BuildFig1(%v, %v): %v", b, smp, err)
				}
				if attach {
					faultinject.Exact().Attach(sys.System().Machine)
				}
				r, err := sys.Measure(opts)
				if err != nil {
					t.Fatalf("Measure(%v, %v): %v", b, smp, err)
				}
				out[b.String()+"/"+smpLabel[smp]] = r
			}
		}
		return out
	}
	compareInert(t, measure(false), measure(true))
}

func TestFaultInjectorInvarianceSpin(t *testing.T) {
	opts := kernelsim.MeasureOpts{Samples: 10, Iters: 30, Warmup: 2}
	measure := func(attach bool) map[string]bench.Result {
		out := make(map[string]bench.Result)
		for _, smp := range []bool{false, true} {
			s, err := kernelsim.BuildSpin(kernelsim.SpinMultiverse)
			if err != nil {
				t.Fatalf("BuildSpin: %v", err)
			}
			if attach {
				faultinject.Exact().Attach(s.System().Machine)
			}
			if err := s.SetSMP(smp); err != nil {
				t.Fatalf("SetSMP(%v): %v", smp, err)
			}
			r, err := s.Measure(opts)
			if err != nil {
				t.Fatalf("Measure(smp=%v): %v", smp, err)
			}
			out[smpLabel[smp]] = r
		}
		return out
	}
	compareInert(t, measure(false), measure(true))
}

// measureMusl measures every muslsim.Funcs() entry on each build, with
// an inert plan attached when attach is set.
func measureMusl(t *testing.T, builds []muslsim.Build, samples int, iters uint64, attach bool) map[string]bench.Result {
	t.Helper()
	out := make(map[string]bench.Result)
	for _, build := range builds {
		m, err := muslsim.BuildMusl(build)
		if err != nil {
			t.Fatalf("BuildMusl(%v): %v", build, err)
		}
		if attach {
			faultinject.Exact().Attach(m.System().Machine)
		}
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
	}
	return out
}

func TestSuperblockInvarianceMusl(t *testing.T) {
	builds := []muslsim.Build{muslsim.Plain, muslsim.Multiverse}
	compareInert(t, measureMusl(t, builds, 8, 20, false), measureMusl(t, builds, 8, 20, true))
}

func TestFaultInjectorInvarianceMusl(t *testing.T) {
	builds := []muslsim.Build{muslsim.Multiverse}
	compareInert(t, measureMusl(t, builds, 6, 40, false), measureMusl(t, builds, 6, 40, true))
}

// TestSuperblockArchStatsInvariance pins the architectural statistics
// — instruction, branch, load/store, mispredict, interrupt and trap
// counts — bit-identical through blocks and, with an inert plan
// attached, through Step, on the E1 workload. Host-side accelerator
// stats (Decode*, Block*) legitimately differ between the two dispatch
// strategies and are zeroed before comparison.
func TestSuperblockArchStatsInvariance(t *testing.T) {
	stats := func(attach bool) cpu.Stats {
		sys, err := kernelsim.BuildFig1(kernelsim.Fig1Multiverse, true)
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			faultinject.Exact().Attach(sys.System().Machine)
		}
		if _, err := sys.Measure(kernelsim.MeasureOpts{Samples: 5, Iters: 20, Warmup: 1}); err != nil {
			t.Fatal(err)
		}
		return sys.System().Machine.TotalStats()
	}
	bare, inert := stats(false), stats(true)
	if inert.BlockInsts != 0 {
		t.Errorf("%d instructions ran in blocks with an injector attached", inert.BlockInsts)
	}
	for _, s := range []*cpu.Stats{&bare, &inert} {
		s.DecodeHits, s.DecodeMisses = 0, 0
		s.BlockBuilds, s.BlockHits, s.BlockInsts, s.BlockInvalidates = 0, 0, 0, 0
	}
	if bare != inert {
		t.Errorf("architectural stats differ with an inert plan attached:\nbare:  %+v\ninert: %+v", bare, inert)
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
}
