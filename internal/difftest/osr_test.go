package difftest

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/kernelsim"
	"repro/internal/muslsim"
)

// ActiveOSR is a commit-time policy: when no function is active at
// commit time, the OSR machinery must never run and must never cost a
// simulated cycle. These tests run the E1 (spinlock kernel) and E4
// (musl libc) workloads with their commits issued under
// OnActive: ActiveOSR versus ActiveRefuse — the two policies differ
// only in what happens to an active function, and the CPUs are halted
// at every commit, so every bench.Result must be bit-identical. The
// cross with the fault-plan arms of faultinject_test.go (bare, an
// inert plan on blocks, and a plan arming an unreachable fetch fault,
// which holds the CPUs to single steps) guards the interaction between
// both interpreters and the OSR-instrumented commit path.

// osrPolicies are the two arms under comparison.
var osrPolicies = []struct {
	name string
	p    core.OnActivePolicy
}{
	{"refuse", core.ActiveRefuse},
	{"osr", core.ActiveOSR},
}

// requireUntriggered asserts that an ActiveOSR-configured runtime
// never exercised the OSR path: no transfers, no fallbacks, no
// deferrals. If this fires, the workload has an active frame at
// commit time and the parity comparison proves nothing.
func requireUntriggered(t *testing.T, rt *core.Runtime, what string) {
	t.Helper()
	s := rt.Stats
	if s.OSRTransfers != 0 || s.OSRFallbacks != 0 || s.DeferredPatches != 0 {
		t.Fatalf("%s: OSR triggered (transfers=%d fallbacks=%d deferred=%d); workload no longer commits quiescent",
			what, s.OSRTransfers, s.OSRFallbacks, s.DeferredPatches)
	}
}

func measureSpinE1(t *testing.T, p core.OnActivePolicy, check bool, a arm) map[string]bench.Result {
	t.Helper()
	opts := kernelsim.MeasureOpts{Samples: 10, Iters: 30, Warmup: 2}
	out := make(map[string]bench.Result)
	s, err := kernelsim.BuildSpin(kernelsim.SpinMultiverse)
	if err != nil {
		t.Fatal(err)
	}
	a.attach(s.System().Machine)
	s.Runtime().SetCommitOptions(core.CommitOptions{Mode: core.ModeStopMachine, OnActive: p})
	for _, smp := range []bool{false, true} {
		if err := s.SetSMP(smp); err != nil {
			t.Fatalf("SetSMP(%v): %v", smp, err)
		}
		r, err := s.Measure(opts)
		if err != nil {
			t.Fatalf("Measure(smp=%v): %v", smp, err)
		}
		out[map[bool]string{false: "up", true: "smp"}[smp]] = r
	}
	a.checkDispatch(t, s.System().Machine.TotalStats(), "e1")
	if check {
		requireUntriggered(t, s.Runtime(), "e1")
	}
	return out
}

func measureMuslE4(t *testing.T, p core.OnActivePolicy, check bool, a arm) map[string]bench.Result {
	t.Helper()
	const samples, iters = 8, 20
	out := make(map[string]bench.Result)
	m, err := muslsim.BuildMusl(muslsim.Multiverse)
	if err != nil {
		t.Fatal(err)
	}
	a.attach(m.System().Machine)
	m.System().RT.SetCommitOptions(core.CommitOptions{Mode: core.ModeStopMachine, OnActive: p})
	for _, multi := range []bool{false, true} {
		if err := m.SetThreads(multi); err != nil {
			t.Fatalf("SetThreads(%v): %v", multi, err)
		}
		for _, f := range muslsim.Funcs() {
			r, err := m.Measure(f, samples, iters)
			if err != nil {
				t.Fatalf("Measure(%v): %v", f, err)
			}
			out[map[bool]string{false: "st", true: "mt"}[multi]+"/"+f.String()] = r
		}
	}
	a.checkDispatch(t, m.System().Machine.TotalStats(), "e4")
	if check {
		requireUntriggered(t, m.System().RT, "e4")
	}
	return out
}

func comparePolicies(t *testing.T, measure func(t *testing.T, p core.OnActivePolicy, check bool, a arm) map[string]bench.Result) {
	t.Helper()
	for _, a := range arms {
		got := map[string]map[string]bench.Result{}
		for _, pol := range osrPolicies {
			got[pol.name] = measure(t, pol.p, pol.p == core.ActiveOSR, a)
		}
		ref, osr := got["refuse"], got["osr"]
		if len(ref) == 0 || len(ref) != len(osr) {
			t.Fatalf("%v arm: measured %d/%d cells", a, len(ref), len(osr))
		}
		for k, r := range ref {
			if r != osr[k] {
				t.Errorf("%v arm %s: cycles differ with OSR configured:\nrefuse: %+v\nosr:    %+v",
					a, k, r, osr[k])
			}
		}
	}
}

func TestOSRConfiguredParityE1(t *testing.T) {
	comparePolicies(t, measureSpinE1)
}

func TestOSRConfiguredParityE4(t *testing.T) {
	comparePolicies(t, measureMuslE4)
}
