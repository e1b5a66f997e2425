package difftest

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/kernelsim"
	"repro/internal/muslsim"
)

// The SMP-safety layer must be pay-for-use: on a single CPU that is
// parked at commit time, a stop-machine rendezvous herds nobody and
// the activeness scan sees no live stacks, so switching the runtime
// from the legacy parked contract to ModeStopMachine must not change
// a single simulated cycle. These tests pin that property on the
// paper's E1 and E4 workloads by requiring bit-identical bench
// results.

func TestStopMachineModeInvarianceSpin(t *testing.T) {
	opts := kernelsim.MeasureOpts{Samples: 10, Iters: 30, Warmup: 2}
	measure := func(stopMachine bool) map[string]bench.Result {
		out := make(map[string]bench.Result)
		for _, smp := range []bool{false, true} {
			s, err := kernelsim.BuildSpin(kernelsim.SpinMultiverse)
			if err != nil {
				t.Fatalf("BuildSpin: %v", err)
			}
			if stopMachine {
				s.System().RT.SetCommitOptions(core.CommitOptions{Mode: core.ModeStopMachine})
			}
			if err := s.SetSMP(smp); err != nil {
				t.Fatalf("SetSMP(%v): %v", smp, err)
			}
			r, err := s.Measure(opts)
			if err != nil {
				t.Fatalf("Measure(smp=%v): %v", smp, err)
			}
			out[map[bool]string{false: "up", true: "smp"}[smp]] = r
		}
		return out
	}
	parked := measure(false)
	stop := measure(true)
	for k, r := range parked {
		if r != stop[k] {
			t.Errorf("%s: results differ under ModeStopMachine:\nparked: %+v\nstop:   %+v", k, r, stop[k])
		}
	}
}

func TestStopMachineModeInvarianceMusl(t *testing.T) {
	measure := func(stopMachine bool) map[muslsim.Func]bench.Result {
		out := make(map[muslsim.Func]bench.Result)
		m, err := muslsim.BuildMusl(muslsim.Multiverse)
		if err != nil {
			t.Fatalf("BuildMusl: %v", err)
		}
		if stopMachine {
			m.System().RT.SetCommitOptions(core.CommitOptions{Mode: core.ModeStopMachine})
		}
		if err := m.SetThreads(false); err != nil {
			t.Fatalf("SetThreads: %v", err)
		}
		for _, f := range muslsim.Funcs() {
			r, err := m.Measure(f, 6, 40)
			if err != nil {
				t.Fatalf("Measure(%v): %v", f, err)
			}
			out[f] = r
		}
		return out
	}
	parked := measure(false)
	stop := measure(true)
	for f, r := range parked {
		if r != stop[f] {
			t.Errorf("%v: results differ under ModeStopMachine:\nparked: %+v\nstop:   %+v", f, r, stop[f])
		}
	}
}
