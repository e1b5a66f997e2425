package difftest

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kernelsim"
	"repro/internal/muslsim"
	"repro/internal/trace"
)

// Tracing is strictly passive: attaching a collector (with profiling,
// so every hook on the interpreter hot path fires) must not change a
// single simulated cycle. These tests run the E1 (Figure 1 spinlock)
// and E4 (musl libc) workloads end to end with and without a tracer
// and require the bench.Result structs to be bit-identical, and every
// machine's TotalStats too, Decode* and Block* included: a tracer
// rides the superblocks, so it changes no dispatch decision either.
// The metrics and flight-recorder invariance tests run the same two
// measurements with their observer.

// tracedRun is what one measurement leaves: its result and its
// machine's statistics.
type tracedRun struct {
	r     bench.Result
	stats cpu.Stats
}

// compareTraced reports every measurement whose result or machine
// statistics differ between the observed and plain runs.
func compareTraced(t *testing.T, traced, plain map[string]tracedRun) {
	t.Helper()
	if len(traced) == 0 || len(traced) != len(plain) {
		t.Fatalf("measured %d/%d cells", len(traced), len(plain))
	}
	for k, r := range traced {
		if r != plain[k] {
			t.Errorf("%s: results differ with observers on/off:\nobserved: %+v\nplain:    %+v",
				k, r, plain[k])
		}
	}
}

// observedFig1 measures every Figure 1 cell, each system built with obs.
func observedFig1(t *testing.T, obs core.Observers) map[string]tracedRun {
	t.Helper()
	opts := kernelsim.MeasureOpts{Samples: 10, Iters: 30, Warmup: 2}
	out := make(map[string]tracedRun)
	for _, b := range []kernelsim.Fig1Binding{
		kernelsim.Fig1Static, kernelsim.Fig1Dynamic, kernelsim.Fig1Multiverse,
	} {
		for _, smp := range []bool{false, true} {
			sys, err := kernelsim.BuildFig1(b, smp, obs)
			if err != nil {
				t.Fatalf("BuildFig1(%v, %v): %v", b, smp, err)
			}
			r, err := sys.Measure(opts)
			if err != nil {
				t.Fatalf("Measure(%v, %v): %v", b, smp, err)
			}
			out[b.String()+"/"+smpLabel[smp]] = tracedRun{r, sys.System().Machine.TotalStats()}
		}
	}
	return out
}

// observedMusl measures every musl function in both builds, each system
// built with obs.
func observedMusl(t *testing.T, obs core.Observers) map[string]tracedRun {
	t.Helper()
	const samples, iters = 8, 20
	out := make(map[string]tracedRun)
	for _, build := range []muslsim.Build{muslsim.Plain, muslsim.Multiverse} {
		m, err := muslsim.BuildMusl(build, obs)
		if err != nil {
			t.Fatalf("BuildMusl(%v): %v", build, err)
		}
		if err := m.SetThreads(false); err != nil {
			t.Fatal(err)
		}
		for _, f := range muslsim.Funcs() {
			r, err := m.Measure(f, samples, iters)
			if err != nil {
				t.Fatalf("Measure(%v): %v", f, err)
			}
			out[build.String()+"/"+f.String()] = tracedRun{r, m.System().Machine.TotalStats()}
		}
	}
	return out
}

func profiling() core.Observers {
	return core.Observers{Trace: trace.NewCollector(trace.Options{Profile: true})}
}

func TestTracerInvarianceFig1(t *testing.T) {
	compareTraced(t, observedFig1(t, profiling()), observedFig1(t, core.Observers{}))
}

func TestTracerInvarianceMusl(t *testing.T) {
	compareTraced(t, observedMusl(t, profiling()), observedMusl(t, core.Observers{}))
}

// TestTraceGoldens pins the Chrome trace and the folded profile of one
// small traced and profiled run of E1 (Figure 1, multiverse, SMP) and
// E4 (musl, multiverse) by length and SHA-256, so a change to how
// observers ride the interpreter cannot move a single exported event.
// Rewrite with -update.
func TestTraceGoldens(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(obs core.Observers) error
	}{
		{"fig1_multiverse_smp", func(obs core.Observers) error {
			sys, err := kernelsim.BuildFig1(kernelsim.Fig1Multiverse, true, obs)
			if err != nil {
				return err
			}
			_, err = sys.Measure(kernelsim.MeasureOpts{Samples: 4, Iters: 10, Warmup: 1})
			return err
		}},
		{"musl_multiverse", func(obs core.Observers) error {
			m, err := muslsim.BuildMusl(muslsim.Multiverse, obs)
			if err != nil {
				return err
			}
			if err := m.SetThreads(false); err != nil {
				return err
			}
			for _, f := range muslsim.Funcs() {
				if _, err := m.Measure(f, 3, 5); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		obs := profiling()
		col := obs.Trace
		if err := tc.run(obs); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var chrome, folded bytes.Buffer
		if err := col.WriteChromeTrace(&chrome); err != nil {
			t.Fatal(err)
		}
		if err := col.WriteFolded(&folded); err != nil {
			t.Fatal(err)
		}
		checkDigestGolden(t, tc.name+".json.sha256", chrome.Bytes())
		checkDigestGolden(t, tc.name+".folded.sha256", folded.Bytes())
	}
}

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// checkDigestGolden compares got's length and SHA-256 with
// testdata/name, or rewrites the file under -update.
func checkDigestGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	line := fmt.Sprintf("%d bytes, sha256 %x\n", len(got), sha256.Sum256(got))
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if line != string(want) {
		t.Errorf("%s: got %s want %s", path, line, want)
	}
}
