package difftest

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/metrics"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// Observers ride the superblock interpreter: attaching one changes no
// dispatch decision, so it moves nothing a run leaves behind — not
// where RunUntil pauses, not a counter (Decode* and Block* included),
// not a byte of a checkpoint. These tests pause the checkpoint-smoke
// program and the E1 Figure 1 multiverse SMP kernel mid-call, capture
// a snapshot and run to the end, with no observer and with each of a
// profiling collector, an instruction tracer (mvrun -itrace's shape), a
// metric sampler (mvrun -sample's shape) and all three teed, and
// require every capture and every statistic to be identical.

// ckptSmokeSrc is the Makefile's checkpoint-smoke program.
const ckptSmokeSrc = `multiverse int mode;
long work;
multiverse void step(void) { if (mode) { work += 3; } else { work += 1; } }
long spin(long n) { long i; for (i = 0; i < n; i++) { step(); } return work; }
`

// itraceTracer renders every instruction the CPU executes, with a
// label at each symbol start, into out.
func itraceTracer(img *link.Image, out *bytes.Buffer) trace.Tracer {
	return trace.StepFunc(func(pc, cycles uint64, in *isa.Inst) {
		if name, ok := img.SymbolAt(pc); ok && img.Symbols[name].Addr == pc {
			fmt.Fprintf(out, "%s:\n", name)
		}
		fmt.Fprintf(out, "  %#08x: %s\n", pc, in.Format(pc))
	})
}

// samplerTracer samples the system's metrics every 100 cycles into
// out, reading every CPU counter through the registry mid-run.
func samplerTracer(sys *core.System, out *bytes.Buffer) trace.Tracer {
	reg := metrics.New()
	core.Observers{Metrics: reg}.Attach(sys.Machine, sys.RT)
	samp := metrics.NewSampler(reg, out, 100, metrics.FormatCSV)
	return trace.StepFunc(func(pc, cycles uint64, in *isa.Inst) { samp.Tick(cycles) })
}

// observe attaches the named observer to sys; "none" attaches nothing.
// The returned func reports how much the observer has recorded.
func observe(t *testing.T, sys *core.System, name string) (recorded func() int) {
	t.Helper()
	var col *trace.Collector
	var itrace, samples bytes.Buffer
	profile := func() {
		col = trace.NewCollector(trace.Options{Profile: true})
		core.Observers{Trace: col}.Attach(sys.Machine, sys.RT)
	}
	onCPU := func(ts ...trace.Tracer) {
		c := sys.Machine.CPU
		c.SetTracer(trace.NewTee(append(ts, c.Tracer())...))
	}
	switch name {
	case "none":
	case "profile":
		profile()
	case "itrace":
		onCPU(itraceTracer(sys.Machine.Image, &itrace))
	case "sample":
		onCPU(samplerTracer(sys, &samples))
	case "all":
		profile()
		onCPU(itraceTracer(sys.Machine.Image, &itrace), samplerTracer(sys, &samples))
	default:
		t.Fatalf("unknown observer %q", name)
	}
	return func() int {
		n := itrace.Len() + samples.Len()
		if col != nil {
			n += len(col.Profile().Folded)
		}
		return n
	}
}

// checkObserversMoveNothing runs entry(args) over img once per
// observer: configure, attach the observer, pause at cycle mid and
// capture, then run to the halt. Every run must pause at the same
// cycle, capture the same bytes and finish with the same outcome,
// statistics included, as the unobserved run.
func checkObserversMoveNothing(t *testing.T, img *link.Image, configure func(*core.System), mid uint64, entry string, args ...uint64) {
	t.Helper()
	type run struct {
		snap  []byte
		stats cpu.Stats
		out   runOutcome
	}
	var ref run
	for _, name := range []string{"none", "profile", "itrace", "sample", "all"} {
		sys := snapSystem(t, img, armBare)
		configure(sys)
		recorded := observe(t, sys, name)
		if err := sys.Machine.StartCall(sys.Machine.CPU, entry, args...); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Machine.CPU.RunUntil(mid, sys.Machine.MaxSteps); err != nil {
			t.Fatal(err)
		}
		if sys.Machine.CPU.Halted() {
			t.Fatalf("%s: run finished before the pause at cycle %d", name, mid)
		}
		snap, err := snapshot.Capture(nil, sys.Machine, sys.RT)
		if err != nil {
			t.Fatal(err)
		}
		got := run{snap: snap, stats: sys.Machine.TotalStats()}
		got.out = finish(t, sys)
		if name == "none" {
			ref = got
			continue
		}
		if recorded() == 0 {
			t.Errorf("%s recorded nothing", name)
		}
		if !bytes.Equal(got.snap, ref.snap) {
			d, _ := snapshot.Digest(got.snap)
			want, _ := snapshot.Digest(ref.snap)
			t.Errorf("%s moves the checkpoint: digest %s, unobserved %s", name, d, want)
		}
		if got.stats != ref.stats {
			t.Errorf("%s moves the stats at the pause:\nobserved:   %+v\nunobserved: %+v", name, got.stats, ref.stats)
		}
		if got.out != ref.out {
			t.Errorf("%s moves the finished run:\nobserved:   %+v\nunobserved: %+v", name, got.out, ref.out)
		}
	}
}

func TestObserversMoveNothingCkptSmoke(t *testing.T) {
	img, _, err := core.BuildImage(core.GenOptions{}, core.Source{Name: "mv-ckpt-smoke", Text: ckptSmokeSrc})
	if err != nil {
		t.Fatal(err)
	}
	checkObserversMoveNothing(t, img, func(*core.System) {}, 1000, "spin", 400)
}

func TestObserversMoveNothingFig1(t *testing.T) {
	img, configure := fig1Image(t)
	checkObserversMoveNothing(t, img, configure, 5000, "bench_fig1", 400)
}
