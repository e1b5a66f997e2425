// Command mvbench regenerates every table and figure of the paper's
// evaluation (§6) on the simulated substrate, plus the ablation
// studies from DESIGN.md. Run with no arguments for everything, or
// name experiments:
//
//	mvbench [flags] [fig1 fig4-spinlock fig4-pvops fig5 grep cpython
//	                 overheads ablation-btb ablation-mechanism alternative]
//
// Absolute numbers come from the simulator's cost model; the paper's
// numbers are printed alongside so the shapes can be compared.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/grepsim"
	"repro/internal/kernelsim"
	"repro/internal/metrics"
	"repro/internal/muslsim"
	"repro/internal/pysim"
	"repro/internal/trace"
)

var (
	samples = flag.Int("samples", 200, "samples per measurement")
	iters   = flag.Uint64("iters", 100, "calls per sample")

	repeat    = flag.Int("repeat", 1, "run the selected experiments this many times")
	jsonPath  = flag.String("json", "", "write machine-readable results to this JSON file")
	tracePath = flag.String("trace", "", "record all experiment activity and write a Chrome trace-event JSON file")
)

// jsonEntry is one measurement in the -json output. Counters carries
// the machine-activity deltas attributable to this measurement: every
// system any experiment builds registers into one shared metrics
// registry (obs.Metrics), and record diffs the aggregated totals since
// the previous measurement.
type jsonEntry struct {
	Experiment string            `json:"experiment"`
	Label      string            `json:"label"`
	Result     bench.Result      `json:"result"`
	Counters   map[string]uint64 `json:"counters,omitempty"`
}

var (
	results []jsonEntry

	// obs observes every system an experiment builds: its registry
	// aggregates them all, and under -trace its collector records them
	// all into one file. deltas attributes the registry's counter
	// activity to individual measurements (per -repeat round, never
	// against run start — see metrics.DeltaTracker).
	obs    = core.Observers{Metrics: metrics.New()}
	deltas = metrics.NewDeltaTracker(obs.Metrics)
)

// recordedCounters are the per-measurement activity deltas exported in
// jsonEntry.Counters, keyed by registry counter name.
var recordedCounters = []string{
	"mv_instructions_total",
	"mv_decode_hits_total",
	"mv_decode_misses_total",
	"mv_superblock_builds_total",
	"mv_superblock_hits_total",
	"mv_superblock_insts_total",
	"mv_superblock_invalidated_total",
	"mv_mem_protect_calls_total",
	"mv_icache_flushes_total",
	"mv_commits_total",
	"mv_sites_patched_total",
	"mv_sites_inlined_total",
	"mv_commit_aborts_total",
	"mv_commit_retries_total",
	"mv_sites_rolled_back_total",
	"mv_flush_retries_total",
}

// record notes a measurement for -json and returns it unchanged, so
// call sites stay one-liners.
func record(experiment, label string, r bench.Result) bench.Result {
	results = append(results, jsonEntry{Experiment: experiment, Label: label,
		Result: r, Counters: deltas.Take(recordedCounters)})
	return r
}

func opts() kernelsim.MeasureOpts {
	return kernelsim.MeasureOpts{Samples: *samples, Iters: *iters, Warmup: 5}
}

func main() {
	flag.Parse()
	// Observing is passive (metrics are read at scrape time, tracers
	// ride the superblocks), so the cycle numbers in the tables are
	// bit-identical with or without -trace; the difftests assert it.
	if *tracePath != "" {
		obs.Trace = trace.NewCollector(trace.Options{})
	}
	experiments := map[string]func() error{
		"fig1":               fig1,
		"fig4-spinlock":      fig4Spinlock,
		"fig4-pvops":         fig4PVOps,
		"fig5":               fig5,
		"grep":               grep,
		"cpython":            cpython,
		"overheads":          overheads,
		"ablation-btb":       ablationBTB,
		"ablation-mechanism": ablationMechanism,
		"alternative":        alternative,
	}
	order := []string{"fig1", "fig4-spinlock", "fig4-pvops", "fig5", "grep",
		"cpython", "overheads", "ablation-btb", "ablation-mechanism", "alternative"}

	names := flag.Args()
	if len(names) == 0 {
		names = order
	}
	for _, n := range names {
		if _, ok := experiments[n]; !ok {
			fmt.Fprintf(os.Stderr, "mvbench: unknown experiment %q\n", n)
			os.Exit(2)
		}
	}
	for rep := 0; rep < *repeat; rep++ {
		for _, n := range names {
			if err := experiments[n](); err != nil {
				fmt.Fprintf(os.Stderr, "mvbench: %s: %v\n", n, err)
				os.Exit(1)
			}
			fmt.Println()
		}
	}
	if err := writeOutputs(obs.Trace); err != nil {
		fmt.Fprintf(os.Stderr, "mvbench: %v\n", err)
		os.Exit(1)
	}
}

// jsonOutput is the top-level -json document: the per-measurement
// results plus a full metrics snapshot of the whole run.
type jsonOutput struct {
	Results []jsonEntry      `json:"results"`
	Metrics metrics.Snapshot `json:"metrics"`
}

func writeOutputs(col *trace.Collector) error {
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOutput{Results: results, Metrics: obs.Metrics.Snapshot()}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d results to %s\n", len(results), *jsonPath)
	}
	if col != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := col.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d trace events to %s\n", len(col.Events()), *tracePath)
	}
	return nil
}

func fmtRes(r bench.Result) string { return fmt.Sprintf("%.2f ±%.2f", r.Mean, r.Std) }

func fig1() error {
	var rows [][]string
	for _, b := range []kernelsim.Fig1Binding{kernelsim.Fig1Static, kernelsim.Fig1Dynamic, kernelsim.Fig1Multiverse} {
		row := []string{b.String()}
		for _, smp := range []bool{false, true} {
			sys, err := kernelsim.BuildFig1(b, smp, obs)
			if err != nil {
				return err
			}
			res, err := sys.Measure(opts())
			if err != nil {
				return err
			}
			record("fig1", fmt.Sprintf("%s/smp=%v", b, smp), res)
			row = append(row, fmtRes(res))
		}
		rows = append(rows, row)
	}
	fmt.Print(bench.Table(
		"E1 / Figure 1 — spin_irq_lock avg cycles (paper: A 6.64/28.82, B 9.75/28.91, C 7.48/28.86)",
		[]string{"binding", "SMP=false", "SMP=true"}, rows))
	return nil
}

func fig4Spinlock() error {
	var rows [][]string
	for _, k := range []kernelsim.SpinKernel{kernelsim.SpinMainline, kernelsim.SpinIf,
		kernelsim.SpinMultiverse, kernelsim.SpinStaticUP} {
		row := []string{k.String()}
		for _, smp := range []bool{false, true} {
			s, err := kernelsim.BuildSpin(k, obs)
			if err != nil {
				return err
			}
			if err := s.SetSMP(smp); err != nil {
				row = append(row, "n/a")
				continue
			}
			res, err := s.Measure(opts())
			if err != nil {
				return err
			}
			record("fig4-spinlock", fmt.Sprintf("%s/smp=%v", k, smp), res)
			row = append(row, fmtRes(res))
		}
		rows = append(rows, row)
	}
	fmt.Print(bench.Table(
		"E2 / Figure 4 (left) — spinlock lock+unlock cycles (paper shape: static < mv < if < mainline unicore; all equal multicore)",
		[]string{"kernel", "Unicore", "Multicore"}, rows))
	return nil
}

func fig4PVOps() error {
	var rows [][]string
	for _, k := range []kernelsim.PVKernel{kernelsim.PVCurrent, kernelsim.PVMultiverse, kernelsim.PVDisabled} {
		row := []string{k.String()}
		for _, env := range []kernelsim.PVEnv{kernelsim.EnvNative, kernelsim.EnvXen} {
			p, err := kernelsim.BuildPV(k, env, obs)
			if err != nil {
				row = append(row, "n/a")
				continue
			}
			res, err := p.Measure(opts())
			if err != nil {
				return err
			}
			record("fig4-pvops", fmt.Sprintf("%v/%v", k, env), res)
			row = append(row, fmtRes(res))
		}
		rows = append(rows, row)
	}
	fmt.Print(bench.Table(
		"E3 / Figure 4 (right) — sti+cli cycles (paper shape: all equal native; mv beats current in Xen guest)",
		[]string{"kernel", "Native", "XEN (guest)"}, rows))
	return nil
}

func fig5() error {
	type cell struct{ res bench.Result }
	builds := []muslsim.Build{muslsim.Plain, muslsim.Multiverse}
	var rows [][]string
	for _, multi := range []bool{false, true} {
		mode := "single-threaded"
		if multi {
			mode = "multi-threaded"
		}
		var per [2]map[muslsim.Func]cell
		for bi, b := range builds {
			per[bi] = make(map[muslsim.Func]cell)
			m, err := muslsim.BuildMusl(b, obs)
			if err != nil {
				return err
			}
			if err := m.SetThreads(multi); err != nil {
				return err
			}
			for _, f := range muslsim.Funcs() {
				res, err := m.Measure(f, *samples, *iters)
				if err != nil {
					return err
				}
				record("fig5", fmt.Sprintf("%s/%v/%v", mode, f, b), res)
				per[bi][f] = cell{res}
			}
		}
		for _, f := range muslsim.Funcs() {
			p := per[0][f].res
			v := per[1][f].res
			delta := (p.Mean - v.Mean) / p.Mean * 100
			rows = append(rows, []string{
				mode, f.String(),
				fmt.Sprintf("%.1f cyc (%.0f ms)", p.Mean, muslsim.CyclesToMilliseconds(p.Mean)),
				fmt.Sprintf("%.1f cyc (%.0f ms)", v.Mean, muslsim.CyclesToMilliseconds(v.Mean)),
				fmt.Sprintf("%+.0f%%", -delta),
			})
			if f == muslsim.FnFputc && !multi {
				rows = append(rows, []string{
					mode, "fputc bandwidth",
					fmt.Sprintf("%.0f MiB/s", muslsim.FputcBandwidthMiBs(p.Mean)),
					fmt.Sprintf("%.0f MiB/s", muslsim.FputcBandwidthMiBs(v.Mean)),
					"(paper: 124 -> 264)",
				})
			}
		}
	}
	fmt.Print(bench.Table(
		"E4 / Figure 5 — musl, 10M invocations scaled to ms at 3 GHz (paper: -43% .. -54% single-threaded, ~0% multi-threaded)",
		[]string{"mode", "function", "w/o multiverse", "w/ multiverse", "delta"}, rows))
	return nil
}

func grep() error {
	var rows [][]string
	var plainMean float64
	for _, b := range []grepsim.Build{grepsim.Plain, grepsim.Multiverse} {
		g, err := grepsim.BuildGrep(b, obs)
		if err != nil {
			return err
		}
		if err := g.SetMode(false); err != nil {
			return err
		}
		matches, err := g.Matches()
		if err != nil {
			return err
		}
		res, err := g.Measure(*samples / 10)
		if err != nil {
			return err
		}
		record("grep", b.String(), res)
		delta := ""
		if b == grepsim.Plain {
			plainMean = res.Mean
		} else {
			delta = fmt.Sprintf("%+.2f%%", (res.Mean-plainMean)/plainMean*100)
		}
		rows = append(rows, []string{b.String(),
			fmt.Sprintf("%.0f cycles", res.Mean),
			fmt.Sprintf("%d matches", matches), delta})
	}
	fmt.Print(bench.Table(
		"E5 / grep end-to-end — pattern \"a.a\" over hex-random corpus (paper: -2.73%)",
		[]string{"build", "run time", "correctness", "delta"}, rows))
	return nil
}

func cpython() error {
	var rows [][]string
	var plainMean float64
	for _, b := range []pysim.Build{pysim.Plain, pysim.Multiverse} {
		p, err := pysim.BuildPython(b, obs)
		if err != nil {
			return err
		}
		if err := p.SetGCEnabled(false); err != nil {
			return err
		}
		res, err := p.Measure(*samples, *iters)
		if err != nil {
			return err
		}
		record("cpython", b.String(), res)
		delta := ""
		if b == pysim.Plain {
			plainMean = res.Mean
		} else {
			delta = fmt.Sprintf("%+.2f%%", (res.Mean-plainMean)/plainMean*100)
		}
		rows = append(rows, []string{b.String(), fmtRes(res), delta})
	}
	fmt.Print(bench.Table(
		"E6 / cPython _PyObject_GC_Alloc, gc disabled (paper: no stable result; deterministic simulator shows the small effect)",
		[]string{"build", "cycles/alloc", "delta"}, rows))
	return nil
}

func overheads() error {
	sys, err := kernelsim.BuildManyCallSites(kernelsim.PaperCallSites, obs)
	if err != nil {
		return err
	}
	rep, err := kernelsim.TimeCommit(sys, true)
	if err != nil {
		return err
	}
	rep2, err := kernelsim.TimeCommit(sys, false)
	if err != nil {
		return err
	}
	var descBytes int
	for _, f := range sys.Report.Functions {
		descBytes += f.DescriptorBytes
	}
	rows := [][]string{
		{"call sites recorded", fmt.Sprintf("%d", rep.CallSites), "paper: 1161"},
		{"sites patched (SMP commit)", fmt.Sprintf("%d", rep.SitesTouched), ""},
		{"commit wall time, 1 cold sample (SMP)", rep.HostDuration.String(), "paper: ~16 ms for 1161 sites; repeated: BenchmarkCommitManyCallsites"},
		{"commit wall time, 1 cold sample (UP)", rep2.HostDuration.String(), "repeated: BenchmarkCommitManyCallsites"},
		{"function+variant descriptors", fmt.Sprintf("%d B", descBytes), "32 B/var + 16 B/site + 48+v*(32+g*16) B/fn"},
		{"variable descriptors", fmt.Sprintf("%d B", 32*len(sys.RT.Vars())), ""},
		{"call-site descriptors", fmt.Sprintf("%d B", 16*rep.CallSites), ""},
	}
	fmt.Print(bench.Table("E7 / patching + descriptor overheads",
		[]string{"metric", "value", "reference"}, rows))
	return nil
}

func ablationBTB() error {
	var rows [][]string
	for _, b := range []kernelsim.Fig1Binding{kernelsim.Fig1Dynamic, kernelsim.Fig1Multiverse} {
		sys, err := kernelsim.BuildFig1(b, false, obs)
		if err != nil {
			return err
		}
		warm, err := sys.Measure(opts())
		if err != nil {
			return err
		}
		cold, err := sys.MeasureColdBTB(opts())
		if err != nil {
			return err
		}
		record("ablation-btb", b.String()+"/warm", warm)
		record("ablation-btb", b.String()+"/cold", cold)
		rows = append(rows, []string{b.String(), fmtRes(warm), fmtRes(cold),
			fmt.Sprintf("%+.1f", cold.Mean-warm.Mean)})
	}
	fmt.Print(bench.Table(
		"E8 / BTB ablation — warm vs cold predictor, UP mode (paper §1: mispredict costs 15-20 cycles)",
		[]string{"binding", "warm BTB", "cold BTB", "penalty"}, rows))
	return nil
}

func ablationMechanism() error {
	build := func(configure func(rt *core.Runtime)) (bench.Result, error) {
		s, err := kernelsim.BuildSpin(kernelsim.SpinMultiverse, obs)
		if err != nil {
			return bench.Result{}, err
		}
		configure(s.Runtime())
		if err := s.SetSMP(false); err != nil {
			return bench.Result{}, err
		}
		return s.Measure(opts())
	}
	full, err := build(func(rt *core.Runtime) {})
	if err != nil {
		return err
	}
	noInline, err := build(func(rt *core.Runtime) { rt.DisableInlining = true })
	if err != nil {
		return err
	}
	prologueOnly, err := build(func(rt *core.Runtime) { rt.PrologueOnly = true })
	if err != nil {
		return err
	}
	record("ablation-mechanism", "full", full)
	record("ablation-mechanism", "no-inlining", noInline)
	record("ablation-mechanism", "prologue-only", prologueOnly)
	rows := [][]string{
		{"full mechanism (sites + inlining)", fmtRes(full)},
		{"no tiny-body inlining", fmtRes(noInline)},
		{"prologue jump only (no site patching)", fmtRes(prologueOnly)},
	}
	fmt.Print(bench.Table(
		"E9 / mechanism ablation — multiverse spinlock kernel, UP commit",
		[]string{"configuration", "cycles/op"}, rows))
	return nil
}

func alternative() error {
	var rows [][]string
	for _, k := range []kernelsim.AltKernel{kernelsim.AltMacro, kernelsim.AltMultiverse} {
		row := []string{k.String()}
		for _, feature := range []bool{false, true} {
			a, err := kernelsim.BuildAlt(k, feature, obs)
			if err != nil {
				return err
			}
			res, err := a.Measure(opts())
			if err != nil {
				return err
			}
			record("alternative", fmt.Sprintf("%v/feature=%v", k, feature), res)
			row = append(row, fmtRes(res))
		}
		rows = append(rows, row)
	}
	fmt.Print(bench.Table(
		"E10 / alternative() macros vs multiverse — SMAP-style feature patching (paper claim: multiverse replaces the mechanism without compromise)",
		[]string{"mechanism", "feature off (patched)", "feature on"}, rows))
	return nil
}
