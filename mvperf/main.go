// Command mvperf is the repository's benchmark. It measures the layers
// of the multiverse system from outside, through the packages' public
// APIs, with four workloads. Each is a closed loop: one caller in one
// process, which starts an op only after the previous one returned.
//
//	compile      core.BuildImage on each unit of a seeded MVC corpus
//	             anchored by the paper's 1161-site E7 kernel. cc, mvir,
//	             variantgen, codegen and link do all the work; no guest
//	             code runs after set-up.
//	experiments  Measure on every E1–E6 and E8–E10 table cell, on
//	             systems built and warmed in set-up: the cpu and mem
//	             interpreter with hot caches and no commits.
//	reconfigure  a seeded sequence of the six commit and revert entry
//	             points over the E7 kernel in the parked, stop-machine
//	             and text-poke modes, each followed by an audit and a
//	             guest sweep through the patched sites: the commit path,
//	             and the cpu layer's cache invalidations.
//	fleet        supervised fleets with config-flip storms and chaos
//	             kills: every layer at once, plus snapshots, restarts
//	             and migrations.
//
// Usage, from the repository root:
//
//	bash mvperf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run sets up at least three times and for at least
// three seconds (setup_s is the median),
// measures for --seconds and prints the end-to-end metrics, host times
// in reference seconds (see hostclock.go). With --trace 1 it sets up
// once, measures half the time untraced and half traced, and prints
// the per-layer metrics. Either way the last line of standard output
// is one JSON object with the keys correct, attempted, failed and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one closed loop. build generates the inputs from the
// seed and compiles and boots every system. Ops 0..passLen()-1 are the
// untimed reference pass that ends set-up; every later op i repeats op
// i mod passLen() and must reproduce its outputs exactly. op returns an
// error when an output check fails; the op then counts as failed.
type workload interface {
	build(seed int64) error
	passLen() int
	op(i int) (opStat, error)
	// simCyclesPerOp is the geometric mean of the simulated cycles per
	// op of the workload's cells in the reference pass.
	simCyclesPerOp() float64
	// reference renders everything of the reference pass that a re-run
	// with the same seed must repeat: work counts, simulated cycles,
	// image digests, fleet fingerprints.
	reference() string
	// layers adds the workload's cumulative per-layer counts to cum and
	// the values its reference pass fixed to fixed.
	layers(cum, fixed counts)
}

// opStat is one op's host latency and the deterministic work units it
// completed.
type opStat struct {
	latency time.Duration
	work    float64
}

type counts map[string]float64

var workloads = map[string]func(*tracer) workload{
	"compile":     func(t *tracer) workload { return &compileWorkload{tr: t} },
	"experiments": func(t *tracer) workload { return &experimentsWorkload{tr: t} },
	"reconfigure": func(t *tracer) workload { return &reconfigureWorkload{tr: t} },
	"fleet":       func(t *tracer) workload { return &fleetWorkload{tr: t} },
}

// An untraced run sets up at least minSetUps times, and more often
// until its set-ups have taken setUpWall, so that a median over many
// samples sets setup_s when a set-up is short. Each set-up after the
// first must repeat the first's reference pass exactly.
const (
	minSetUps = 3
	setUpWall = 3 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "compile, experiments, reconfigure or fleet")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	spans := flag.String("spans", filepath.Join(".bench_build", "mvperf-spans.json"), "file the traced run writes its spans to")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || (*traced != 0 && *traced != 1) || !(*seconds > 0) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: mvperf --workload compile|experiments|reconfigure|fleet --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var (
		res *result
		err error
	)
	if *traced == 1 {
		res, err = runTraced(*name, mk, *seed, dur, *spans)
	} else {
		res, err = runPlain(*name, mk, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mvperf: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mvperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// warnings caps how many failed checks a run reports on standard error.
var warnings int

func warn(format string, args ...any) {
	if warnings++; warnings <= 10 {
		fmt.Fprintf(os.Stderr, "mvperf: "+format+"\n", args...)
	}
}

// setUp builds w and runs its reference pass, timing both on h, with
// a calibration slice before and after. It returns how many of the
// pass's ops failed their checks.
func setUp(w workload, tr *tracer, h *hostClock, seed int64) (int, error) {
	h.tick(true)
	var err error
	h.time(func() { err = w.build(seed) })
	if err != nil {
		return 0, err
	}
	failed := 0
	for i := 0; i < w.passLen(); i++ {
		h.tick(false)
		tr.setOp(i)
		h.time(func() { _, err = w.op(i) })
		if err != nil {
			failed++
			warn("reference op %d: %v", i, err)
		}
	}
	h.tick(true)
	return failed, nil
}

// phase is the outcome of one timed phase.
type phase struct {
	ops, failed int
	work        float64 // work units of the ops that passed their checks
	clock       hostClock
	latMs       []float64 // op latencies in wall milliseconds
	next        int       // index of the op after the last one run
}

// rate is work per reference second.
func (p *phase) rate() float64 { return p.work / p.clock.ref(p.clock.wall.Seconds()) }

// wallRate is work per wall second.
func (p *phase) wallRate() float64 { return p.work / p.clock.wall.Seconds() }

// measure is a timed phase: it runs ops from first on, one after the
// other, until dur has passed and a pass is complete. Ending on a pass
// boundary leaves the systems in the same state on every run, which
// live_heap_mb measures.
func measure(w workload, tr *tracer, first int, dur time.Duration) phase {
	p := phase{next: first}
	h := &p.clock
	for h.wall < dur || p.next%w.passLen() != 0 {
		h.tick(p.ops == 0)
		tr.setOp(p.next)
		var (
			st  opStat
			err error
		)
		h.time(func() { st, err = w.op(p.next) })
		p.ops++
		p.latMs = append(p.latMs, float64(st.latency)/1e6)
		if err != nil {
			p.failed++
			warn("op %d: %v", p.next, err)
		} else {
			p.work += st.work
		}
		p.next++
	}
	return p
}

func runPlain(name string, mk func(*tracer) workload, seed int64, dur time.Duration) (*result, error) {
	var (
		w         workload
		ref       string
		su        hostClock // every set-up's clock
		setupWall []float64
		failed    int
	)
	for k := 0; k < minSetUps || su.wall < setUpWall; k++ {
		w = nil
		runtime.GC()
		w = mk(nil)
		before := su.wall
		f, err := setUp(w, nil, &su, seed)
		if err != nil {
			return nil, err
		}
		setupWall = append(setupWall, (su.wall - before).Seconds())
		failed += f
		if k == 0 {
			ref = w.reference()
		} else if w.reference() != ref {
			failed++
			warn("set-up %d did not repeat the reference pass of set-up 0", k)
		}
	}
	runtime.GC()
	p := measure(w, nil, w.passLen(), dur)
	wallP50 := median(p.latMs)
	p.latMs = nil
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	sim := w.simCyclesPerOp()
	runtime.KeepAlive(w)
	if !(sim > 0) {
		failed++
		warn("no simulated cycles per op")
	}
	failed += p.failed
	fmt.Printf("# %s seed %d: setup_s is the median of %d set-ups; %d timed ops (%d failed) in %.3f s; op_p50_ms is their median\n",
		name, seed, len(setupWall), p.ops, p.failed, p.clock.wall.Seconds())
	fmt.Printf("# host slowdown %.4f in set-up, %.4f timed; in wall time setup_s %.6g, work_per_s %.6g, op_p50_ms %.6g\n",
		su.slowdown(), p.clock.slowdown(), median(setupWall), p.wallRate(), wallP50)
	v := map[string]float64{
		"setup_s":           su.ref(median(setupWall)),
		"work_per_s":        p.rate(),
		"op_p50_ms":         p.clock.ref(wallP50),
		"live_heap_mb":      float64(mem.HeapAlloc) / 1e6,
		"sim_cycles_per_op": sim,
	}
	return &result{
		Correct:   failed == 0,
		Attempted: len(setupWall)*w.passLen() + p.ops,
		Failed:    failed,
		Metrics:   pick(endToEnd, v),
	}, nil
}

func runTraced(name string, mk func(*tracer) workload, seed int64, dur time.Duration, spansPath string) (*result, error) {
	tr := newTracer()
	w := mk(tr)
	failed, err := setUp(w, tr, &hostClock{}, seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	tr.on = false
	plain := measure(w, tr, w.passLen(), dur/2)
	cum0, fixed := counts{}, counts{}
	w.layers(cum0, fixed)
	runtime.GC()
	tr.on = true
	from := tr.now()
	traced := measure(w, tr, plain.next, dur/2)
	cum1 := counts{}
	w.layers(cum1, counts{})
	failed += plain.failed + traced.failed
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	fmt.Printf("# %s seed %d: %d untraced and %d traced ops (%d failed); %d spans written to %s\n",
		name, seed, plain.ops, traced.ops, plain.failed+traced.failed, len(tr.spans), spansPath)
	return &result{
		Correct:   failed == 0,
		Attempted: w.passLen() + plain.ops + traced.ops,
		Failed:    failed,
		Metrics:   pick(perLayer, layerValues(tr, from, plain, traced, cum0, cum1, fixed)),
	}, nil
}

// pick returns every listed metric with its unit; a metric the
// workload has no value for (a layer it does not use) reads 0.
func pick(defs []metricDef, v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: v[d.name], Unit: d.unit}
	}
	return out
}

// layerValues derives the per-layer metrics from the spans and the
// counts taken before (cum0) and after (cum1) the traced phase, which
// started at from on the tracer's clock.
func layerValues(tr *tracer, from int64, plain, traced phase, cum0, cum1, fixed counts) map[string]float64 {
	v := map[string]float64{}
	for k, x := range fixed {
		v[k] = x
	}
	for k, x := range cum1 {
		v[k] = x - cum0[k]
	}

	// Per-call latency: the median over every span of that name.
	durs := map[string][]float64{}
	for _, s := range tr.spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e6)
	}
	for _, d := range perLayer {
		if stem, ok := strings.CutSuffix(d.name, "_ms"); ok && len(durs[stem]) > 0 {
			v[d.name] = median(durs[stem])
		}
	}
	commits := durs["core.commit"]
	v["core.commit_samples"] = float64(len(commits))
	if pct, val, ok := tailPercentile(commits); ok {
		v["core.commit_tail_pct"], v["core.commit_tail_ms"] = pct, val
	}

	// Self time per layer, and the host time behind each rate, within
	// the traced phase.
	self := selfTimes(tr.spans)
	layerNs := map[string]int64{}
	var guestNs, lexNs, patchNs int64
	for i, s := range tr.spans {
		if s.Start < from {
			continue
		}
		d := s.End - s.Start
		if s.Name == "cc.lex" {
			lexNs += d
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		layerNs[layer] += self[i]
		switch s.Name {
		case "sim.measure", "machine.call":
			guestNs += d
		case "core.commit", "core.revert", "core.commit_func", "core.revert_func", "core.commit_refs", "core.revert_refs":
			patchNs += d
		}
	}
	// Traced compile ops run an extra cc.LexAll, which counts tokens and
	// which core.BuildImage does not run: its time is left out of the
	// self-time shares and of the traced rate.
	opShare := 1 - float64(lexNs)/float64(traced.clock.wall)
	covered := 0.0
	for _, layer := range spanLayers {
		share := 100 * float64(layerNs[layer]) / float64(traced.clock.wall) / opShare
		v["self."+layer+"_pct"] = share
		covered += share
	}
	v["self.harness_pct"] = 100 - covered

	v["cc.tokens_per_s"] = ratio(v["cc.tokens_lexed"], float64(lexNs)/1e9)
	v["core.variant_merge_ratio"] = ratio(v["core.variants_merged"], v["core.variants_raw"])
	v["cpu.insts_per_s"] = ratio(v["cpu.insts"], float64(guestNs)/1e9)
	v["cpu.decode_hit_ratio"] = ratio(v["cpu.decode_hits"], v["cpu.decode_hits"]+v["cpu.decode_misses"])
	v["cpu.block_insts_ratio"] = ratio(v["cpu.block_insts"], v["cpu.insts"])
	v["core.sites_per_ms"] = ratio(v["core.sites_patched"]+v["core.sites_inlined"]+v["core.sites_reverted"], float64(patchNs)/1e6)
	v["fleet.requests_per_kcycle"] = ratio(v["fleet.requests"], v["fleet.cycles"]/1000)

	untracedRate, tracedRate := plain.rate(), traced.rate()/opShare
	v["host.slowdown"] = (plain.clock.slowdown() + traced.clock.slowdown()) / 2
	v["trace.work_per_s_untraced"] = untracedRate
	v["trace.work_per_s_traced"] = tracedRate
	v["trace.overhead_pct"] = 100 * (1 - ratio(tracedRate, untracedRate))
	v["trace.spans"] = float64(len(tr.spans))
	return v
}
