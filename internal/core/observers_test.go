package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/trace"
)

const traceProgram = `
	multiverse int feature_enabled;

	long fast_calls;
	long slow_calls;
	void fast_path(void) { fast_calls++; }
	void slow_path(void) { slow_calls++; }

	multiverse void process(void) {
		if (feature_enabled) {
			fast_path();
		} else {
			slow_path();
		}
	}

	void handle_request(void) { process(); }
`

// TestAttachTracerEndToEnd drives the full observability path: build
// with a profiling collector, commit, run, then check the events, the
// Chrome export and the folded profile.
func TestAttachTracerEndToEnd(t *testing.T) {
	col := trace.NewCollector(trace.Options{Profile: true})
	sys, err := BuildSystem(GenOptions{}, &Observers{Trace: col}, Source{Name: "trace", Text: traceProgram})
	if err != nil {
		t.Fatal(err)
	}

	if err := sys.SetSwitch("feature_enabled", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := sys.Machine.CallNamed("handle_request"); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.RT.Revert(); err != nil {
		t.Fatal(err)
	}

	kinds := make(map[trace.Kind]int)
	for _, ev := range col.Events() {
		kinds[ev.Kind]++
	}
	for _, want := range []trace.Kind{
		trace.KindCommitBegin, trace.KindCommitEnd,
		trace.KindRevertBegin, trace.KindRevertEnd,
		trace.KindSwitchValue, trace.KindPatchSite,
		trace.KindProloguePatch, trace.KindPrologueRestore,
		trace.KindProtect, trace.KindFlushICache,
	} {
		if kinds[want] == 0 {
			t.Errorf("no %v event recorded (have %v)", want, kinds)
		}
	}

	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	if _, ok := out["traceEvents"]; !ok {
		t.Fatal("Chrome export missing traceEvents")
	}

	prof := col.Profile()
	if prof == nil || len(prof.Folded) == 0 {
		t.Fatal("profiler produced no folded stacks")
	}
	var sawVariant, sawCallee bool
	for stack := range prof.Folded {
		if strings.Contains(stack, "process.variant") {
			sawVariant = true
		}
		if strings.Contains(stack, "fast_path") {
			sawCallee = true
		}
	}
	if !sawVariant {
		t.Errorf("no stack attributes cycles to a synthesized variant symbol: %v", keys(prof.Folded))
	}
	if !sawCallee {
		t.Errorf("no stack reaches fast_path: %v", keys(prof.Folded))
	}
	if _, ok := prof.Calls["handle_request;process.variant1"]; !ok {
		t.Errorf("missing patched call edge, have %v", keys(prof.Calls))
	}
}

func keys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTraceSymbolsIncludeVariants checks the symbol synthesis the
// linker cannot provide.
func TestTraceSymbolsIncludeVariants(t *testing.T) {
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "trace", Text: traceProgram})
	if err != nil {
		t.Fatal(err)
	}
	syms := TraceSymbols(sys.Machine.Image, sys.RT.desc)
	have := make(map[string]bool)
	for _, s := range syms {
		if s.Size == 0 {
			t.Errorf("symbol %q has zero size", s.Name)
		}
		have[s.Name] = true
	}
	for _, want := range []string{"process", "process.variant0", "process.variant1", "handle_request", "fast_path"} {
		if !have[want] {
			t.Errorf("missing symbol %q", want)
		}
	}
	// Data symbols must not pollute the executable table.
	if have["fast_calls"] || have["feature_enabled"] {
		t.Errorf("data symbols leaked into the exec symbol table")
	}
}

// composedRun is what one observed run leaves that no observer may move.
type composedRun struct {
	stats  cpu.Stats
	cycles [2]uint64
	rt     RuntimeStats
}

// TestObserverComposition builds the trace program once per subset of
// the four observers, adds a second CPU, runs the guest, commits in
// stop-machine mode, then commits again under a one-point fault plan,
// which aborts. Every
// attached observer must get its output, whatever else is attached:
// spanned events in the collector, a failure dump in the recorder, the
// watchdog's alert in both of those and in its own count, and in the
// registry the runtime's counters, the watchdog's rule counters and
// the dropped-event counter of the stream AddCPU made. No subset may
// move a cycle, a statistic or a runtime counter.
func TestObserverComposition(t *testing.T) {
	var ref composedRun
	for mask := 0; mask < 16; mask++ {
		var obs Observers
		var names []string
		if mask&1 != 0 {
			// A ring small enough that the second CPU's stream drops.
			obs.Trace = trace.NewCollector(trace.Options{Limit: 2})
			names = append(names, "trace")
		}
		if mask&2 != 0 {
			obs.Flight = trace.NewRecorder(0)
			names = append(names, "flight")
		}
		if mask&4 != 0 {
			// Fires once per abort: the rollback reports a nonzero
			// count of restored entries.
			obs.Watchdog = trace.NewWatchdog(append(trace.DefaultWatchdogRules(),
				trace.WatchdogRule{Name: "test-abort", Kind: trace.KindCommitAbort, Field: 'a', Threshold: 0}))
			names = append(names, "watchdog")
		}
		if mask&8 != 0 {
			obs.Metrics = metrics.New()
			names = append(names, "metrics")
		}
		name := strings.Join(names, "+")
		if name == "" {
			name = "none"
		}
		t.Run(name, func(t *testing.T) {
			got := runComposed(t, obs)
			if mask == 0 {
				ref = got
			} else if got != ref {
				t.Errorf("observers moved the run:\nobserved:   %+v\nunobserved: %+v", got, ref)
			}
		})
	}
}

// runComposed drives one observed run and checks each attached
// observer's output.
func runComposed(t *testing.T, obs Observers) composedRun {
	sys, err := BuildSystem(GenOptions{}, &obs, Source{Name: "trace", Text: traceProgram})
	if err != nil {
		t.Fatal(err)
	}
	cpu1, err := sys.Machine.AddCPU()
	if err != nil {
		t.Fatal(err)
	}
	sys.RT.SetCommitOptions(CommitOptions{Mode: ModeStopMachine})
	if _, err := sys.Machine.CallNamed("handle_request"); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetSwitch("feature_enabled", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetSwitch("feature_enabled", 0); err != nil {
		t.Fatal(err)
	}
	faultinject.Exact(faultinject.Point{Kind: faultinject.KindProtect}).Attach(sys.Machine)
	defer faultinject.Detach(sys.Machine)
	if _, err := sys.RT.Commit(); !errors.Is(err, ErrCommitAborted) {
		t.Fatalf("commit under the fault plan: %v, want ErrCommitAborted", err)
	}
	if n := sys.RT.Stats.StopMachines; n != 2 {
		t.Fatalf("%d stop-machine rendezvous, want one per commit", n)
	}

	alerted := func(evs []trace.Event) bool {
		for _, ev := range evs {
			if ev.Kind == trace.KindWatchdogAlert && ev.Name == "test-abort" {
				return true
			}
		}
		return false
	}
	if col := obs.Trace; col != nil {
		evs := col.Events()
		if !slices.ContainsFunc(evs, func(ev trace.Event) bool { return ev.Span != 0 }) {
			t.Errorf("collector holds no spanned event: %+v", evs)
		}
		if obs.Watchdog != nil && !alerted(evs) {
			t.Errorf("watchdog alert missing from the collector: %+v", evs)
		}
	}
	if rec := obs.Flight; rec != nil {
		d := rec.LastDump()
		if d == nil || d.Reason != "commit-abort" {
			t.Fatalf("recorder dump = %+v, want a commit-abort dump", d)
		}
		if obs.Watchdog != nil && !alerted(rec.Events()) {
			t.Errorf("watchdog alert missing from the flight recorder: %+v", rec.Events())
		}
	}
	if wd := obs.Watchdog; wd != nil && wd.Count("test-abort") != 1 {
		t.Errorf("watchdog counted %d aborts, want 1", wd.Count("test-abort"))
	}
	if reg := obs.Metrics; reg != nil {
		want := map[string]float64{
			`mv_commits_total`:       2,
			`mv_commit_aborts_total`: 1,
		}
		if wd := obs.Watchdog; wd != nil {
			for _, rule := range wd.RuleNames() {
				want[fmt.Sprintf(`mv_watchdog_alerts_total{rule=%q}`, rule)] = float64(wd.Count(rule))
			}
		}
		if col := obs.Trace; col != nil {
			streams := col.Streams()
			if len(streams) != 2 || streams[1].Dropped() == 0 {
				t.Fatalf("the second CPU's stream dropped nothing (%d streams)", len(streams))
			}
			for _, s := range streams {
				want[fmt.Sprintf(`mv_trace_dropped_events_total{stream=%q}`, s.Label())] = float64(s.Dropped())
			}
		}
		snap := reg.Snapshot()
		have := scrape(snap)
		for k, v := range want {
			if got, ok := have[k]; !ok || got != v {
				t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
			}
		}
		if fam := snap.Find("mv_rendezvous_latency_cycles"); fam == nil ||
			fam.Series[0].Hist.Count != uint64(sys.RT.Stats.StopMachines) {
			t.Errorf("rendezvous latency histogram = %+v, want %d observations", fam, sys.RT.Stats.StopMachines)
		}
	}
	return composedRun{
		stats:  sys.Machine.TotalStats(),
		cycles: [2]uint64{sys.Machine.CPU.Cycles(), cpu1.Cycles()},
		rt:     sys.RT.Stats,
	}
}

// scrape flattens a snapshot's counters and gauges by series, keyed
// name{label="value"} with at most one label.
func scrape(snap metrics.Snapshot) map[string]float64 {
	out := make(map[string]float64)
	for _, fam := range snap.Families {
		for _, s := range fam.Series {
			if s.Value == nil {
				continue
			}
			key := fam.Name
			for k, v := range s.Labels {
				key += fmt.Sprintf("{%s=%q}", k, v)
			}
			out[key] = *s.Value
		}
	}
	return out
}
