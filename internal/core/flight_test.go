package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestAbortFlightDumpShowsSpanTree is the flight recorder's acceptance
// path: a text-poke commit whose protect flip fails persistently must
// abort, and the recorder's failure dump must hold the whole causal
// story on one commit span — herding rendezvous, poke phases, journal
// rollback, then the abort — without any tracer having been attached.
func TestAbortFlightDumpShowsSpanTree(t *testing.T) {
	sys := buildFig2(t)
	rec := trace.NewRecorder(0)
	Observers{Flight: rec}.Attach(sys.Machine, sys.RT)
	sys.RT.SetCommitOptions(CommitOptions{Mode: ModeTextPoke})
	if err := sys.SetSwitch("A", 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetSwitch("B", 1); err != nil {
		t.Fatal(err)
	}

	plan := faultinject.Exact(faultinject.Point{Kind: faultinject.KindProtect, Op: 2})
	plan.Attach(sys.Machine)
	defer faultinject.Detach(sys.Machine)

	_, err := sys.RT.Commit()
	if !errors.Is(err, ErrCommitAborted) {
		t.Fatalf("want ErrCommitAborted, got %v", err)
	}

	d := rec.LastDump()
	if d == nil {
		t.Fatal("abort did not leave a flight dump")
	}
	if d.Reason != "commit-abort" {
		t.Fatalf("dump reason = %q, want commit-abort", d.Reason)
	}

	evs := make([]trace.Event, len(d.Events))
	for i, fe := range d.Events {
		ev, err := fe.Event()
		if err != nil {
			t.Fatal(err)
		}
		evs[i] = ev
	}

	// Everything hangs off the aborted commit's span.
	span := uint64(0)
	for _, ev := range evs {
		if ev.Kind == trace.KindCommitAbort {
			span = ev.Span
		}
	}
	if span == 0 {
		t.Fatalf("no spanned CommitAbort in dump: %+v", d.Events)
	}

	// The span tree reads rendezvous -> poke phase -> rollback -> abort.
	order := map[trace.Kind]int{}
	var phases []string
	for i, ev := range evs {
		if ev.Span != span {
			continue
		}
		if _, seen := order[ev.Kind]; !seen {
			order[ev.Kind] = i
		}
		if ev.Kind == trace.KindPhaseBegin {
			phases = append(phases, ev.Name)
		}
	}
	for _, k := range []trace.Kind{
		trace.KindCommitBegin, trace.KindRendezvous, trace.KindPokePhase,
		trace.KindRollback, trace.KindCommitAbort,
	} {
		if _, ok := order[k]; !ok {
			t.Fatalf("span %d is missing a %s event: %+v", span, k.Name(), d.Events)
		}
	}
	if !(order[trace.KindRendezvous] < order[trace.KindPokePhase] &&
		order[trace.KindPokePhase] < order[trace.KindRollback] &&
		order[trace.KindRollback] < order[trace.KindCommitAbort]) {
		t.Fatalf("span events out of causal order: %+v", d.Events)
	}
	joined := strings.Join(phases, " ")
	for _, want := range []string{"herd", "poke", "rollback"} {
		if !strings.Contains(joined, want) {
			t.Errorf("span phases %q missing %q", joined, want)
		}
	}
}

// TestOpSpansAreDistinct: consecutive runtime operations get distinct,
// monotonically increasing span IDs, and events outside any operation
// stay unspanned.
func TestOpSpansAreDistinct(t *testing.T) {
	sys := buildFig2(t)
	rec := trace.NewRecorder(0)
	Observers{Flight: rec}.Attach(sys.Machine, sys.RT)

	setAndCommit(t, sys, map[string]int64{"A": 1, "B": 1})
	if err := sys.RT.Revert(); err != nil {
		t.Fatal(err)
	}

	var spans []uint64
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.KindCommitBegin, trace.KindRevertBegin:
			spans = append(spans, ev.Span)
		}
	}
	if len(spans) < 2 {
		t.Fatalf("expected a commit and a revert span, got %v", spans)
	}
	seen := map[uint64]bool{}
	last := uint64(0)
	for _, s := range spans {
		if s == 0 {
			t.Fatal("operation event is unspanned")
		}
		if seen[s] {
			t.Fatalf("span %d reused across operations: %v", s, spans)
		}
		seen[s] = true
		if s <= last {
			t.Fatalf("spans not monotonic: %v", spans)
		}
		last = s
	}
}

// TestWatchdogMetricsEndToEnd drives an alert through the full attach
// chain: runtime event -> watchdog rule -> alert counter -> Prometheus
// exposition.
func TestWatchdogMetricsEndToEnd(t *testing.T) {
	sys := buildFig2(t)
	// A commit always reports committed > 0 functions in A, so this
	// rule deterministically fires once per successful commit.
	wd := trace.NewWatchdog([]trace.WatchdogRule{
		{Name: "test-commit", Kind: trace.KindCommitEnd, Field: 'a', Threshold: 0},
	})
	reg := metrics.New()
	Observers{Watchdog: wd, Metrics: reg}.Attach(sys.Machine, sys.RT)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `mv_watchdog_alerts_total{rule="test-commit"} 0`) {
		t.Fatalf("healthy scrape should expose an explicit zero:\n%s", sb.String())
	}

	setAndCommit(t, sys, map[string]int64{"A": 1, "B": 1})
	if !wd.Fired() {
		t.Fatal("watchdog did not observe the commit")
	}
	if a := wd.Alerts()[0]; a.Span == 0 {
		t.Errorf("alert not stamped with the commit span: %+v", a)
	}

	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `mv_watchdog_alerts_total{rule="test-commit"} 1`) {
		t.Fatalf("fired rule not visible in exposition:\n%s", sb.String())
	}
}
