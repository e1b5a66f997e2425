package trace

import (
	"strings"
	"testing"
)

func TestWatchdogValueRule(t *testing.T) {
	w := NewWatchdog([]WatchdogRule{
		{Name: "rendezvous-latency", Kind: KindRendezvous, Field: 'a', Threshold: 100},
	})
	w.Emit(KindRendezvous, 0, 100, 1) // at the threshold: healthy
	if w.Fired() {
		t.Fatal("value rule fired at (not above) its threshold")
	}
	w.SetSpan(5)
	w.Emit(KindRendezvous, 0, 101, 1)
	alerts := w.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("got %d alerts, want 1", len(alerts))
	}
	a := alerts[0]
	if a.Rule != "rendezvous-latency" || a.Value != 101 || a.Threshold != 100 || a.Span != 5 {
		t.Fatalf("alert = %+v", a)
	}
	if w.Count("rendezvous-latency") != 1 {
		t.Errorf("Count = %d, want 1", w.Count("rendezvous-latency"))
	}
	// Other kinds and the other payload field never match.
	w.Emit(KindDeferred, 0, 9999, 0)
	if len(w.Alerts()) != 1 {
		t.Error("rule matched an unrelated kind")
	}
}

func TestWatchdogFieldB(t *testing.T) {
	w := NewWatchdog([]WatchdogRule{
		{Name: "deferred-depth", Kind: KindDeferred, Field: 'b', Threshold: 2},
	})
	w.Emit(KindDeferred, 0, 999, 2) // depth rides in B; A is the op code
	if w.Fired() {
		t.Fatal("field-b rule compared field A")
	}
	w.Emit(KindDeferred, 0, 0, 3)
	if !w.Fired() {
		t.Fatal("field-b rule did not fire on B above threshold")
	}
}

func TestWatchdogStormRule(t *testing.T) {
	cycle := uint64(0)
	w := NewWatchdog([]WatchdogRule{
		{Name: "flush-retry-storm", Kind: KindFlushRetry, Window: 100, Count: 3},
	})
	w.SetClock(func() uint64 { return cycle })

	// Three matches spread wider than the window: never fires.
	for _, c := range []uint64{0, 200, 400} {
		cycle = c
		w.Emit(KindFlushRetry, 0, 4, 1)
	}
	if w.Fired() {
		t.Fatal("storm rule fired on matches outside the window")
	}
	// Three matches inside one window: fires once, then the window
	// resets so the next lone match stays quiet.
	for _, c := range []uint64{1000, 1010, 1020} {
		cycle = c
		w.Emit(KindFlushRetry, 0, 4, 1)
	}
	if w.Count("flush-retry-storm") != 1 {
		t.Fatalf("Count = %d, want 1", w.Count("flush-retry-storm"))
	}
	cycle = 1030
	w.Emit(KindFlushRetry, 0, 4, 1)
	if w.Count("flush-retry-storm") != 1 {
		t.Error("storm window did not reset after firing")
	}
}

func TestWatchdogAlertsReachSinkWithoutRecursion(t *testing.T) {
	w := NewWatchdog([]WatchdogRule{
		{Name: "rendezvous-latency", Kind: KindRendezvous, Field: 'a', Threshold: 10},
	})
	rec := NewRecorder(0)
	// Simulate the attach wiring: the sink tee includes the watchdog
	// itself, as it does when rt.Tracer is teed after the watchdog attaches.
	w.Sink = NewTee(rec, w)
	w.Emit(KindRendezvous, 0, 50, 1)
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Kind != KindWatchdogAlert {
		t.Fatalf("sink saw %v, want one WatchdogAlert", evs)
	}
	if evs[0].A != 50 || evs[0].B != 10 || evs[0].Name != "rendezvous-latency" {
		t.Fatalf("alert payload = %+v", evs[0])
	}
	if len(w.Alerts()) != 1 {
		t.Fatalf("recursion: %d alerts, want 1", len(w.Alerts()))
	}
}

func TestParseWatchdogRules(t *testing.T) {
	rules, err := ParseWatchdogRules("rendezvous-latency=42, flush-retry-storm=3")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]WatchdogRule{}
	for _, r := range rules {
		byName[r.Name] = r
	}
	if got := byName["rendezvous-latency"].Threshold; got != 42 {
		t.Errorf("rendezvous-latency threshold = %d, want 42", got)
	}
	if got := byName["flush-retry-storm"].Count; got != 3 {
		t.Errorf("flush-retry-storm count = %d, want 3", got)
	}
	// Untouched rules keep their defaults.
	if got := byName["deferred-depth"].Threshold; got != 8 {
		t.Errorf("deferred-depth threshold = %d, want default 8", got)
	}

	if _, err := ParseWatchdogRules("no-such-rule=1"); err == nil {
		t.Error("unknown rule name should error")
	}
	if _, err := ParseWatchdogRules("rendezvous-latency=abc"); err == nil {
		t.Error("non-numeric value should error")
	}
	if _, err := ParseWatchdogRules("rendezvous-latency"); err == nil || !strings.Contains(err.Error(), "name=value") {
		t.Errorf("missing '=' should error, got %v", err)
	}
}
