package trace

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// The cycle-domain invariant watchdog: configurable monitors over the
// event stream that fire structured alerts when a commit-path
// invariant degrades — a rendezvous taking too long, the deferred
// queue growing without draining, flush-retry or invalidation storms.
// Alerts are themselves trace events (KindWatchdogAlert) so they land
// in the collector, the flight recorder and the Chrome export, and
// they back the mv_watchdog_alerts_total{rule=...} metric.

// WatchdogRule is one invariant monitor. Two shapes exist:
//
//   - value rules (Count == 0): fire whenever the watched field of a
//     matching event exceeds Threshold;
//   - storm rules (Count > 0): fire when Count matching events occur
//     within a Window of cycles.
type WatchdogRule struct {
	Name string // metric label and alert name
	Kind Kind   // event kind the rule watches
	// Field selects which payload field a value rule compares:
	// 'a' or 'b'.
	Field     byte
	Threshold uint64 // value rules: fire when field > Threshold
	Window    uint64 // storm rules: cycle window
	Count     int    // storm rules: matches within Window that fire
}

func (r WatchdogRule) storm() bool { return r.Count > 0 }

// DefaultWatchdogRules returns the built-in monitors. Thresholds are
// deliberately loose for healthy runs; -watchdog-rules tightens them.
func DefaultWatchdogRules() []WatchdogRule {
	return []WatchdogRule{
		// A stop-machine or herding rendezvous should quiesce the fleet
		// in well under this many cycles.
		{Name: "rendezvous-latency", Kind: KindRendezvous, Field: 'a', Threshold: 5000},
		// Deferred-queue depth growing past this means stack-active
		// functions are never settling.
		{Name: "deferred-depth", Kind: KindDeferred, Field: 'b', Threshold: 8},
		// Repeated icache-flush re-broadcasts inside one window point at
		// a CPU that keeps missing shootdowns.
		{Name: "flush-retry-storm", Kind: KindFlushRetry, Window: 50000, Count: 16},
		// A storm of icache invalidations thrashes every CPU's decoded
		// superblock cache.
		{Name: "invalidation-storm", Kind: KindFlushICache, Window: 10000, Count: 64},
	}
}

// ParseWatchdogRules applies a "name=value,name=value" spec on top of
// the default rules: the value overrides a value rule's Threshold or a
// storm rule's Count. Unknown names are an error.
func ParseWatchdogRules(spec string) ([]WatchdogRule, error) {
	rules := DefaultWatchdogRules()
	if spec == "" {
		return rules, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("trace: watchdog rule %q: want name=value", part)
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: watchdog rule %q: %w", part, err)
		}
		found := false
		for i := range rules {
			if rules[i].Name != strings.TrimSpace(name) {
				continue
			}
			if rules[i].storm() {
				rules[i].Count = int(n)
			} else {
				rules[i].Threshold = n
			}
			found = true
			break
		}
		if !found {
			return nil, fmt.Errorf("trace: unknown watchdog rule %q", name)
		}
	}
	return rules, nil
}

// WatchdogAlert is one fired invariant violation.
type WatchdogAlert struct {
	Rule      string `json:"rule"`
	Cycle     uint64 `json:"cycle"`
	Span      uint64 `json:"span,omitempty"`
	Value     uint64 `json:"value"`
	Threshold uint64 `json:"threshold"`
}

// Watchdog evaluates its rules against every event it sees. It
// implements Tracer (Step/Call/Ret are no-ops — it never rides the
// interpreter hot path) and SpanCarrier; attach it as
// core.Observers.Watchdog.
type Watchdog struct {
	rules  []WatchdogRule
	counts []uint64
	recent [][]uint64 // per storm rule: match cycles within the window
	alerts []WatchdogAlert
	span   uint64
	clock  func() uint64

	// Sink, when non-nil, receives a KindWatchdogAlert event per fire
	// (typically the runtime's tracer tee, so alerts reach the
	// collector and the flight recorder).
	Sink Tracer
}

// NewWatchdog returns a watchdog over rules (nil means the defaults).
func NewWatchdog(rules []WatchdogRule) *Watchdog {
	if rules == nil {
		rules = DefaultWatchdogRules()
	}
	return &Watchdog{
		rules:  rules,
		counts: make([]uint64, len(rules)),
		recent: make([][]uint64, len(rules)),
	}
}

// SetClock installs the cycle clock used for storm windows and alert
// stamps.
func (w *Watchdog) SetClock(f func() uint64) { w.clock = f }

func (w *Watchdog) now() uint64 {
	if w.clock == nil {
		return 0
	}
	return w.clock()
}

// RuleNames returns the rule names in order (metric label values).
func (w *Watchdog) RuleNames() []string {
	out := make([]string, len(w.rules))
	for i, r := range w.rules {
		out[i] = r.Name
	}
	return out
}

// Count returns how often the named rule fired.
func (w *Watchdog) Count(rule string) uint64 {
	for i, r := range w.rules {
		if r.Name == rule {
			return w.counts[i]
		}
	}
	return 0
}

// Alerts returns every fired alert in order.
func (w *Watchdog) Alerts() []WatchdogAlert { return w.alerts }

// Fired reports whether any rule fired.
func (w *Watchdog) Fired() bool { return len(w.alerts) > 0 }

func (w *Watchdog) fire(i int, value uint64) {
	r := w.rules[i]
	w.counts[i]++
	w.alerts = append(w.alerts, WatchdogAlert{
		Rule: r.Name, Cycle: w.now(), Span: w.span,
		Value: value, Threshold: w.threshold(i),
	})
	if w.Sink != nil {
		w.Sink.EmitName(KindWatchdogAlert, 0, value, w.threshold(i), r.Name)
	}
}

func (w *Watchdog) threshold(i int) uint64 {
	if w.rules[i].storm() {
		return uint64(w.rules[i].Count)
	}
	return w.rules[i].Threshold
}

func (w *Watchdog) observe(k Kind, a, b uint64) {
	// The watchdog's own alerts flow back through the shared tee; never
	// match on them or a firing rule would recurse.
	if k == KindWatchdogAlert {
		return
	}
	now := w.now()
	for i := range w.rules {
		r := &w.rules[i]
		if r.Kind != k {
			continue
		}
		if r.storm() {
			keep := w.recent[i][:0]
			for _, c := range w.recent[i] {
				if now-c <= r.Window {
					keep = append(keep, c)
				}
			}
			w.recent[i] = append(keep, now)
			if len(w.recent[i]) >= r.Count {
				w.fire(i, uint64(len(w.recent[i])))
				w.recent[i] = w.recent[i][:0]
			}
			continue
		}
		v := a
		if r.Field == 'b' {
			v = b
		}
		if v > r.Threshold {
			w.fire(i, v)
		}
	}
}

// Emit implements Tracer.
func (w *Watchdog) Emit(k Kind, addr, a, b uint64) { w.observe(k, a, b) }

// EmitName implements Tracer.
func (w *Watchdog) EmitName(k Kind, addr, a, b uint64, name string) { w.observe(k, a, b) }

// Step implements Tracer as a no-op.
func (w *Watchdog) Step(pc, cycles uint64, in *isa.Inst) {}

// Call implements Tracer as a no-op.
func (w *Watchdog) Call(pc, target uint64) {}

// Ret implements Tracer as a no-op.
func (w *Watchdog) Ret(pc, target uint64) {}

// SetSpan implements SpanCarrier.
func (w *Watchdog) SetSpan(id uint64) { w.span = id }
