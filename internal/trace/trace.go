// Package trace is the unified tracing and profiling subsystem of the
// simulated multiverse stack.
//
// The paper's entire evaluation (§6) is about *observing* the cost of
// dynamic variability — call-site patch counts, icache flushes, cycle
// deltas across variant commits — so the simulator records exactly
// those moments as typed events: Commit/Revert spans with the switch
// values that drove them, per-site patches and prologue redirections,
// page-protection flips, icache invalidations, interrupts and branch
// mispredicts. Events are collected in bounded per-CPU ring buffers
// (one Stream per hardware thread plus the runtime library, each
// stamped from its CPU's simulated-cycle clock) and merged on the
// cycle timestamp at export time. Two outputs are supported:
//
//   - Chrome trace-event JSON (chrome.go), loadable in Perfetto, with
//     commit/revert rendered as duration spans and everything else as
//     instant events;
//   - flamegraph-compatible folded stacks plus flat per-function
//     cycle and call-edge counters (profile.go), attributed by symbol
//     name through a SymTable built from the linked image.
//
// The package deliberately depends on nothing but the standard
// library and internal/isa (which imports nothing of this repository)
// so that the lowest layers (internal/mem, internal/cpu) can emit
// events without import cycles. A nil Tracer means tracing is
// off; every hook in the hot interpreter path is a single
// pointer-nil check and costs no allocations (the difftests assert
// that simulated cycle counts are bit-identical with tracing on and
// off, and BenchmarkInterpreterThroughput bounds the host-side cost).
package trace

import (
	"sort"

	"repro/internal/isa"
)

// Kind classifies a trace event.
type Kind uint8

// Event kinds. Begin/End pairs become duration spans in the Chrome
// export; everything else is an instant event.
const (
	// Variability-management events (internal/core).
	KindCommitBegin     Kind = iota // a commit operation starts
	KindCommitEnd                   // A = functions bound, B = left generic
	KindRevertBegin                 // a revert operation starts
	KindRevertEnd                   //
	KindSwitchValue                 // Addr = switch, A = value, B = 1 for fn pointers, Name = switch name
	KindPatchSite                   // Addr = call site, A = patch-unit bytes, B = 1 when restoring the original
	KindProloguePatch               // Addr = generic entry, A = variant address, Name = function
	KindPrologueRestore             // Addr = generic entry, Name = function

	// Memory-system events (internal/mem, internal/cpu).
	KindProtect     // Addr, A = length, B = new prot | old prot << 8
	KindFlushICache // Addr, A = length

	// Microarchitectural events (internal/cpu).
	KindInterrupt  // Addr = pc, A = cycles stolen
	KindMispredict // Addr = pc, A = actual target/taken, B = 0 cond, 1 indirect, 2 ret

	// Fault-injection and crash-consistency events (internal/mem,
	// internal/cpu, internal/core). The B field of KindFaultInjected
	// carries the injected kind: 0 protect, 1 torn write, 2 dropped
	// icache flush, 3 spurious fetch fault.
	KindFaultInjected // Addr = faulting address, A = aux (length/tear/pc), B = fault kind
	KindCommitRetry   // Addr = retried patch address, A = attempt number
	KindCommitAbort   // Addr = commit scope, A = journal entries rolled back
	KindRollback      // Addr = restored range start, A = length

	// Cross-modifying-code events (internal/cpu, internal/machine,
	// internal/core).
	KindTrap       // Addr = pc that fetched a BRK byte
	KindPokePhase  // Addr = poked range start, A = length, B = phase (1 BRK in, 2 tail, 3 first byte)
	KindRendezvous // Addr = 0, A = rendezvous latency in cycles, B = CPUs quiesced
	KindDeferred   // Addr = function entry, A = 1 commit / 2 revert, B = queue depth, Name = function

	// Observability events (internal/core, flight.go, watchdog.go).
	KindFlushRetry    // Addr = range start, A = length, B = re-broadcast attempt
	KindDrainBegin    // a deferred-queue drain starts; A = queued operations
	KindDrainEnd      // A = operations applied, B = operations still queued
	KindPhaseBegin    // commit sub-phase opens; Name = phase ("herd", "poke", "rollback", ...)
	KindPhaseEnd      // commit sub-phase closes; Name = phase
	KindWatchdogAlert // A = observed value, B = threshold, Name = rule

	kindSentinel // count marker; keep last
)

// KindCount is the number of defined event kinds; reflection-style
// tests iterate Kind(0)..Kind(KindCount-1) to assert every kind has a
// Chrome-export category and a flight-recorder JSON encoding.
const KindCount = int(kindSentinel)

// kindNames gives each kind a unique, stable wire name — the encoding
// used by flight-recorder dumps, where Begin/End pairs must stay
// distinguishable (unlike String, which folds them for Chrome span
// display).
var kindNames = [KindCount]string{
	KindCommitBegin:     "CommitBegin",
	KindCommitEnd:       "CommitEnd",
	KindRevertBegin:     "RevertBegin",
	KindRevertEnd:       "RevertEnd",
	KindSwitchValue:     "SwitchValue",
	KindPatchSite:       "PatchSite",
	KindProloguePatch:   "ProloguePatch",
	KindPrologueRestore: "PrologueRestore",
	KindProtect:         "Protect",
	KindFlushICache:     "FlushICache",
	KindInterrupt:       "Interrupt",
	KindMispredict:      "Mispredict",
	KindFaultInjected:   "FaultInjected",
	KindCommitRetry:     "CommitRetry",
	KindCommitAbort:     "CommitAbort",
	KindRollback:        "Rollback",
	KindTrap:            "Trap",
	KindPokePhase:       "PokePhase",
	KindRendezvous:      "Rendezvous",
	KindDeferred:        "Deferred",
	KindFlushRetry:      "FlushRetry",
	KindDrainBegin:      "DrainBegin",
	KindDrainEnd:        "DrainEnd",
	KindPhaseBegin:      "PhaseBegin",
	KindPhaseEnd:        "PhaseEnd",
	KindWatchdogAlert:   "WatchdogAlert",
}

// Name returns the kind's unique wire name (flight-dump encoding).
func (k Kind) Name() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "Unknown"
}

// ParseKind resolves a wire name produced by Kind.Name back to the
// kind, so flight dumps round-trip through JSON.
func ParseKind(name string) (Kind, bool) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), true
		}
	}
	return 0, false
}

// String names the kind as exported to Chrome traces.
func (k Kind) String() string {
	switch k {
	case KindCommitBegin, KindCommitEnd:
		return "Commit"
	case KindRevertBegin, KindRevertEnd:
		return "Revert"
	case KindSwitchValue:
		return "SwitchValue"
	case KindPatchSite:
		return "PatchSite"
	case KindProloguePatch:
		return "ProloguePatch"
	case KindPrologueRestore:
		return "PrologueRestore"
	case KindProtect:
		return "Protect"
	case KindFlushICache:
		return "FlushICache"
	case KindInterrupt:
		return "Interrupt"
	case KindMispredict:
		return "Mispredict"
	case KindFaultInjected:
		return "FaultInjected"
	case KindCommitRetry:
		return "CommitRetry"
	case KindCommitAbort:
		return "CommitAbort"
	case KindRollback:
		return "Rollback"
	case KindTrap:
		return "Trap"
	case KindPokePhase:
		return "PokePhase"
	case KindRendezvous:
		return "Rendezvous"
	case KindDeferred:
		return "Deferred"
	case KindFlushRetry:
		return "FlushRetry"
	case KindDrainBegin, KindDrainEnd:
		return "Drain"
	case KindPhaseBegin, KindPhaseEnd:
		return "Phase"
	case KindWatchdogAlert:
		return "WatchdogAlert"
	}
	return "Unknown"
}

// Event is one recorded occurrence. The meaning of Addr, A and B is
// per Kind (see the constants above).
type Event struct {
	Cycle uint64
	Addr  uint64
	A, B  uint64
	// Span is the commit-causality span the event belongs to: the
	// monotonic id core.Runtime assigns to each public commit, revert
	// or drain operation. 0 means "outside any operation". Because the
	// span is collector-wide, events on every stream — the victim CPU's
	// BRK trap, a secondary thread's icache shootdown, the memory
	// system's protection flip — carry the id of the commit that caused
	// them, which is what lets the Chrome export draw cross-CPU flow
	// arrows for a single commit.
	Span   uint64
	Name   string // optional symbolic label (switch or function name)
	Kind   Kind
	Stream int // id of the emitting Stream
}

// SpanCarrier is implemented by tracer sinks that stamp emitted events
// with the current commit-causality span. core.Runtime probes its
// Tracer for this interface at the start and end of every public
// operation; sinks that don't implement it simply record span 0.
type SpanCarrier interface {
	// SetSpan installs the current span id; 0 clears it.
	SetSpan(id uint64)
}

// Tracer is the hook interface the simulated stack calls into. A nil
// Tracer disables tracing; implementations must not mutate simulated
// state (tracing is strictly passive — cycle counts are bit-identical
// with any tracer attached or none).
//
// Emit/EmitName record variability and machine events; Step, Call and
// Ret feed the cycle-attribution profiler, instruction tracing and
// sampling, and are called on the interpreter hot path, in single
// steps and superblocks alike (no allocations).
type Tracer interface {
	// Emit records an event; the implementation stamps the cycle.
	Emit(k Kind, addr, a, b uint64)
	// EmitName is Emit with a symbolic label.
	EmitName(k Kind, addr, a, b uint64, name string)
	// Step observes one instruction before it executes: its pc, the
	// cycle counter and the instruction the CPU decoded, which is what
	// executes even where memory has since been patched without a
	// flush. in is valid only for the call.
	Step(pc, cycles uint64, in *isa.Inst)
	// Call observes a call edge from the instruction at pc to target.
	Call(pc, target uint64)
	// Ret observes a return from the instruction at pc to target.
	Ret(pc, target uint64)
}

// DefaultLimit is the default per-stream event-buffer bound.
const DefaultLimit = 1 << 16

// Options configures a Collector.
type Options struct {
	// Limit bounds each stream's event buffer; when full, the oldest
	// events are overwritten (and counted as dropped). 0 means
	// DefaultLimit.
	Limit int
	// Profile enables cycle-attribution profiling (folded stacks,
	// flat and call-edge counters) from the Step/Call/Ret feed.
	Profile bool
}

// Collector owns the per-CPU event streams and the optional profiler.
// It is not safe for concurrent use; the simulator interleaves CPUs
// on one goroutine (machine.Interleave), matching that model.
type Collector struct {
	limit   int
	streams []*Stream
	prof    *Profiler
	// symtab is kept even without profiling so the Chrome exporter
	// can annotate addresses with function names.
	symtab *SymTable
	// span is the collector-wide current commit-causality span; every
	// stream stamps it into recorded events (see Event.Span).
	span uint64
	// onNew observes streams created after OnNewStream was called
	// (AddCPU creates streams for late hardware threads; metric
	// attachment needs to see them).
	onNew func(*Stream)
}

// NewCollector returns an empty collector.
func NewCollector(o Options) *Collector {
	if o.Limit <= 0 {
		o.Limit = DefaultLimit
	}
	c := &Collector{limit: o.Limit}
	if o.Profile {
		c.prof = newProfiler()
	}
	return c
}

// SetSymbols installs the symbol table used for profiling attribution
// and for annotating exported events with function names.
func (c *Collector) SetSymbols(t *SymTable) {
	if c.prof != nil {
		c.prof.syms = t
		// Cached pc ranges were resolved against the old table.
		for _, s := range c.streams {
			s.cur.invalidate()
		}
	}
	c.symtab = t
}

// Symbols returns the installed symbol table (possibly nil).
func (c *Collector) Symbols() *SymTable { return c.symtab }

// HasSymbols reports whether a non-empty symbol table is installed.
func (c *Collector) HasSymbols() bool { return c.symtab != nil && len(c.symtab.syms) > 0 }

// NewStream adds an event stream stamped from clock (typically one
// CPU's Cycles method; nil stamps every event with cycle 0). The
// label names the stream in exports ("cpu0", "cpu1", ...).
func (c *Collector) NewStream(label string, clock func() uint64) *Stream {
	s := &Stream{
		col:   c,
		id:    len(c.streams),
		label: label,
		clock: clock,
		ring:  newRing(c.limit),
	}
	c.streams = append(c.streams, s)
	if c.onNew != nil {
		c.onNew(s)
	}
	return s
}

// OnNewStream registers an observer for streams created after this
// call (existing streams are the caller's to enumerate via Streams).
// core.Observers.Attach uses it to register each stream's
// dropped-event counter, for the per-CPU streams AddCPU creates too.
func (c *Collector) OnNewStream(f func(*Stream)) { c.onNew = f }

// Streams returns the collector's streams in creation order.
func (c *Collector) Streams() []*Stream { return c.streams }

// Events returns all buffered events merged across streams in
// simulated-cycle order (ties broken by stream creation order).
func (c *Collector) Events() []Event {
	var out []Event
	for _, s := range c.streams {
		out = append(out, s.Events()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cycle < out[j].Cycle })
	return out
}

// Dropped returns the total number of events overwritten because a
// stream's buffer was full.
func (c *Collector) Dropped() uint64 {
	var n uint64
	for _, s := range c.streams {
		n += s.dropped
	}
	return n
}

// StreamStat summarizes one stream for end-of-run reporting.
type StreamStat struct {
	Label   string
	Events  int
	Dropped uint64
}

// StreamStats returns per-stream event and drop counts in stream
// creation order (the primary CPU's stream first), so tools can tell
// the user which CPU's ring buffer overflowed.
func (c *Collector) StreamStats() []StreamStat {
	out := make([]StreamStat, 0, len(c.streams))
	for _, s := range c.streams {
		out = append(out, StreamStat{Label: s.label, Events: len(s.Events()), Dropped: s.dropped})
	}
	return out
}

// Stream is one bounded, cycle-stamped event sequence, usually bound
// to a single simulated CPU. It implements Tracer.
type Stream struct {
	col   *Collector
	id    int
	label string
	clock func() uint64
	ring

	cur profCursor
}

// ID returns the stream's id (the Chrome-trace tid).
func (s *Stream) ID() int { return s.id }

// Label returns the stream's display name.
func (s *Stream) Label() string { return s.label }

func (s *Stream) now() uint64 {
	if s.clock == nil {
		return 0
	}
	return s.clock()
}

// ring is a bounded event buffer that overwrites its oldest event once
// full; Stream and Recorder keep their events in one.
type ring struct {
	buf     []Event // ring once len == cap
	next    int     // overwrite position when full
	dropped uint64
}

func newRing(limit int) ring { return ring{buf: make([]Event, 0, limit)} }

func (r *ring) record(ev Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	r.dropped++
}

// Events returns the buffered events oldest-first.
func (r *ring) Events() []Event {
	if len(r.buf) < cap(r.buf) || r.next == 0 {
		return append([]Event(nil), r.buf...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Dropped returns how many events were overwritten.
func (r *ring) Dropped() uint64 { return r.dropped }

// Emit implements Tracer.
func (s *Stream) Emit(k Kind, addr, a, b uint64) {
	s.record(Event{Cycle: s.now(), Kind: k, Addr: addr, A: a, B: b, Span: s.col.span, Stream: s.id})
}

// EmitName implements Tracer.
func (s *Stream) EmitName(k Kind, addr, a, b uint64, name string) {
	s.record(Event{Cycle: s.now(), Kind: k, Addr: addr, A: a, B: b, Span: s.col.span, Name: name, Stream: s.id})
}

// SetSpan implements SpanCarrier: the span is collector-wide, so a
// commit's id reaches every stream — including the per-CPU streams of
// hardware threads the commit shoots down or traps.
func (s *Stream) SetSpan(id uint64) { s.col.span = id }
