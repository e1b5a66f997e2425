package core

import (
	"fmt"

	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// defaultTraceCollector, when non-nil, is attached to every System
// that BuildSystem constructs: mvbench and the difftests build systems
// deep inside experiment helpers, so a parameter cannot reach them.
var defaultTraceCollector *trace.Collector

// SetDefaultTraceCollector installs (or, with nil, removes) the
// collector that BuildSystem auto-attaches to new systems.
func SetDefaultTraceCollector(c *trace.Collector) { defaultTraceCollector = c }

// DefaultTraceCollector returns the collector BuildSystem attaches.
func DefaultTraceCollector() *trace.Collector { return defaultTraceCollector }

// TraceSymbols builds the symbol set the profiler and trace exporter
// resolve addresses against: every symbol inside an executable
// segment of the image, plus one synthesized symbol per generated
// variant body ("name.variant0", ...) — variants are emitted by the
// multiverse compiler pass and never make it into the linker's
// symbol table, but they are where committed execution spends its
// cycles.
func TraceSymbols(img *link.Image, desc *Descriptors) []trace.Sym {
	exec := func(addr uint64) bool {
		for _, seg := range img.Segments {
			if seg.Prot&mem.Exec != 0 && addr >= seg.Addr && addr < seg.Addr+uint64(len(seg.Data)) {
				return true
			}
		}
		return false
	}
	var syms []trace.Sym
	for name, s := range img.Symbols {
		if s.Size > 0 && exec(s.Addr) {
			syms = append(syms, trace.Sym{Name: name, Addr: s.Addr, Size: s.Size})
		}
	}
	if desc != nil {
		for i := range desc.Funcs {
			fd := &desc.Funcs[i]
			for vi := range fd.Variants {
				v := &fd.Variants[vi]
				syms = append(syms, trace.Sym{
					Name: fmt.Sprintf("%s.variant%d", fd.Name, vi),
					Addr: v.Addr,
					Size: v.Size,
				})
			}
		}
	}
	return syms
}

// AttachTracer wires a collector into every layer of a built system:
// a "cpu0" stream stamped from the primary CPU's cycle clock feeds
// the CPU hooks, the shared memory and the runtime library, and the
// machine remembers the collector so AddCPU gives later hardware
// threads their own streams. The first attached system also installs
// the collector's symbol table (image symbols plus synthesized
// variant names). Returns the created stream.
func AttachTracer(col *trace.Collector, m *machine.Machine, rt *Runtime) *trace.Stream {
	s := col.NewStream("cpu0", m.CPU.Cycles)
	m.CPU.SetTracer(s)
	m.Mem.Tracer = s
	if rt != nil {
		rt.Tracer = s
	}
	m.TraceCollector = col
	if !col.HasSymbols() {
		var desc *Descriptors
		if rt != nil {
			desc = rt.desc
		}
		col.SetSymbols(trace.NewSymTable(TraceSymbols(m.Image, desc)))
	}
	return s
}

// AttachTracer wires the collector into this system's machine and
// runtime (see the package-level AttachTracer).
func (s *System) AttachTracer(col *trace.Collector) *trace.Stream {
	return AttachTracer(col, s.Machine, s.RT)
}

// defaultFlightRecorder, when non-nil, is attached to every System
// BuildSystem constructs — the difftests use it to pin cycle counts
// bit-identical with the recorder attached and detached.
var defaultFlightRecorder *trace.Recorder

// SetDefaultFlightRecorder installs (or, with nil, removes) the flight
// recorder BuildSystem auto-attaches to new systems.
func SetDefaultFlightRecorder(r *trace.Recorder) { defaultFlightRecorder = r }

// DefaultFlightRecorder returns the recorder BuildSystem attaches.
func DefaultFlightRecorder() *trace.Recorder { return defaultFlightRecorder }

// AttachFlightRecorder wires the always-on flight recorder into a
// built system: it tees into the runtime's tracer hook (commit
// lifecycle, retries, rollbacks), the memory system's hook (injected
// faults) and the machine observer (shootdown broadcasts), and stamps
// events from the primary CPU's cycle clock. It deliberately touches
// no CPU tracer, so the interpreter makes no per-instruction call for
// it. The runtime will hand the recorder a failure dump on commit
// abort and audit failure.
//
// Attach any opt-in collector (AttachTracer) first: AttachTracer
// replaces the runtime's tracer outright, while this composes with
// whatever is already there.
func AttachFlightRecorder(rec *trace.Recorder, m *machine.Machine, rt *Runtime) {
	rec.SetClock(m.CPU.Cycles)
	m.Mem.Tracer = trace.NewTee(m.Mem.Tracer, rec)
	m.Observer = trace.NewTee(m.Observer, rec)
	if rt != nil {
		rt.Tracer = trace.NewTee(rt.Tracer, rec)
		rt.flight = rec
	}
}

// AttachFlightRecorder wires the recorder into this system's machine
// and runtime (see the package-level AttachFlightRecorder).
func (s *System) AttachFlightRecorder(rec *trace.Recorder) {
	AttachFlightRecorder(rec, s.Machine, s.RT)
}

// AttachWatchdog wires a cycle-domain invariant watchdog into a built
// system: it observes the runtime's tracer hook (rendezvous latencies,
// deferred-queue depths, flush retries) and the machine observer
// (invalidation broadcasts), clocked from the primary CPU. Alerts are
// re-emitted as KindWatchdogAlert events into whatever tracer chain
// was attached before the watchdog (collector streams, the flight
// recorder), so they land in traces and failure dumps.
func AttachWatchdog(wd *trace.Watchdog, m *machine.Machine, rt *Runtime) {
	wd.SetClock(m.CPU.Cycles)
	if rt != nil {
		wd.Sink = rt.Tracer
		rt.Tracer = trace.NewTee(rt.Tracer, wd)
	}
	m.Observer = trace.NewTee(m.Observer, wd)
}

// AttachWatchdog wires the watchdog into this system's machine and
// runtime (see the package-level AttachWatchdog).
func (s *System) AttachWatchdog(wd *trace.Watchdog) {
	AttachWatchdog(wd, s.Machine, s.RT)
}

// AttachTraceMetrics surfaces the collector's per-stream dropped-event
// counts as mv_trace_dropped_events_total{stream=...}. Streams created
// later (machine.AddCPU gives each hardware thread its own stream) are
// picked up through the collector's new-stream observer.
func AttachTraceMetrics(reg *metrics.Registry, col *trace.Collector) {
	register := func(s *trace.Stream) {
		reg.CounterFunc("mv_trace_dropped_events_total",
			"Trace events overwritten because a stream's ring buffer was full.",
			s.Dropped, metrics.L("stream", s.Label()))
	}
	for _, s := range col.Streams() {
		register(s)
	}
	col.OnNewStream(register)
}

// AttachWatchdogMetrics exports each watchdog rule's fire count as
// mv_watchdog_alerts_total{rule=...}. Every rule is registered up
// front so a healthy run scrapes explicit zeros.
func AttachWatchdogMetrics(reg *metrics.Registry, wd *trace.Watchdog) {
	for _, rule := range wd.RuleNames() {
		rule := rule
		reg.CounterFunc("mv_watchdog_alerts_total",
			"Cycle-domain watchdog invariant violations by rule.",
			func() uint64 { return wd.Count(rule) }, metrics.L("rule", rule))
	}
}
