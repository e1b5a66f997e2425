package core

import (
	"fmt"

	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/trace"
)

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

// Observers are the optional observers of a built system. Each one is
// wired in only when set, so the zero value observes nothing. A
// collector and a registry may serve many systems (mvbench builds
// every experiment with the same ones): each system adds its streams
// to the one collector, and the registry sums every system's counters.
// A recorder or a watchdog follows one system: attached again, it is
// clocked from, and a watchdog alerts into, the system attached last.
type Observers struct {
	// Trace collects cycle-stamped events, and profiles when it was
	// made to, on one stream per hardware thread.
	Trace *trace.Collector
	// Flight is the always-on flight recorder. It sees the commit
	// path's events and gets a failure dump on every commit abort and
	// audit failure, without touching any CPU hot path.
	Flight *trace.Recorder
	// Watchdog checks cycle-domain invariants of the commit path; its
	// alerts land in Trace and Flight.
	Watchdog *trace.Watchdog
	// Metrics reads the machine's and the runtime's counters at scrape
	// time, together with each stream's dropped events and each
	// watchdog rule's alerts.
	Metrics *metrics.Registry
}

// Attach wires the set observers into a machine and its runtime in the
// one order in which they compose:
//   - the collector's "cpu0" stream, clocked from the primary CPU,
//     becomes the CPU's, the memory system's and the runtime's tracer,
//     and the machine gives each CPU that AddCPU adds a stream of its
//     own;
//   - the recorder tees onto the memory, runtime and machine hooks;
//   - the watchdog tees onto the runtime and machine hooks, and sends
//     its alerts into the runtime's tracer as it was before, so they
//     reach both the collector and the recorder;
//   - the registry reads the machine's and the runtime's counters,
//     every stream's dropped events and every watchdog rule's count.
//
// The first system attached to a collector installs its symbol table
// (image symbols plus synthesized variant names).
func (o Observers) Attach(m *machine.Machine, rt *Runtime) {
	if col := o.Trace; col != nil {
		if reg := o.Metrics; reg != nil {
			// Registered before the first stream is made, so each
			// stream of this system, AddCPU's included, counts once.
			col.OnNewStream(func(s *trace.Stream) {
				reg.CounterFunc("mv_trace_dropped_events_total",
					"Trace events overwritten because a stream's ring buffer was full.",
					s.Dropped, metrics.L("stream", s.Label()))
			})
		}
		s := col.NewStream("cpu0", m.CPU.Cycles)
		m.CPU.SetTracer(s)
		m.Mem.Tracer = s
		rt.Tracer = s
		m.TraceCollector = col
		if !col.HasSymbols() {
			col.SetSymbols(trace.NewSymTable(TraceSymbols(m.Image, rt.desc)))
		}
	}
	if rec := o.Flight; rec != nil {
		rec.SetClock(m.CPU.Cycles)
		m.Mem.Tracer = trace.NewTee(m.Mem.Tracer, rec)
		m.Observer = trace.NewTee(m.Observer, rec)
		rt.Tracer = trace.NewTee(rt.Tracer, rec)
		rt.flight = rec
	}
	if wd := o.Watchdog; wd != nil {
		wd.SetClock(m.CPU.Cycles)
		wd.Sink = rt.Tracer
		rt.Tracer = trace.NewTee(rt.Tracer, wd)
		m.Observer = trace.NewTee(m.Observer, wd)
	}
	if reg := o.Metrics; reg != nil {
		attachMetrics(reg, m, rt)
		if wd := o.Watchdog; wd != nil {
			// Every rule is registered up front, so a healthy run
			// scrapes explicit zeros.
			for _, rule := range wd.RuleNames() {
				reg.CounterFunc("mv_watchdog_alerts_total",
					"Cycle-domain watchdog invariant violations by rule.",
					func() uint64 { return wd.Count(rule) }, metrics.L("rule", rule))
			}
		}
	}
}
