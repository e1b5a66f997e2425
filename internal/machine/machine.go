// Package machine assembles memory, CPU and devices into a bootable
// simulated computer and loads linked images into it.
package machine

import (
	"bytes"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Stack layout.
const (
	stackTop   = uint64(0x7fff_f000)
	stackPages = uint64(64)
)

// ConsolePort is the device port whose byte writes are captured in the
// machine's console buffer.
const ConsolePort = 1

// Machine is a loaded, runnable simulated computer.
type Machine struct {
	Mem   *mem.Memory
	CPU   *cpu.CPU
	Image *link.Image

	console bytes.Buffer

	// MaxSteps bounds every Call; it guards against runaway guest
	// code. The default is 2^40.
	MaxSteps uint64

	// TraceCollector, when non-nil (set by core.Observers.Attach), gives
	// each CPU added with AddCPU its own cycle-stamped event stream.
	TraceCollector *trace.Collector

	// PokeHook, when non-nil, observes each completed phase of a
	// text poke (see NotePokePhase). Chaos harnesses use it to
	// interleave victim-CPU steps between protocol phases.
	PokeHook func(phase int, addr, n uint64)

	// Observer, when non-nil, receives machine-level observability
	// events — today one KindFlushICache per FlushICacheAll broadcast
	// (A = length, B = hardware threads invalidated). Unlike the
	// per-CPU collector streams it rides no interpreter hot path, so
	// core.Observers.Attach tees the flight recorder and the watchdog
	// on here without adding a per-instruction call.
	Observer trace.Tracer

	extraCPUs int        // secondary hardware threads added via AddCPU
	cpus      []*cpu.CPU // every hardware thread, primary first
	stackTops []uint64   // per-CPU stack top, parallel to cpus
	injector  Injector   // propagated to CPUs added after SetInjector
}

// Injector is the union of the memory-side and CPU-side fault
// injection hooks (internal/faultinject.Plan implements it).
type Injector interface {
	mem.Injector
	cpu.Injector
}

// SetInjector wires a fault injector into the memory system and every
// hardware thread (present and future: AddCPU propagates it). Passing
// nil detaches injection everywhere, restoring the hook-free fast
// paths.
func (m *Machine) SetInjector(inj Injector) {
	m.injector = inj
	if inj == nil {
		m.Mem.Inject = nil
		for i, c := range m.cpus {
			c.SetInjector(nil, i)
		}
		return
	}
	m.Mem.Inject = inj
	for i, c := range m.cpus {
		c.SetInjector(inj, i)
	}
}

// Injector returns the installed fault injector, if any.
func (m *Machine) Injector() Injector { return m.injector }

// FlushICacheAll invalidates [addr, addr+n) in the instruction cache
// of every hardware thread — the shootdown IPI broadcast a real SMP
// patching runtime performs. With fault injection attached, one CPU's
// invalidation may be dropped; ICacheStale detects the survivor.
func (m *Machine) FlushICacheAll(addr, n uint64) {
	for _, c := range m.cpus {
		c.FlushICache(addr, n)
	}
	if m.Observer != nil {
		m.Observer.Emit(trace.KindFlushICache, addr, n, uint64(len(m.cpus)))
	}
}

// ICacheStale reports whether any hardware thread still caches a
// pre-patch snapshot of [addr, addr+n) — the check a
// shootdown-acknowledge protocol performs before declaring a text
// patch globally visible.
func (m *Machine) ICacheStale(addr, n uint64) bool {
	for _, c := range m.cpus {
		if c.ICacheStale(addr, n) {
			return true
		}
	}
	return false
}

// Option configures machine construction.
type Option func(*options)

type options struct {
	wx bool
}

// WithWX enables the strict W^X memory policy, under which no page may
// be writable and executable at once.
func WithWX() Option {
	return func(o *options) { o.wx = true }
}

// New creates a machine and loads img into it.
func New(img *link.Image, opts ...Option) (*Machine, error) {
	var o options
	for _, f := range opts {
		f(&o)
	}
	m := mem.New()
	m.WXExclusive = o.wx

	for _, seg := range img.Segments {
		length := mem.PageAlignUp(uint64(len(seg.Data)))
		if length == 0 {
			continue
		}
		if err := m.Map(seg.Addr, length, mem.RW); err != nil {
			return nil, fmt.Errorf("machine: mapping segment at %#x: %w", seg.Addr, err)
		}
		if err := m.Write(seg.Addr, seg.Data); err != nil {
			return nil, err
		}
		if err := m.Protect(seg.Addr, length, seg.Prot); err != nil {
			return nil, fmt.Errorf("machine: protecting segment at %#x: %w", seg.Addr, err)
		}
	}
	if err := m.Map(stackTop-stackPages*mem.PageSize, stackPages*mem.PageSize, mem.RW); err != nil {
		return nil, err
	}

	c := cpu.New(m, cpu.DefaultConfig())
	c.SetReg(isa.SP, stackTop)
	mach := &Machine{Mem: m, CPU: c, Image: img, MaxSteps: 1 << 40,
		cpus: []*cpu.CPU{c}, stackTops: []uint64{stackTop}}
	c.OutB = func(port uint8, b byte) {
		if port == ConsolePort {
			mach.console.WriteByte(b)
		}
	}
	return mach, nil
}

// CPUs returns every hardware thread of the machine, the primary CPU
// first, then AddCPU threads in creation order. Telemetry readers
// (core.Observers.Metrics) iterate it at scrape time so late-added SMP
// threads are aggregated without re-registration.
func (m *Machine) CPUs() []*cpu.CPU { return m.cpus }

// TotalStats sums the execution statistics of every hardware thread.
func (m *Machine) TotalStats() cpu.Stats {
	var total cpu.Stats
	for _, c := range m.cpus {
		total = total.Add(c.Stats())
	}
	return total
}

// Console returns everything the program has written to the console
// port so far.
func (m *Machine) Console() []byte { return m.console.Bytes() }

// ResetConsole clears the console buffer.
func (m *Machine) ResetConsole() { m.console.Reset() }

// RestoreConsole replaces the console buffer's contents — the snapshot
// layer uses it so a restored program's console output continues from
// where the exported run left off.
func (m *Machine) RestoreConsole(data []byte) {
	m.console.Reset()
	m.console.Write(data)
}

// Symbol resolves a symbol address, failing loudly for typos.
func (m *Machine) Symbol(name string) (uint64, error) {
	s, ok := m.Image.Symbols[name]
	if !ok {
		return 0, fmt.Errorf("machine: undefined symbol %q", name)
	}
	return s.Addr, nil
}

// MustSymbol is Symbol for symbols that are known to exist.
func (m *Machine) MustSymbol(name string) uint64 {
	a, err := m.Symbol(name)
	if err != nil {
		panic(err)
	}
	return a
}

// CallNamed invokes the named function on the primary CPU with up to 6
// integer arguments in r0..r5 (StartCall) and runs it until it returns
// to the halt stub. It returns r0.
//
// The stack pointer is preserved across calls, so successive calls
// compose like successive calls from a C main.
func (m *Machine) CallNamed(name string, args ...uint64) (uint64, error) {
	if err := m.StartCall(m.CPU, name, args...); err != nil {
		return 0, err
	}
	if _, err := m.CPU.Run(m.MaxSteps); err != nil {
		return 0, err
	}
	return m.CPU.Reg(0), nil
}

// ReadGlobal reads size bytes of the global at the symbol as a
// little-endian unsigned integer.
func (m *Machine) ReadGlobal(name string, size int) (uint64, error) {
	addr, err := m.Symbol(name)
	if err != nil {
		return 0, err
	}
	return m.Mem.ReadUint(addr, size)
}

// WriteGlobal writes a little-endian unsigned integer of size bytes to
// the global at the symbol.
func (m *Machine) WriteGlobal(name string, size int, v uint64) error {
	addr, err := m.Symbol(name)
	if err != nil {
		return err
	}
	return m.Mem.WriteUint(addr, size, v)
}
