package machine

import (
	"errors"
	"fmt"

	"repro/internal/cpu"
)

// Range is a half-open address range [Addr, Addr+Len) that a quiescing
// CPU must not be stopped inside — typically the patchable windows the
// runtime library is about to rewrite.
type Range struct {
	Addr, Len uint64
}

func (r Range) contains(pc uint64) bool {
	return pc >= r.Addr && pc < r.Addr+r.Len
}

// stopMachineMaxSteps bounds how many instructions one CPU may be
// stepped while being herded out of the avoid ranges. Patch windows
// are a handful of bytes, so a few steps normally suffice; the bound
// exists only to turn a wedged CPU into an error instead of a hang.
const stopMachineMaxSteps = 4096

// StopMachine is the cooperative stop_machine rendezvous: every
// non-halted CPU is stepped to an instruction boundary outside all
// avoid ranges, then fn runs with the whole machine quiescent — no
// CPU can be mid-fetch of any byte fn rewrites. It returns the total
// rendezvous latency in simulated cycles (the cycles burned stepping
// CPUs to their safe points) along with fn's error.
//
// Injected transient faults (spurious fetch faults) during the
// rendezvous are retried; any other execution error aborts.
func (m *Machine) StopMachine(avoid []Range, fn func() error) (uint64, error) {
	inAvoid := func(pc uint64) bool {
		for _, r := range avoid {
			if r.contains(pc) {
				return true
			}
		}
		return false
	}
	var latency uint64
	for i, c := range m.cpus {
		if c.Halted() {
			continue
		}
		start := c.Cycles()
		for tries := 0; inAvoid(c.PC()); tries++ {
			if tries >= stopMachineMaxSteps {
				return latency, fmt.Errorf("machine: cpu %d failed to reach a safe point after %d steps (pc=%#x)",
					i, stopMachineMaxSteps, c.PC())
			}
			if err := c.Step(); err != nil {
				if isTransientFault(err) {
					continue // spurious fetch fault: nothing retired, retry
				}
				return latency, fmt.Errorf("machine: cpu %d while quiescing: %w", i, err)
			}
			if c.Halted() {
				break
			}
		}
		latency += c.Cycles() - start
	}
	return latency, fn()
}

// isTransientFault reports whether err's chain carries an injected
// fault that models a transient condition (the faultinject package
// marks those via a FaultTransient method; machine must not import it).
func isTransientFault(err error) bool {
	var tr interface{ FaultTransient() bool }
	return errors.As(err, &tr) && tr.FaultTransient()
}

// PokePhaser is implemented by fault injectors that want to observe
// text-poke protocol phases — e.g. to open a "drop the flush only
// inside the breakpoint window" injection window.
type PokePhaser interface {
	PokePhase(phase int, addr, n uint64)
}

// NotePokePhase announces a completed text-poke phase to the PokeHook
// and to a PokePhaser fault injector. Phases: 1 = BRK planted over the
// first byte, 2 = tail bytes written, 3 = first byte restored (poke
// complete). The runtime's journaled breakpoint-protocol write (a
// commit under core.ModeTextPoke) calls it after each phase's flush.
func (m *Machine) NotePokePhase(phase int, addr, n uint64) {
	if m.PokeHook != nil {
		m.PokeHook(phase, addr, n)
	}
	if p, ok := m.injector.(PokePhaser); ok {
		p.PokePhase(phase, addr, n)
	}
}

// liveStackScanWords bounds the per-CPU stack walk of LiveCodeAddrs.
const liveStackScanWords = 8192

// LiveCodeAddrs returns every code address currently live on some
// non-halted CPU: each PC plus the conservative return-address scan of
// each stack (see cpu.StackReturnAddresses). The runtime library's
// activeness check consults it before rebinding a function whose old
// variant may still be executing or awaiting return.
//
// The second result reports whether the list is complete. When a stack
// is deep enough that the liveStackScanWords bound cut a scan short,
// it is false and callers must treat *every* function as potentially
// active rather than trusting the truncated list.
func (m *Machine) LiveCodeAddrs() ([]uint64, bool) {
	var out []uint64
	complete := true
	for i, c := range m.cpus {
		if c.Halted() {
			continue
		}
		out = append(out, c.PC())
		ras, ok := c.StackReturnAddresses(m.stackTops[i], m.Image.HaltAddr, liveStackScanWords)
		if !ok {
			complete = false
		}
		out = append(out, ras...)
	}
	return out, complete
}

// OSRCPU pairs one non-halted CPU with the stack geometry an on-stack
// replacement needs to locate and rewrite its frames.
type OSRCPU struct {
	CPU      *cpu.CPU
	StackTop uint64
	HaltAddr uint64
	Index    int
}

// OSRCPUs returns every non-halted CPU with its stack bounds — the
// frame-transfer engine in core iterates these during a commit
// rendezvous.
func (m *Machine) OSRCPUs() []OSRCPU {
	var out []OSRCPU
	for i, c := range m.cpus {
		if c.Halted() {
			continue
		}
		out = append(out, OSRCPU{CPU: c, StackTop: m.stackTops[i], HaltAddr: m.Image.HaltAddr, Index: i})
	}
	return out
}
