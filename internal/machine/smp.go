package machine

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// AddCPU attaches another hardware thread to the machine. The new CPU
// shares the memory (and therefore sees all binary patching) but has
// its own registers, branch predictors and instruction cache — so one
// thread's flush never invalidates another's decodes, even where a
// machine's line table (WithLines) lets them share lines — and its own
// stack. Instruction-level interleaving of CPUs is up to the
// caller (see Interleave); each instruction executes atomically, so
// XCHG retains its locked semantics across CPUs.
func (m *Machine) AddCPU() (*cpu.CPU, error) {
	// Compute the slot before claiming it: a failed Map must not leak
	// the slot index (which would leave a permanent hole in the stack
	// layout and desynchronize stackTops from cpus).
	slot := uint64(m.extraCPUs + 1)
	span := (stackPages + 4) * mem.PageSize
	if slot*span+stackPages*mem.PageSize > stackTop {
		return nil, fmt.Errorf("machine: no address space below %#x for cpu %d's stack", stackTop, slot)
	}
	top := stackTop - slot*span
	base := top - stackPages*mem.PageSize
	if err := m.Mem.Map(base, stackPages*mem.PageSize, mem.RW); err != nil {
		// Typically the stack marched down into an image segment or heap
		// mapping; Map names the exact colliding page.
		return nil, fmt.Errorf("machine: stack for cpu %d at [%#x, %#x): %w", slot, base, top, err)
	}
	m.extraCPUs++
	m.stackTops = append(m.stackTops, top)
	c := cpu.New(m.Mem, m.CPU.Config())
	c.SetReg(isa.SP, top)
	c.OutB = m.CPU.OutB
	// The Config copy carries the primary CPU's tracer, whose stream is
	// stamped from the primary's clock; give this CPU a stream of its
	// own, or none.
	if m.TraceCollector != nil {
		c.SetTracer(m.TraceCollector.NewStream(fmt.Sprintf("cpu%d", m.extraCPUs), c.Cycles))
	} else {
		c.SetTracer(nil)
	}
	// A machine-wide injector covers late-added threads too, under the
	// hardware-thread index the fault plan keys on.
	c.SetInjector(m.injector, len(m.cpus))
	c.SetLineTable(m.lines)
	m.cpus = append(m.cpus, c)
	return c, nil
}

// StartCall prepares a CPU to execute the named function with the
// given arguments, without running it: the PC points at the function
// and the return address is the halt stub. Drive it with Run, Step or
// Interleave; CallNamed is StartCall on the primary CPU, then Run.
func (m *Machine) StartCall(c *cpu.CPU, name string, args ...uint64) error {
	addr, err := m.Symbol(name)
	if err != nil {
		return err
	}
	if len(args) > 6 {
		return fmt.Errorf("machine: at most 6 arguments, got %d", len(args))
	}
	for i, v := range args {
		c.SetReg(isa.Reg(i), v)
	}
	sp := c.Reg(isa.SP) - 8
	if err := m.Mem.WriteUint(sp, 8, m.Image.HaltAddr); err != nil {
		return err
	}
	c.SetReg(isa.SP, sp)
	c.SetPC(addr)
	return nil
}

// Interleave steps the given CPUs according to quanta: CPU i executes
// quanta[i] instructions per round, round-robin, until every CPU has
// halted. It returns the total number of instructions executed.
// Uneven quanta explore different interleavings deterministically.
// Every quantum must be >= 1: a zero quantum would keep a non-halted
// CPU "running" without ever stepping it, spinning the round-robin
// loop forever.
func (m *Machine) Interleave(cpus []*cpu.CPU, quanta []int, maxSteps uint64) (uint64, error) {
	if len(cpus) != len(quanta) {
		return 0, fmt.Errorf("machine: %d cpus but %d quanta", len(cpus), len(quanta))
	}
	for i, q := range quanta {
		if q < 1 {
			return 0, fmt.Errorf("machine: quantum %d for cpu %d (must be >= 1)", q, i)
		}
	}
	var total uint64
	for {
		anyRunning := false
		for i, c := range cpus {
			if c.Halted() {
				continue
			}
			anyRunning = true
			for q := 0; q < quanta[i] && !c.Halted(); q++ {
				// Exact bound: executing instruction maxSteps+1 is the
				// violation, so refuse before stepping, not one step after.
				if total == maxSteps {
					return total, fmt.Errorf("machine: interleave exceeded %d steps", maxSteps)
				}
				if err := c.Step(); err != nil {
					return total, fmt.Errorf("machine: cpu %d: %w", i, err)
				}
				total++
			}
		}
		if !anyRunning {
			return total, nil
		}
	}
}
