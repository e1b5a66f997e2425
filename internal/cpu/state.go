// CPU state export/import for deterministic machine snapshots.
//
// ExportState captures everything a CPU's future execution depends on:
// architectural state (registers, pc, flags operands, stack pointer is
// a register), the microarchitectural predictors (BTB, RAS) whose
// contents change simulated cycle counts, the interrupt-perturbation
// schedule, and — crucially — the instruction cache, because stale
// icache lines are architecturally visible in this machine: a CPU
// keeps executing its snapshot of a page until FlushICache, so two
// machines with identical memory but different resident lines can
// diverge.
//
// A line is exported as its page number, page version and bytes, and
// nothing else: the caches derived from it (decoded instructions,
// superblocks) and the CacheStats that count their work change no
// simulated cycle, so an imported line starts with empty derived
// caches, which refill from its bytes as the CPU runs, and the
// CacheStats start at zero. The BTB is exported sparsely: its size and
// its non-zero entries, which a running CPU has few of. ImportState
// accepts only the canonical form ExportState writes — BTB entries
// non-zero, inside the BTB and strictly ascending by index, lines
// strictly ascending by page number and a page long — and checks all
// of it before it changes any CPU field, so a rejected state leaves
// the CPU as it was.
//
// Host wiring — the memory reference, the cost model, tracers, fault
// injectors, device callbacks, the line table, the icache line memo
// and Step's decode-miss slot — is deliberately not state: it belongs
// to the constructing harness, the memo is rebuilt lazily, and the
// slot is scratch space each decode miss overwrites. state_test.go
// enumerates every CPU field and fails compilation of a lie: adding a
// field without classifying it as serialized or host-wiring breaks the
// build gate.

package cpu

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/mem"
)

// BTBState is one exported branch-target-buffer entry that is not the
// zero entry, with its index in the BTB.
type BTBState struct {
	Index   int
	Valid   bool
	Tag     uint64
	Counter uint8
	Target  uint64
}

// ICLineState is one exported instruction-cache line.
type ICLineState struct {
	PN      uint64 // page number
	Version uint64 // page write-version at fill time
	// Bytes is the PageSize-long snapshot of the page at fill time. From
	// ExportState it is a view of the line, not a copy: a line's bytes
	// are written only when it is filled or imported, so the view stays
	// valid for good, and it must not be written through.
	Bytes []byte
}

// State is the complete serializable state of one CPU.
type State struct {
	Regs   [isa.NumRegs]uint64
	PC     uint64
	Cycles uint64
	Halted bool
	CmpA   int64
	CmpB   int64

	BTBSize int        // entries in the BTB
	BTB     []BTBState // its non-zero entries, by ascending Index
	RAS     []uint64
	RASN    int

	Mode       uint8
	IntrOn     bool
	IntrPeriod uint64
	IntrCost   uint64
	NextIntr   uint64

	ICache []ICLineState // by ascending PN
	Stats  RunStats
}

// ExportState captures this CPU's complete state. The result shares no
// memory with the CPU but the lines' read-only Bytes views.
func (c *CPU) ExportState() State {
	s := State{
		Regs:       c.regs,
		PC:         c.pc,
		Cycles:     c.cycles,
		Halted:     c.halted,
		CmpA:       c.cmpA,
		CmpB:       c.cmpB,
		RAS:        append([]uint64(nil), c.ras...),
		RASN:       c.rasN,
		Mode:       uint8(c.mode),
		IntrOn:     c.intrOn,
		IntrPeriod: c.intrPeriod,
		IntrCost:   c.intrCost,
		NextIntr:   c.nextIntr,
		Stats:      c.stats.RunStats,
		BTBSize:    len(c.btb),
	}
	for i, e := range c.btb {
		if e != (btbEntry{}) {
			s.BTB = append(s.BTB, BTBState{Index: i, Valid: e.valid, Tag: e.tag, Counter: e.counter, Target: e.target})
		}
	}
	for pn, e := range c.icache {
		s.ICache = append(s.ICache, ICLineState{PN: pn, Version: e.version, Bytes: e.line.bytes[:]})
	}
	slices.SortFunc(s.ICache, func(a, b ICLineState) int { return cmp.Compare(a.PN, b.PN) })
	return s
}

// ImportState restores a previously exported state onto this CPU. The
// CPU must have been constructed with the same Config the exporting
// CPU used (the predictor geometry is checked; the cost model is the
// caller's contract). Each line is restored as its bytes and version,
// with empty derived caches — or, on a CPU with a LineTable, as the
// table's line for its page when that holds the same bytes, derived
// caches and all — and the CacheStats start at zero; every other
// counter continues from the snapshot's. On error the CPU and its
// table are unchanged.
func (c *CPU) ImportState(s State) error {
	if s.BTBSize != len(c.btb) {
		return fmt.Errorf("cpu: snapshot BTB has %d entries, this CPU %d (different Config)", s.BTBSize, len(c.btb))
	}
	for i, e := range s.BTB {
		switch {
		case e.Index < 0 || e.Index >= s.BTBSize:
			return fmt.Errorf("cpu: snapshot BTB entry index %d lies outside the %d-entry BTB", e.Index, s.BTBSize)
		case i > 0 && e.Index <= s.BTB[i-1].Index:
			return fmt.Errorf("cpu: snapshot BTB entry indices are not strictly ascending at %d", e.Index)
		case e == BTBState{Index: e.Index}:
			return fmt.Errorf("cpu: snapshot BTB entry %d is listed but is the zero entry", e.Index)
		}
	}
	if len(s.RAS) != len(c.ras) {
		return fmt.Errorf("cpu: snapshot RAS depth %d, this CPU %d (different Config)", len(s.RAS), len(c.ras))
	}
	for i, ls := range s.ICache {
		switch {
		case i > 0 && ls.PN <= s.ICache[i-1].PN:
			return fmt.Errorf("cpu: snapshot icache lines are not strictly ascending at %#x", ls.PN)
		case len(ls.Bytes) != mem.PageSize:
			return fmt.Errorf("cpu: snapshot icache line %#x holds %d bytes, want %d", ls.PN, len(ls.Bytes), mem.PageSize)
		}
	}
	icache := make(map[uint64]icEntry, len(s.ICache))
	for _, ls := range s.ICache {
		line := c.lines.blank()
		copy(line.bytes[:], ls.Bytes)
		icache[ls.PN] = icEntry{c.lines.share(ls.PN, line), ls.Version}
	}
	c.regs = s.Regs
	c.pc = s.PC
	c.cycles = s.Cycles
	c.halted = s.Halted
	c.cmpA, c.cmpB = s.CmpA, s.CmpB
	clear(c.btb)
	for _, e := range s.BTB {
		c.btb[e.Index] = btbEntry{valid: e.Valid, tag: e.Tag, counter: e.Counter, target: e.Target}
	}
	copy(c.ras, s.RAS)
	c.rasN = s.RASN
	c.mode = Mode(s.Mode)
	c.intrOn = s.IntrOn
	c.intrPeriod = s.IntrPeriod
	c.intrCost = s.IntrCost
	c.nextIntr = s.NextIntr
	c.icache = icache
	c.lastPN, c.lastLine = 0, nil // memo points at dropped lines
	c.cycleStop = 0
	c.stats = Stats{RunStats: s.Stats}
	return nil
}

// RunUntil executes until the cycle counter reaches target, the CPU
// halts, an error occurs, or maxSteps instructions retire. It returns
// the number of instructions executed.
//
// The pause point never perturbs the run: the superblock chain is
// interrupted only between block dispatches (execBlock is never asked
// to split a block it would otherwise run whole, which would change
// the BlockHits accounting), so a run paused by RunUntil and then
// continued retires the same instructions, cycles and statistics as
// one uninterrupted Run — the invariant the checkpoint difftests pin.
// A tracer rides the blocks and so never moves the pause, and so does
// an injector with no fetch fault armed on this CPU; only an armed
// fetch fault, which holds the CPU to single steps, pauses at the
// first instruction boundary at or past target.
func (c *CPU) RunUntil(target, maxSteps uint64) (uint64, error) {
	var steps uint64
	// An injector is bound, and its fetch faults armed, between runs; a
	// fetch fault that fires ends the run. So the check is hoisted out
	// of the loop.
	if c.inject == nil || !c.inject.FetchArmed(c.id) {
		c.cycleStop = target
		defer func() { c.cycleStop = 0 }()
		for steps < maxSteps && c.cycles < target {
			if c.halted {
				return steps, nil
			}
			// stepFastN retires up to the remaining budget through a
			// superblock (or exactly one instruction off the block
			// path), so steps stays exact: a block never overshoots
			// maxSteps and a faulting instruction is not counted, same
			// as Step.
			n, err := c.stepFastN(maxSteps - steps)
			steps += n
			if err != nil {
				return steps, err
			}
		}
		return steps, nil
	}
	for steps < maxSteps && c.cycles < target {
		if c.halted {
			return steps, nil
		}
		if err := c.Step(); err != nil {
			return steps, err
		}
		steps++
	}
	return steps, nil
}
