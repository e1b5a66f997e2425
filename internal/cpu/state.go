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
// The derived caches layered on each line (predecoded instructions,
// superblocks) never change simulated behavior, but they do change the
// Decode*/Block* statistics, and snapshot determinism demands that a
// restored machine's stats evolve bit-identically to the uninterrupted
// run. ExportState therefore records *which* offsets were decoded and
// which headed superblocks, walking each line's offset index in
// ascending order; ImportState rebuilds those entries from the line's
// byte snapshot (a pure, deterministic derivation) and then overwrites
// the stats with the snapshot's values, so the rebuild itself leaves
// no trace. The BTB is exported sparsely: its size and its non-zero
// entries, which a running CPU has few of. ImportState accepts only
// the canonical form ExportState writes — BTB entries non-zero, inside
// the BTB and strictly ascending by index, every offset list strictly
// ascending and inside the page, no offset both a head and a reject,
// every entry rebuilding as exported — and checks all of it before it
// changes any CPU field, so a rejected state leaves the CPU as it was.
//
// Host wiring — the memory reference, the cost model, tracers, fault
// injectors, device callbacks, the icache line memo and Step's
// decode-miss slot — is deliberately not state: it belongs to the
// constructing harness, the memo is rebuilt lazily, and the slot is
// scratch space each decode miss overwrites. state_test.go enumerates
// every CPU field and fails compilation of a lie: adding a field
// without classifying it as serialized or host-wiring breaks the build
// gate.

package cpu

import (
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

// ICLineState is one exported instruction-cache line: the page-byte
// snapshot plus the offsets of its derived decode cache and superblock
// entries (offsets only — the entries rebuild deterministically from
// Bytes at import).
type ICLineState struct {
	PN      uint64 // page number
	Version uint64 // page write-version at fill time
	Bytes   []byte // PageSize-long snapshot

	Decoded []uint16 // in-page offsets with a predecoded instruction
	SBHeads []uint16 // in-page offsets heading a real superblock
	SBRject []uint16 // in-page offsets caching the reject sentinel
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

	ICache []ICLineState // sorted by PN
	Stats  Stats
}

// ExportState captures this CPU's complete state. The result shares no
// memory with the CPU: mutating either afterwards is safe.
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
		Stats:      c.stats,
		BTBSize:    len(c.btb),
	}
	for i, e := range c.btb {
		if e != (btbEntry{}) {
			s.BTB = append(s.BTB, BTBState{Index: i, Valid: e.valid, Tag: e.tag, Counter: e.counter, Target: e.target})
		}
	}
	pns := make([]uint64, 0, len(c.icache))
	for pn := range c.icache {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	for _, pn := range pns {
		line := c.icache[pn]
		ls := ICLineState{PN: pn, Version: line.version, Bytes: append([]byte(nil), line.bytes[:]...)}
		for off, i := range line.slot[:] {
			if i == 0 {
				continue
			}
			e := &line.ents[i]
			if e.in.Len != 0 {
				ls.Decoded = append(ls.Decoded, uint16(off))
			}
			switch {
			case len(e.sb) > 0:
				ls.SBHeads = append(ls.SBHeads, uint16(off))
			case e.sb != nil:
				ls.SBRject = append(ls.SBRject, uint16(off))
			}
		}
		s.ICache = append(s.ICache, ls)
	}
	return s
}

// ImportState restores a previously exported state onto this CPU. The
// CPU must have been constructed with the same Config the exporting
// CPU used (the predictor geometry is checked; the cost model is the
// caller's contract). Derived caches are rebuilt from the line byte
// snapshots and the statistics then overwritten from the snapshot, so
// a restored CPU's counters evolve bit-identically to the exporting
// run. On error the CPU is unchanged.
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
	icache := make(map[uint64]*icLine, len(s.ICache))
	for i := range s.ICache {
		ls := &s.ICache[i]
		if _, dup := icache[ls.PN]; dup {
			return fmt.Errorf("cpu: snapshot repeats icache line %#x", ls.PN)
		}
		line, err := importLine(ls)
		if err != nil {
			return err
		}
		icache[ls.PN] = line
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
	c.stats = s.Stats
	return nil
}

// importLine rebuilds one exported icache line: its bytes, then its
// decoded instructions and superblocks, through the derivations the
// exporting run used (decodeInst, formBlock). It rejects offset lists
// ExportState cannot have written and entries that do not rebuild as
// exported, and touches no CPU state.
func importLine(ls *ICLineState) (*icLine, error) {
	if len(ls.Bytes) != mem.PageSize {
		return nil, fmt.Errorf("cpu: snapshot icache line %#x holds %d bytes, want %d", ls.PN, len(ls.Bytes), mem.PageSize)
	}
	for _, l := range []struct {
		what string
		offs []uint16
	}{{"decode", ls.Decoded}, {"superblock head", ls.SBHeads}, {"reject sentinel", ls.SBRject}} {
		for i, off := range l.offs {
			if off >= mem.PageSize {
				return nil, fmt.Errorf("cpu: snapshot %s offset %#x on line %#x lies outside the page", l.what, off, ls.PN)
			}
			if i > 0 && off <= l.offs[i-1] {
				return nil, fmt.Errorf("cpu: snapshot %s offsets on line %#x are not strictly ascending at %#x", l.what, ls.PN, off)
			}
		}
	}
	line := newLine(len(ls.Decoded) + len(ls.SBHeads) + len(ls.SBRject))
	line.version = ls.Version
	copy(line.bytes[:], ls.Bytes)
	for _, off := range ls.Decoded {
		if int(off)+maxInstLen > mem.PageSize {
			return nil, fmt.Errorf("cpu: snapshot decode offset %#x too close to the line end", off)
		}
		in, err := decodeInst(line.bytes[off:])
		if err != nil {
			return nil, fmt.Errorf("cpu: rebuilding decode cache for line %#x at offset %#x: %w", ls.PN, off, err)
		}
		line.addEntry(uint64(off)).in = in
	}
	base := ls.PN << mem.PageShift
	for _, off := range ls.SBHeads {
		b := line.formBlock(base | uint64(off))
		if len(b) == 0 {
			return nil, fmt.Errorf("cpu: snapshot superblock head %#x rebuilds empty", base|uint64(off))
		}
		line.addEntry(uint64(off)).sb = b
		line.nsb++
	}
	// An offset listed both as a head and as a reject fails one of the
	// two rebuild checks, since formBlock's result is fixed by the bytes.
	for _, off := range ls.SBRject {
		if len(line.formBlock(base|uint64(off))) != 0 {
			return nil, fmt.Errorf("cpu: snapshot reject sentinel %#x rebuilds non-empty", base|uint64(off))
		}
		line.addEntry(uint64(off)).sb = sbReject
	}
	return line, nil
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
