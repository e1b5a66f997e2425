// Package cpu implements the m64 execution engine together with a
// deterministic microarchitectural cost model.
//
// The paper's entire argument is microarchitectural: a dynamic
// configuration check costs a load, a compare and a conditional branch
// on every invocation, and the branch costs 15–20 cycles more whenever
// the branch target buffer is cold or wrong. The model therefore
// tracks exactly the features the paper reasons about:
//
//   - per-opcode base costs,
//   - a direct-mapped BTB with 2-bit saturating counters for
//     conditional branches,
//   - indirect-call target prediction through the same BTB,
//   - a return-address stack,
//   - expensive locked operations (XCHG),
//   - privileged instructions that trap when executed in a
//     paravirtualized guest, plus cheap explicit hypercalls,
//   - an instruction cache that keeps executing stale bytes until it
//     is explicitly flushed (forgetting the flush after binary
//     patching is a real bug the tests provoke).
//
// Each opcode is defined once, as a handler in the table superblock.go
// holds. Step dispatches one handler on an instruction served by the
// predecoded-instruction cache (decodecache.go), which sits on every
// icache line; superblocks replay chains of pre-resolved handlers.
//
// Cycle counts are deterministic: the same program always reports the
// same number of cycles.
package cpu

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Mode distinguishes bare-metal execution from running as a
// paravirtualized guest.
type Mode uint8

// Execution modes.
const (
	Native Mode = iota // privileged instructions execute directly
	Guest              // privileged instructions trap to the hypervisor
)

// Hypervisor handles HCALL instructions and privileged-instruction
// traps of a Guest-mode CPU.
type Hypervisor interface {
	// Hypercall is invoked for HCALL n. It may inspect and modify the
	// CPU (e.g. its virtual interrupt flag).
	Hypercall(c *CPU, n uint8) error
}

// Injector is the CPU-side fault-injection hook (see
// internal/faultinject, which implements it together with the
// mem-side hooks). Only an armed fetch fault keeps Run and RunUntil
// off superblocks: FetchFault is consulted before every fetch, so
// while FetchArmed reports one they hold the CPU to single steps, and
// otherwise they run blocks as with no injector. A nil injector costs
// one pointer check per Step and per flush. Implementations must be
// deterministic.
type Injector interface {
	// FetchArmed reports whether FetchFault can still fail a fetch on
	// this CPU. Run and RunUntil ask once per call, so the answer may
	// change only between runs: arming a point, or a point firing,
	// which ends the run with its fault.
	FetchArmed(cpu int) bool
	// FetchFault is consulted once per Step before fetch; a non-nil
	// error models a spurious instruction-fetch fault. The PC does not
	// advance, so re-stepping retries the same instruction.
	FetchFault(cpu int, pc, cycles uint64) error
	// DropFlush reports whether this CPU should silently lose the
	// icache invalidation for [addr, addr+n) — a dropped SMP shootdown
	// IPI. The CPU keeps executing its stale snapshot until the next
	// flush of the range.
	DropFlush(cpu int, addr, n uint64) bool
}

// Config holds the cycle cost model. All costs are in cycles.
type Config struct {
	CostALU   int // simple ALU op, MOV, MOVI, LEA, SPADD
	CostMul   int
	CostDiv   int
	CostLoad  int // L1 load-to-use
	CostStore int
	CostPush  int
	CostPop   int
	CostNop   int

	CostJmp           int // unconditional direct jump
	CostBranch        int // correctly predicted conditional branch
	MispredictPenalty int // added on any misprediction (cf. 15–20 cycles on Skylake)
	CostCall          int
	CostRet           int
	CostCallR         int // indirect call base cost (before prediction)

	CostXchg  int // locked atomic exchange
	CostPause int
	CostCmp   int

	CostCliSti    int // CLI/STI executed natively
	GuestTrapCost int // CLI/STI executed in a guest: trap-and-emulate
	CostHcall     int // explicit hypercall
	CostRdtsc     int
	CostIO        int // OUTB/INB device access

	BTBSize  int // number of direct-mapped BTB entries (power of two)
	RASDepth int // return-address stack depth
}

// DefaultConfig returns the calibrated cost model used by the paper
// reproduction benchmarks.
func DefaultConfig() Config {
	return Config{
		CostALU:           1,
		CostMul:           3,
		CostDiv:           20,
		CostLoad:          4,
		CostStore:         1,
		CostPush:          1,
		CostPop:           1,
		CostNop:           0, // NOPs are eliminated in rename on modern cores
		CostJmp:           1,
		CostBranch:        1,
		MispredictPenalty: 16,
		CostCall:          2,
		CostRet:           2,
		CostCallR:         4,
		CostXchg:          18,
		CostPause:         1,
		CostCmp:           1,
		CostCliSti:        3,
		GuestTrapCost:     250,
		CostHcall:         5,
		CostRdtsc:         24,
		CostIO:            40,
		BTBSize:           512,
		RASDepth:          16,
	}
}

type btbEntry struct {
	valid   bool
	tag     uint64
	counter uint8  // 2-bit saturating; >= 2 predicts taken
	target  uint64 // predicted indirect target
}

// Stats accumulates execution statistics. The fields are plain
// uint64s incremented in the interpreter loop; the metrics registry
// (internal/metrics via core.Observers.Metrics) reads them through
// closures at export time, so observability never adds work here.
type Stats struct {
	RunStats
	CacheStats
}

// RunStats counts what the CPU retired and how it dispatched it. A
// restored run repeats every one of them exactly, so a snapshot
// carries them (State.Stats).
type RunStats struct {
	Instructions uint64
	Branches     uint64
	Mispredicts  uint64
	Loads        uint64
	Stores       uint64
	Calls        uint64
	ICacheFills  uint64
	Interrupts   uint64
	Traps        uint64 // BRK breakpoint traps taken (text-poke windows)
	BlockHits    uint64 // superblock dispatches (one per block entry/re-entry)
	BlockInsts   uint64 // instructions dispatched through superblocks
}

// CacheStats counts how the caches derived from icache lines (decoded
// instructions and superblocks) served the CPU. No simulated cycle
// depends on them, so a snapshot carries none of them, and a restored
// CPU starts them at zero as it refills those caches.
type CacheStats struct {
	DecodeHits       uint64 // instructions dispatched from the decode cache
	DecodeMisses     uint64 // instructions decoded from raw bytes
	BlockBuilds      uint64 // superblocks chained from icache-line snapshots
	BlockInvalidates uint64 // superblocks dropped by FlushICache
}

// Add returns the field-wise sum of s and o — how per-CPU stats
// aggregate across an SMP machine.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		RunStats: RunStats{
			Instructions: s.Instructions + o.Instructions,
			Branches:     s.Branches + o.Branches,
			Mispredicts:  s.Mispredicts + o.Mispredicts,
			Loads:        s.Loads + o.Loads,
			Stores:       s.Stores + o.Stores,
			Calls:        s.Calls + o.Calls,
			ICacheFills:  s.ICacheFills + o.ICacheFills,
			Interrupts:   s.Interrupts + o.Interrupts,
			Traps:        s.Traps + o.Traps,
			BlockHits:    s.BlockHits + o.BlockHits,
			BlockInsts:   s.BlockInsts + o.BlockInsts,
		},
		CacheStats: CacheStats{
			DecodeHits:       s.DecodeHits + o.DecodeHits,
			DecodeMisses:     s.DecodeMisses + o.DecodeMisses,
			BlockBuilds:      s.BlockBuilds + o.BlockBuilds,
			BlockInvalidates: s.BlockInvalidates + o.BlockInvalidates,
		},
	}
}

// DecodeHitRatio returns DecodeHits/(DecodeHits+DecodeMisses), or 0
// when the decode cache has not been exercised.
func (s Stats) DecodeHitRatio() float64 {
	total := s.DecodeHits + s.DecodeMisses
	if total == 0 {
		return 0
	}
	return float64(s.DecodeHits) / float64(total)
}

// BlockHitRatio returns the fraction of instructions dispatched
// through superblocks, or 0 when nothing has executed. Never NaN:
// ratio gauges are exported straight into JSON, which cannot
// represent NaN.
func (s Stats) BlockHitRatio() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.BlockInsts) / float64(s.Instructions)
}

// CPU is a single m64 hardware thread.
type CPU struct {
	Mem *mem.Memory

	regs   [isa.NumRegs]uint64
	pc     uint64
	cycles uint64
	halted bool

	cmpA, cmpB int64 // operands of the last CMP/CMPI

	cfg  Config
	btb  []btbEntry
	ras  []uint64
	rasN int

	icache   map[uint64]icEntry // page number -> resident line
	lastPN   uint64             // page number memo for residentLine
	lastLine *icLine            // line memo; nil = invalid, cleared by FlushICache
	lines    *LineTable         // nil: every fill makes a private line

	// missed holds the instruction decode last read from raw bytes, on
	// a decode cache miss. Handlers take the instruction by pointer,
	// and a pointer to a local would escape to the heap on every miss.
	missed isa.Inst

	mode       Mode
	intrOn     bool
	hypervisor Hypervisor
	tracer     trace.Tracer

	inject Injector // nil = no fault injection
	id     int      // hardware-thread index the injector keys faults on

	intrPeriod uint64 // perturbation period in cycles; 0 = off
	intrCost   uint64
	nextIntr   uint64

	// cycleStop, when non-zero, makes stepFastN stop chaining
	// superblocks once the cycle counter reaches it — the pause
	// mechanism RunUntil uses to park the CPU at a block-chain boundary
	// without ever splitting a block (which would perturb BlockHits and
	// break checkpoint determinism). Zero outside RunUntil.
	cycleStop uint64

	// OutB receives device writes; nil discards them.
	OutB func(port uint8, b byte)
	// InB supplies device reads; nil reads zero.
	InB func(port uint8) byte

	stats Stats
}

// icEntry is one resident icache line with the write-version its page
// had when this CPU filled it, which ICacheStale compares. The version
// belongs to the CPU, not the line: CPUs sharing a line (LineTable)
// may have filled it at different versions of equal bytes.
type icEntry struct {
	line    *icLine
	version uint64
}

// icLine is a function of its page number and bytes alone: bytes never
// change once filled, and everything else derives from them.
type icLine struct {
	// ents and slot are the line's derived caches (decodecache.go):
	// slot maps each in-page offset to the index in ents of its decoded
	// instruction and superblock; 0 means nothing is cached there, and
	// ents[0] stays empty. Both derive only from bytes and die with the
	// line, so FlushICache invalidates everything together. nsb counts
	// real (non-sentinel) blocks so FlushICache can account
	// invalidations without rescanning. Every lookup reads ents and
	// slot, so they lead the line; bytes is read only on a miss.
	ents []lineEnt
	nsb  int
	slot [mem.PageSize]uint16

	bytes [mem.PageSize]byte // snapshot of the page at fill time
}

// New returns a CPU executing from m with the given cost model.
func New(m *mem.Memory, cfg Config) *CPU {
	if cfg.BTBSize == 0 || cfg.BTBSize&(cfg.BTBSize-1) != 0 {
		panic(fmt.Sprintf("cpu: BTBSize %d is not a power of two", cfg.BTBSize))
	}
	return &CPU{
		Mem:    m,
		cfg:    cfg,
		btb:    make([]btbEntry, cfg.BTBSize),
		ras:    make([]uint64, cfg.RASDepth),
		icache: make(map[uint64]icEntry),
	}
}

// SetLineTable makes this CPU's later fills and imports go through t,
// so it adopts the lines of other CPUs filled through t instead of
// decoding and forming blocks again; nil restores private lines. Every
// CPU sharing a table must run on the goroutine that owns it.
func (c *CPU) SetLineTable(t *LineTable) { c.lines = t }

// SetTracer installs (or, with nil, removes) the event/profiling
// tracer (see internal/trace). Safe at any point; tracing is passive:
// cycle counts are bit-identical with any tracer attached or none,
// and a nil tracer costs one pointer check per hook.
func (c *CPU) SetTracer(t trace.Tracer) { c.tracer = t }

// Tracer returns the installed tracer, if any.
func (c *CPU) Tracer() trace.Tracer { return c.tracer }

// SetInjector installs (or, with nil, removes) the fault injector and
// this CPU's hardware-thread index, which the injector uses to bind
// faults to one SMP thread. With a nil injector the hot path is
// byte-identical to an injection-free build.
func (c *CPU) SetInjector(inj Injector, id int) { c.inject = inj; c.id = id }

// Injector returns the installed fault injector, if any.
func (c *CPU) Injector() Injector { return c.inject }

// Reg returns the value of register r.
func (c *CPU) Reg(r isa.Reg) uint64 { return c.regs[r] }

// SetReg sets register r to v.
func (c *CPU) SetReg(r isa.Reg, v uint64) { c.regs[r] = v }

// PC returns the program counter.
func (c *CPU) PC() uint64 { return c.pc }

// SetPC sets the program counter.
func (c *CPU) SetPC(pc uint64) { c.pc = pc; c.halted = false }

// Cycles returns the cycle counter (also readable by RDTSC).
func (c *CPU) Cycles() uint64 { return c.cycles }

// AddCycles advances the cycle counter by n; the benchmark harness uses
// it to model measurement overhead.
func (c *CPU) AddCycles(n uint64) { c.cycles += n }

// Halted reports whether the CPU has executed HLT.
func (c *CPU) Halted() bool { return c.halted }

// Stats returns a copy of the execution statistics.
func (c *CPU) Stats() Stats { return c.stats }

// Mode returns the execution mode.
func (c *CPU) Mode() Mode { return c.mode }

// SetMode switches between Native and Guest execution.
func (c *CPU) SetMode(m Mode) { c.mode = m }

// SetHypervisor installs the handler for hypercalls and guest traps.
func (c *CPU) SetHypervisor(h Hypervisor) { c.hypervisor = h }

// InterruptsEnabled reports the virtual interrupt flag.
func (c *CPU) InterruptsEnabled() bool { return c.intrOn }

// SetInterruptsEnabled sets the virtual interrupt flag (used by
// hypervisor implementations of sti/cli hypercalls).
func (c *CPU) SetInterruptsEnabled(on bool) { c.intrOn = on }

// SetInterruptPerturbation makes an asynchronous interrupt steal cost
// cycles roughly every period cycles while interrupts are enabled —
// the perturbation the paper's measurement methodology attributes its
// rare outliers to (§6.1, §7.5). Deterministic: the same program sees
// the same interrupt schedule. period 0 disables.
func (c *CPU) SetInterruptPerturbation(period, cost uint64) {
	c.intrPeriod = period
	c.intrCost = cost
	c.nextIntr = c.cycles + period
}

// Config returns the cost model.
func (c *CPU) Config() Config { return c.cfg }

// FlushICache invalidates the instruction cache for [addr, addr+n).
// Binary patching must call this (via the runtime library) or the CPU
// keeps executing the stale pre-patch bytes.
func (c *CPU) FlushICache(addr, n uint64) {
	if n == 0 {
		return
	}
	if c.inject != nil && c.inject.DropFlush(c.id, addr, n) {
		// The shootdown IPI for this CPU was lost: its snapshot lines
		// survive and it keeps executing the pre-patch bytes. The
		// commit-side coherence verification (core) detects the stale
		// lines via ICacheStale and re-issues the flush.
		if c.tracer != nil {
			c.tracer.Emit(trace.KindFaultInjected, addr, n, 2)
		}
		return
	}
	c.Mem.Stats.Flushes++
	if c.tracer != nil {
		c.tracer.Emit(trace.KindFlushICache, addr, n, 0)
	}
	first := addr >> mem.PageShift
	last := (addr + n - 1) >> mem.PageShift
	for pn := first; pn <= last; pn++ {
		if e, ok := c.icache[pn]; ok {
			c.stats.BlockInvalidates += uint64(e.line.nsb)
			delete(c.icache, pn)
		}
	}
	// residentLine memoizes the last line; a flush may have dropped it.
	c.lastLine = nil
}

// ICacheStale reports whether this CPU holds an instruction-cache line
// overlapping [addr, addr+n) whose snapshot predates the newest write
// to its page — i.e. whether a patch has not yet reached this CPU's
// frontend. Each resident line records the page's write-version at
// this CPU's fill; comparing it against the current version is exactly
// the check a shootdown-acknowledge protocol performs. The
// crash-consistency layer (core) uses it after commits and rollbacks to
// verify that no SMP thread lost its invalidation to an injected
// dropped-IPI fault.
func (c *CPU) ICacheStale(addr, n uint64) bool {
	if n == 0 {
		return false
	}
	first := addr >> mem.PageShift
	last := (addr + n - 1) >> mem.PageShift
	// Wide queries (a whole-address-space coherence sweep) walk the
	// cached lines instead of every page of the range.
	if last-first >= uint64(len(c.icache)) {
		for pn, e := range c.icache {
			if pn < first || pn > last {
				continue
			}
			if ver, mapped := c.Mem.PageVersion(pn << mem.PageShift); mapped && ver != e.version {
				return true
			}
		}
		return false
	}
	for pn := first; pn <= last; pn++ {
		e, ok := c.icache[pn]
		if !ok {
			continue // next fetch refills from memory: coherent
		}
		if ver, mapped := c.Mem.PageVersion(pn << mem.PageShift); mapped && ver != e.version {
			return true
		}
	}
	return false
}

// FlushPredictor clears the BTB and the return-address stack. The
// BTB-cold ablation (experiment E8) uses it to model branch-predictor
// pressure from surrounding kernel code.
func (c *CPU) FlushPredictor() {
	for i := range c.btb {
		c.btb[i] = btbEntry{}
	}
	c.rasN = 0
}

// icFetch copies n instruction bytes at addr into buf from the
// instruction cache, filling lines as needed. It checks the Exec
// permission at fill time, like a hardware ifetch.
func (c *CPU) icFetch(addr uint64, buf []byte) (int, error) {
	got := 0
	for got < len(buf) {
		pn := addr >> mem.PageShift
		line := c.icache[pn].line
		if line == nil {
			prot, mapped := c.Mem.ProtOf(addr)
			if !mapped || prot&mem.Exec == 0 {
				if got > 0 {
					return got, nil // partial window; decoder decides
				}
				return 0, &mem.Fault{Addr: addr, Kind: mem.AccessExec, Prot: prot, Mapped: mapped}
			}
			line = c.lines.blank()
			if err := c.Mem.Fetch(pn<<mem.PageShift, line.bytes[:]); err != nil {
				return got, err
			}
			line = c.lines.share(pn, line)
			ver, _ := c.Mem.PageVersion(addr)
			c.icache[pn] = icEntry{line, ver}
			c.stats.ICacheFills++
		}
		off := int(addr & (mem.PageSize - 1))
		n := copy(buf[got:], line.bytes[off:])
		got += n
		addr += uint64(n)
	}
	return got, nil
}

// maxInstLen is the longest instruction we fetch eagerly (MOVI).
// NOPN is handled specially since only its first two bytes matter.
const maxInstLen = 10

type execError struct {
	pc  uint64
	err error
}

func (e *execError) Error() string { return fmt.Sprintf("cpu: at pc=%#x: %v", e.pc, e.err) }
func (e *execError) Unwrap() error { return e.err }

// Step executes one instruction: a one-entry dispatch through the
// handler table, with the fault-injection and tracer hooks around it.
func (c *CPU) Step() error {
	if c.halted {
		return fmt.Errorf("cpu: step on halted CPU")
	}
	pc := c.pc
	if c.inject != nil {
		if err := c.inject.FetchFault(c.id, pc, c.cycles); err != nil {
			// A spurious fetch fault: nothing retired, the PC holds, so
			// the caller may service it and re-step the instruction.
			if c.tracer != nil {
				c.tracer.Emit(trace.KindFaultInjected, pc, 0, 3)
			}
			return &execError{pc, err}
		}
	}
	in, err := c.decode(pc)
	if err != nil {
		return err
	}
	if c.tracer != nil {
		c.tracer.Step(pc, c.cycles, in)
	}
	if in.Op == isa.BRK {
		// A breakpoint byte planted by the text-poke protocol. Nothing
		// retires: the PC holds, so the caller can spin until the poke
		// finishes and re-step the then-rewritten instruction.
		c.stats.Traps++
		if c.tracer != nil {
			c.tracer.Emit(trace.KindTrap, pc, 0, 0)
		}
		return &execError{pc, &TrapFault{PC: pc}}
	}
	c.stats.Instructions++
	next, cost, err := sbOps[in.Op](c, in, pc, pc+uint64(in.Len))
	if err != nil {
		return &execError{pc, err}
	}
	c.retire(next, cost)
	return nil
}

// retire is the epilogue of every instruction, stepped or in a block:
// charge its cost, service a due perturbation interrupt, and advance
// the pc. Every handler that succeeds must reach it, or a due
// interrupt goes unserviced across that instruction (a real bug the
// RDTSC regression test provokes). It stays small enough to inline
// into execBlock's loop.
func (c *CPU) retire(next uint64, cost int) {
	c.cycles += uint64(cost)
	if c.intrPeriod > 0 && c.cycles >= c.nextIntr {
		c.interrupt()
	}
	c.pc = next
}

// interrupt services a due asynchronous interrupt after the
// instruction at c.pc, unless interrupts are masked (it then stays
// pending): time passes, state is preserved (the handler saves and
// restores everything).
func (c *CPU) interrupt() {
	if !c.intrOn {
		return
	}
	c.cycles += c.intrCost
	c.stats.Interrupts++
	c.nextIntr = c.cycles + c.intrPeriod
	if c.tracer != nil {
		c.tracer.Emit(trace.KindInterrupt, c.pc, c.intrCost, 0)
	}
}

func immToReg(op isa.Op) isa.Op {
	// ADDI..SARI mirror ADD..SAR with a fixed offset.
	return op - isa.ADDI + isa.ADD
}

// alu executes the divide family, the only ALU ops that can fault.
func (c *CPU) alu(op isa.Op, rd isa.Reg, src uint64) (int, error) {
	if src == 0 {
		return 0, fmt.Errorf("division by zero")
	}
	a := c.regs[rd]
	switch op {
	case isa.DIV:
		a = uint64(int64(a) / int64(src))
	case isa.MOD:
		a = uint64(int64(a) % int64(src))
	case isa.UDIV:
		a /= src
	case isa.UMOD:
		a %= src
	}
	c.regs[rd] = a
	return c.cfg.CostDiv, nil
}

// push writes v below the stack pointer and only then moves it, so a
// faulting push changes nothing.
func (c *CPU) push(v uint64) error {
	err := c.Mem.WriteUint(c.regs[isa.SP]-8, 8, v)
	if err == nil {
		c.regs[isa.SP] -= 8
	}
	return err
}

func (c *CPU) pop() (uint64, error) {
	v, err := c.Mem.ReadUint(c.regs[isa.SP], 8)
	if err != nil {
		return 0, err
	}
	c.regs[isa.SP] += 8
	return v, nil
}

// predictCond consults and updates the conditional predictor; it
// reports whether the prediction was correct.
func (c *CPU) predictCond(pc uint64, taken bool) bool {
	e := &c.btb[pc&uint64(c.cfg.BTBSize-1)]
	predictTaken := e.valid && e.tag == pc && e.counter >= 2
	correct := predictTaken == taken
	if !e.valid || e.tag != pc {
		*e = btbEntry{valid: true, tag: pc, counter: 1} // weakly not-taken
	}
	if taken {
		if e.counter < 3 {
			e.counter++
		}
	} else if e.counter > 0 {
		e.counter--
	}
	return correct
}

// predictIndirect consults and updates the indirect-target predictor;
// it reports whether the prediction was correct.
func (c *CPU) predictIndirect(pc, target uint64) bool {
	e := &c.btb[pc&uint64(c.cfg.BTBSize-1)]
	correct := e.valid && e.tag == pc && e.target == target
	if !e.valid || e.tag != pc {
		// Re-initialize like predictCond: the saturating counter of an
		// aliased entry was trained by an unrelated pc and must not be
		// carried into the new entry.
		*e = btbEntry{valid: true, tag: pc, counter: 1, target: target}
		return correct
	}
	e.target = target
	return correct
}

func (c *CPU) rasPush(ret uint64) {
	if len(c.ras) == 0 {
		return
	}
	c.ras[c.rasN%len(c.ras)] = ret
	c.rasN++
}

func (c *CPU) rasPop(actual uint64) bool {
	if len(c.ras) == 0 || c.rasN == 0 {
		return false
	}
	c.rasN--
	return c.ras[c.rasN%len(c.ras)] == actual
}

// Run executes until HLT, an error, or maxSteps instructions; running
// out of steps before HLT is an error. It returns the number of
// instructions executed. It is RunUntil with no cycle target.
func (c *CPU) Run(maxSteps uint64) (uint64, error) {
	steps, err := c.RunUntil(math.MaxUint64, maxSteps)
	if err == nil && !c.halted {
		return steps, fmt.Errorf("cpu: exceeded %d steps without HLT (pc=%#x)", maxSteps, c.pc)
	}
	return steps, err
}
