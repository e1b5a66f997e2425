// The superblock interpreter.
//
// Every opcode has one handler in the dispatch table below; Step runs a
// one-entry dispatch through it. Stepping still pays per instruction
// for Step's machinery — the halted check, the hook checks, the
// decode cache probe and the Run loop's own bookkeeping. Superblocks
// remove that per-instruction overhead the way trace-based
// interpreters do (cf. Wong et al., "Faster Variational Execution with
// Transparent Bytecode Transformation"): straight-line runs of
// instructions are chained into a block once, then replayed by a
// threaded-dispatch loop that calls one pre-resolved handler per
// instruction.
//
// Formation. A block starts at the first pc executed through the fast
// path whose icache line is already resident, and chains decoded
// instructions forward while they are straight-line, stopping at
//
//   - control flow (JCC, JMP, CALL, CLLR, CLLM, RET) — included as the
//     block's final instruction, since its handler computes the next
//     pc itself;
//   - HLT, BRK and HCALL — never included: HLT must bounce control
//     back to the Run loop's halt check, a resident BRK byte must trap
//     through Step, and a hypercall hands the CPU to an arbitrary host
//     handler;
//   - any byte sequence that does not decode entirely from this line's
//     snapshot (instructions straddling the line boundary draw bytes
//     from a second line with an independent lifetime, exactly the
//     rule cacheInst follows);
//   - the line boundary and a maximum block length.
//
// A pc where no block can start (it holds HLT, BRK, HCALL or
// undecodable bytes) caches a shared zero-length sentinel so the fast
// path stops re-attempting the build and falls through to Step.
//
// Invalidation. Blocks are derived exclusively from the line's byte
// snapshot and are stored on the line itself, in the entry for their
// head offset next to its decoded instruction (decodecache.go), so
// FlushICache drops them together with the line — the same lifetime
// the decode cache has, and therefore the same lifetime the BRK
// text-poke protocol already relies on: the poke's phase-1 flush kills
// every block built over the old bytes before any CPU can fetch the
// breakpoint.
// Patching *without* a flush keeps executing the stale block, just as
// Step keeps executing the stale bytes.
//
// Semantics. Blocks and Step run the same handlers and the same
// epilogue (retire), so a block differs from single-stepping only in
// what it skips: per-instruction decode cache probes, and the host-side
// stats it batches per block (DecodeHits, Block*). Blocks are always
// on; only an armed fetch fault, consulted before every fetch, holds
// Run to Step. A tracer rides the blocks: it gets Step's calls with every
// architectural counter as Step shows it (no block holds HCALL, the
// one instruction that runs host code), so observing a run moves
// neither its dispatch nor where RunUntil pauses. TestOpcodeSemantics
// pins every handler, and FuzzBlockVsStep and internal/difftest pin
// block formation, chaining, tracer calls and stats against Step.

package cpu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// maxBlockInsts bounds block length. Long enough to swallow any hot
// loop body or function prologue in one dispatch, short enough that
// clamping against a Run step budget stays cheap.
const maxBlockInsts = 64

// sbFn executes the instruction in at pc, whose fall-through pc is
// next (pc+in.Len). It returns the pc to continue at (next, or a
// target control flow computes) and the cycle cost the common
// epilogue charges. On error nothing retired: the caller skips the
// epilogue, so pc and cycles hold.
type sbFn func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error)

// sbEntry is one predecoded, pre-dispatched instruction of a block.
type sbEntry struct {
	fn       sbFn
	in       isa.Inst
	pc, next uint64
}

// superblock is a straight-line chain of instructions, optionally
// terminated by a single control-flow instruction. A nil superblock
// means none has been built at its pc.
type superblock []sbEntry

// sbReject is the shared "no block starts here" sentinel, empty but
// not nil: a pc whose instruction cannot head a block (HLT, BRK,
// HCALL, undecodable) caches it so the fast path probes once and falls
// through.
var sbReject = superblock{}

// cachedBlock returns the block starting at pc (which may be the
// sbReject sentinel) and the resident line, either of which may be
// nil.
func (c *CPU) cachedBlock(pc uint64) (superblock, *icLine) {
	line := c.residentLine(pc)
	if line == nil {
		return nil, nil
	}
	return line.entry(pc & (mem.PageSize - 1)).sb, line
}

// sbTerminator reports whether op ends a block as its final,
// included instruction.
func sbTerminator(op isa.Op) bool {
	switch op {
	case isa.JCC, isa.JMP, isa.CALL, isa.CLLR, isa.CLLM, isa.RET:
		return true
	}
	return false
}

// buildBlock forms the superblock starting at pc from line's byte
// snapshot and caches it on the line. Build is pure host work: no
// simulated state changes and no simulated cycles pass.
func (c *CPU) buildBlock(line *icLine, pc uint64) superblock {
	b := line.formBlock(pc)
	line.addEntry(pc & (mem.PageSize - 1)).sb = b
	if len(b) > 0 {
		line.nsb++
		c.stats.BlockBuilds++
	}
	return b
}

// formBlock decodes the superblock starting at pc from the line's byte
// snapshot without caching it, or returns sbReject when no block can
// start there. It decodes the run into a stack buffer first, so a
// block costs one allocation at its exact length and a reject none.
func (l *icLine) formBlock(pc uint64) superblock {
	var run [maxBlockInsts]sbEntry
	n := 0
	pn := pc >> mem.PageShift
	for cur := pc; n < maxBlockInsts && cur>>mem.PageShift == pn; {
		// An undecodable window may be a valid instruction straddling
		// into the next line, whose lifetime is independent; Step
		// handles it.
		in, err := decodeInst(l.bytes[cur&(mem.PageSize-1):])
		if err != nil || in.Op == isa.HLT || in.Op == isa.BRK || in.Op == isa.HCALL {
			break
		}
		next := cur + uint64(in.Len)
		run[n] = sbEntry{fn: sbOps[in.Op], in: in, pc: cur, next: next}
		n++
		if sbTerminator(in.Op) {
			break
		}
		cur = next
	}
	if n == 0 {
		return sbReject
	}
	return append(make(superblock, 0, n), run[:n]...)
}

// execBlock replays up to budget entries of b through threaded
// dispatch. It returns the number of instructions that fully retired.
// Each entry runs Step's handler and epilogue. The stats Step counts
// per dispatched instruction (Instructions, and DecodeHits: block
// entries are predecoded) are accumulated locally and flushed on every
// exit path, including the not-retired dispatch of a faulting
// instruction, which Step counts too. With a tracer attached the block
// runs through execTraced instead: picking the form once per block
// keeps the untraced loop free of a per-entry tracer check.
func (c *CPU) execBlock(b superblock, budget uint64) (uint64, error) {
	if budget < uint64(len(b)) {
		b = b[:budget]
	}
	if c.tracer != nil {
		return c.execTraced(b)
	}
	for i := range b {
		e := &b[i]
		next, cost, err := e.fn(c, &e.in, e.pc, e.next)
		if err != nil {
			c.stats.Instructions += uint64(i) + 1
			return c.blockDone(uint64(i), &execError{e.pc, err})
		}
		c.retire(next, cost)
	}
	c.stats.Instructions += uint64(len(b))
	return c.blockDone(uint64(len(b)), nil)
}

// execTraced is execBlock's loop with the tracer's Step called before
// each entry as Step calls it, and Instructions counted per entry, so
// a tracer reading the stats sees what the Step path shows.
func (c *CPU) execTraced(b superblock) (uint64, error) {
	t := c.tracer
	for i := range b {
		e := &b[i]
		t.Step(e.pc, c.cycles, &e.in)
		c.stats.Instructions++
		next, cost, err := e.fn(c, &e.in, e.pc, e.next)
		if err != nil {
			return c.blockDone(uint64(i), &execError{e.pc, err})
		}
		c.retire(next, cost)
	}
	return c.blockDone(uint64(len(b)), nil)
}

// blockDone flushes a block dispatch's batched host-side stats and
// returns its result: done entries retired, one more was dispatched
// if err is set, and a dispatch that ran to its end is a block hit.
func (c *CPU) blockDone(done uint64, err error) (uint64, error) {
	dispatched := done
	if err != nil {
		dispatched++
	} else {
		c.stats.BlockHits++
	}
	c.stats.BlockInsts += dispatched
	c.stats.DecodeHits += dispatched
	return done, err
}

// stepFastN is the dispatcher Run and RunUntil drive when no fetch
// fault is armed: it executes up to budget instructions (at
// least one), chaining block to block — a terminator whose target
// heads another resident or buildable block continues dispatching
// without re-entering Run (HLT never lives inside a block, so the
// halted check cannot be skipped past). A pc with no block retires
// exactly one instruction through Step. It returns the number of
// instructions that retired.
func (c *CPU) stepFastN(budget uint64) (uint64, error) {
	if c.halted {
		return 0, fmt.Errorf("cpu: step on halted CPU")
	}
	pc := c.pc
	var total uint64
	for total < budget {
		b, line := c.cachedBlock(pc)
		if b == nil && line != nil {
			b = c.buildBlock(line, pc)
		}
		if len(b) == 0 {
			break
		}
		n, err := c.execBlock(b, budget-total)
		total += n
		if err != nil {
			return total, err
		}
		pc = c.pc
		if c.cycleStop != 0 && c.cycles >= c.cycleStop {
			// RunUntil's pause point: between block dispatches, never
			// inside one. total > 0 here — execBlock either retired at
			// least one instruction or returned the error above.
			return total, nil
		}
	}
	if total > 0 {
		return total, nil
	}
	// A faulting instruction did not retire, so it must not count
	// against the caller's step budget.
	if err := c.Step(); err != nil {
		return 0, err
	}
	return 1, nil
}

// --- the threaded-dispatch table ---
//
// One handler per opcode, indexed by the opcode byte: the only
// definition of each instruction's semantics — cost, registers,
// memory, stat counters, predictor updates, trace events and the
// operation order on fault paths. BRK has no handler: Step traps it
// before dispatch, since a trap retires nothing. Trace events sit
// behind tracer checks, the same in Step and in blocks, so a traced
// block emits what single steps would.

var sbOps [256]sbFn

func init() {
	for _, op := range []isa.Op{isa.NOP, isa.NOPN} {
		sbOps[op] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
			return next, c.cfg.CostNop, nil
		}
	}
	sbOps[isa.HLT] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		c.halted = true
		return next, 0, nil
	}
	sbOps[isa.MOVI] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		c.regs[in.Rd] = uint64(in.Imm)
		return next, c.cfg.CostALU, nil
	}
	sbOps[isa.MOV] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		c.regs[in.Rd] = c.regs[in.Rs]
		return next, c.cfg.CostALU, nil
	}
	sbOps[isa.LEA] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		c.regs[in.Rd] = c.regs[in.Rs] + uint64(in.Imm)
		return next, c.cfg.CostALU, nil
	}
	for _, op := range []isa.Op{isa.LD, isa.LDS} {
		sbOps[op] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
			addr := c.regs[in.Rs] + uint64(in.Imm)
			v, err := c.Mem.ReadUint(addr, in.Size)
			if err != nil {
				return 0, 0, err
			}
			if in.Op == isa.LDS {
				shift := 64 - 8*in.Size
				v = uint64(int64(v<<shift) >> shift)
			}
			c.regs[in.Rd] = v
			c.stats.Loads++
			return next, c.cfg.CostLoad, nil
		}
	}
	sbOps[isa.ST] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		addr := c.regs[in.Rd] + uint64(in.Imm)
		if err := c.Mem.WriteUint(addr, in.Size, c.regs[in.Rs]); err != nil {
			return 0, 0, err
		}
		c.stats.Stores++
		return next, c.cfg.CostStore, nil
	}
	// ALU ops that cannot fault get direct handlers — no trip through
	// the alu() switch, whose dispatch cost dominates 1-cycle ops on
	// the host. The divide family keeps alu(): it is rare and carries
	// the division-by-zero error return.
	type aluFn func(a, b uint64) uint64
	aluPairs := []struct {
		reg, imm isa.Op
		f        aluFn
	}{
		{isa.ADD, isa.ADDI, func(a, b uint64) uint64 { return a + b }},
		{isa.SUB, isa.SUBI, func(a, b uint64) uint64 { return a - b }},
		{isa.AND, isa.ANDI, func(a, b uint64) uint64 { return a & b }},
		{isa.OR, isa.ORI, func(a, b uint64) uint64 { return a | b }},
		{isa.XOR, isa.XORI, func(a, b uint64) uint64 { return a ^ b }},
		{isa.SHL, isa.SHLI, func(a, b uint64) uint64 { return a << (b & 63) }},
		{isa.SHR, isa.SHRI, func(a, b uint64) uint64 { return a >> (b & 63) }},
		{isa.SAR, isa.SARI, func(a, b uint64) uint64 { return uint64(int64(a) >> (b & 63)) }},
	}
	for _, p := range aluPairs {
		f := p.f
		sbOps[p.reg] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
			c.regs[in.Rd] = f(c.regs[in.Rd], c.regs[in.Rs])
			return next, c.cfg.CostALU, nil
		}
		sbOps[p.imm] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
			c.regs[in.Rd] = f(c.regs[in.Rd], uint64(in.Imm))
			return next, c.cfg.CostALU, nil
		}
	}
	sbOps[isa.NEG] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		c.regs[in.Rd] = -c.regs[in.Rd]
		return next, c.cfg.CostALU, nil
	}
	sbOps[isa.NOT] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		c.regs[in.Rd] = ^c.regs[in.Rd]
		return next, c.cfg.CostALU, nil
	}
	sbOps[isa.MUL] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		c.regs[in.Rd] *= c.regs[in.Rs]
		return next, c.cfg.CostMul, nil
	}
	sbOps[isa.MULI] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		c.regs[in.Rd] *= uint64(in.Imm)
		return next, c.cfg.CostMul, nil
	}
	for _, op := range []isa.Op{isa.DIV, isa.MOD, isa.UDIV, isa.UMOD} {
		sbOps[op] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
			cost, err := c.alu(in.Op, in.Rd, c.regs[in.Rs])
			if err != nil {
				return 0, 0, err
			}
			return next, cost, nil
		}
	}
	for _, op := range []isa.Op{isa.DIVI, isa.MODI} {
		sbOps[op] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
			cost, err := c.alu(immToReg(in.Op), in.Rd, uint64(in.Imm))
			if err != nil {
				return 0, 0, err
			}
			return next, cost, nil
		}
	}
	sbOps[isa.CMP] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		c.cmpA, c.cmpB = int64(c.regs[in.Rd]), int64(c.regs[in.Rs])
		return next, c.cfg.CostCmp, nil
	}
	sbOps[isa.CMPI] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		c.cmpA, c.cmpB = int64(c.regs[in.Rd]), in.Imm
		return next, c.cfg.CostCmp, nil
	}
	sbOps[isa.SETCC] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		if in.Cond.Eval(c.cmpA, c.cmpB) {
			c.regs[in.Rd] = 1
		} else {
			c.regs[in.Rd] = 0
		}
		return next, c.cfg.CostALU, nil
	}
	sbOps[isa.JCC] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		taken := in.Cond.Eval(c.cmpA, c.cmpB)
		cost := c.cfg.CostBranch
		if !c.predictCond(pc, taken) {
			cost += c.cfg.MispredictPenalty
			c.stats.Mispredicts++
			if c.tracer != nil {
				var t uint64
				if taken {
					t = 1
				}
				c.tracer.Emit(trace.KindMispredict, pc, t, 0)
			}
		}
		c.stats.Branches++
		if taken {
			next += uint64(in.Imm)
		}
		return next, cost, nil
	}
	sbOps[isa.JMP] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		return next + uint64(in.Imm), c.cfg.CostJmp, nil
	}
	sbOps[isa.CALL] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		// The return-address stack is pushed only once the stack write
		// succeeded, so a faulting call leaves both untouched.
		if err := c.push(next); err != nil {
			return 0, 0, err
		}
		c.rasPush(next)
		c.stats.Calls++
		target := next + uint64(in.Imm)
		if c.tracer != nil {
			c.tracer.Call(pc, target)
		}
		return target, c.cfg.CostCall, nil
	}
	sbOps[isa.CLLM] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		ptr, err := c.Mem.ReadUint(uint64(in.Imm), 8)
		if err != nil {
			return 0, 0, err
		}
		if ptr == 0 {
			return 0, 0, fmt.Errorf("call through null function pointer at %#x", uint64(in.Imm))
		}
		c.stats.Loads++
		return c.callIndirect(pc, next, ptr, c.cfg.CostLoad)
	}
	sbOps[isa.CLLR] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		return c.callIndirect(pc, next, c.regs[in.Rs], 0)
	}
	sbOps[isa.RET] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		ret, err := c.pop()
		if err != nil {
			return 0, 0, err
		}
		cost := c.cfg.CostRet
		if !c.rasPop(ret) {
			cost += c.cfg.MispredictPenalty
			c.stats.Mispredicts++
			if c.tracer != nil {
				c.tracer.Emit(trace.KindMispredict, pc, ret, 2)
			}
		}
		if c.tracer != nil {
			c.tracer.Ret(pc, ret)
		}
		return ret, cost, nil
	}
	sbOps[isa.PUSH] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		if err := c.push(c.regs[in.Rd]); err != nil {
			return 0, 0, err
		}
		return next, c.cfg.CostPush, nil
	}
	sbOps[isa.POP] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		v, err := c.pop()
		if err != nil {
			return 0, 0, err
		}
		c.regs[in.Rd] = v
		return next, c.cfg.CostPop, nil
	}
	sbOps[isa.SPAD] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		c.regs[isa.SP] += uint64(in.Imm)
		return next, c.cfg.CostALU, nil
	}
	sbOps[isa.XCHG] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		addr := c.regs[in.Rd]
		old, err := c.Mem.ReadUint(addr, 8)
		if err != nil {
			return 0, 0, err
		}
		if err := c.Mem.WriteUint(addr, 8, c.regs[in.Rs]); err != nil {
			return 0, 0, err
		}
		c.regs[in.Rs] = old
		c.stats.Loads++
		c.stats.Stores++
		return next, c.cfg.CostXchg, nil
	}
	sbOps[isa.PAUSE] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		return next, c.cfg.CostPause, nil
	}
	for _, op := range []isa.Op{isa.CLI, isa.STI} {
		sbOps[op] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
			cost := c.cfg.CostCliSti
			if c.mode == Guest {
				// A paravirtualized guest is deprivileged: the
				// instruction traps and the hypervisor emulates it.
				cost = c.cfg.GuestTrapCost
			}
			c.intrOn = in.Op == isa.STI
			return next, cost, nil
		}
	}
	sbOps[isa.HCALL] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		n := uint8(in.Imm)
		if c.hypervisor == nil {
			return 0, 0, fmt.Errorf("HCALL %d with no hypervisor", n)
		}
		if err := c.hypervisor.Hypercall(c, n); err != nil {
			return 0, 0, err
		}
		return next, c.cfg.CostHcall, nil
	}
	sbOps[isa.RDTSC] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		// Like rdtsc_ordered: the cost is charged before the value is
		// read so that back-to-back reads measure the in-between work
		// plus one timer read. The epilogue adds nothing more, but its
		// interrupt check still runs.
		c.cycles += uint64(c.cfg.CostRdtsc)
		c.regs[in.Rd] = c.cycles
		return next, 0, nil
	}
	sbOps[isa.OUTB] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		if c.OutB != nil {
			c.OutB(uint8(in.Imm), byte(c.regs[in.Rs]))
		}
		return next, c.cfg.CostIO, nil
	}
	sbOps[isa.INB] = func(c *CPU, in *isa.Inst, pc, next uint64) (uint64, int, error) {
		var v byte
		if c.InB != nil {
			v = c.InB(uint8(in.Imm))
		}
		c.regs[in.Rd] = uint64(v)
		return next, c.cfg.CostIO, nil
	}
}

// callIndirect is CLLR and CLLM at pc after the target is known: the
// indirect-target prediction (trained even when the push then
// faults), the call returning to ret, and its trace events. base is
// the cost of reading the target.
func (c *CPU) callIndirect(pc, ret, target uint64, base int) (uint64, int, error) {
	cost := base + c.cfg.CostCallR
	if !c.predictIndirect(pc, target) {
		cost += c.cfg.MispredictPenalty
		c.stats.Mispredicts++
		if c.tracer != nil {
			c.tracer.Emit(trace.KindMispredict, pc, target, 1)
		}
	}
	c.stats.Branches++
	if err := c.push(ret); err != nil {
		return 0, 0, err
	}
	c.rasPush(ret)
	c.stats.Calls++
	if c.tracer != nil {
		c.tracer.Call(pc, target)
	}
	return target, cost, nil
}
