package cpu

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// recTracer records every tracer call in order. With cpu set, each
// Step also records the Instructions count the CPU shows at the
// callback.
type recTracer struct {
	cpu *CPU
	evs []recEv
}

// recEv is one tracer call: Step's pc, cycles, instruction and
// Instructions count; Call's and Ret's pc and target; an event's kind,
// operands and label.
type recEv struct {
	call       string // "Step", "Call", "Ret" or the event kind's name
	addr, a, b uint64
	name       string
	in         isa.Inst
}

func (r *recTracer) Emit(k trace.Kind, addr, a, b uint64) {
	r.evs = append(r.evs, recEv{call: k.Name(), addr: addr, a: a, b: b})
}

func (r *recTracer) EmitName(k trace.Kind, addr, a, b uint64, name string) {
	r.evs = append(r.evs, recEv{call: k.Name(), addr: addr, a: a, b: b, name: name})
}

func (r *recTracer) Step(pc, cycles uint64, in *isa.Inst) {
	ev := recEv{call: "Step", addr: pc, a: cycles, in: *in}
	if r.cpu != nil {
		ev.b = r.cpu.Stats().Instructions
	}
	r.evs = append(r.evs, ev)
}

func (r *recTracer) Call(pc, target uint64) {
	r.evs = append(r.evs, recEv{call: "Call", addr: pc, a: target})
}

func (r *recTracer) Ret(pc, target uint64) {
	r.evs = append(r.evs, recEv{call: "Ret", addr: pc, a: target})
}

// lines renders the calls one line each, in the opcode specification's
// form: Step with its pc and cycles only.
func (r *recTracer) lines() []string {
	var out []string
	for _, e := range r.evs {
		switch e.call {
		case "Step":
			out = append(out, fmt.Sprintf("Step %#x %d", e.addr, e.a))
		case "Call", "Ret":
			out = append(out, fmt.Sprintf("%s %#x %#x", e.call, e.addr, e.a))
		default:
			l := fmt.Sprintf("%s %#x %#x %d", e.call, e.addr, e.a, e.b)
			if e.name != "" {
				l += " " + e.name
			}
			out = append(out, l)
		}
	}
	return out
}

type refusingHV struct{}

func (refusingHV) Hypercall(*CPU, uint8) error { return errors.New("hypervisor refused") }

// fetchFaulter fails every fetch: its fetch fault stays armed.
type fetchFaulter struct{}

func (fetchFaulter) FetchArmed(int) bool                  { return true }
func (fetchFaulter) FetchFault(int, uint64, uint64) error { return errors.New("injected fetch fault") }
func (fetchFaulter) DropFlush(int, uint64, uint64) bool   { return false }

// opCase is one row of the opcode specification: a fixed state, one
// instruction at textBase, and everything one Step of it must leave.
type opCase struct {
	name  string
	asm   func(a *isa.Asm)
	setup func(c *CPU) // state beyond newVM's, applied before the step

	err    string             // the step's error text; "" when it retires
	regs   map[isa.Reg]uint64 // registers the step changes
	pc     uint64             // pc after the step; 0 = next instruction, or textBase on error
	cycles uint64
	halted bool
	intrOn bool
	stats  Stats    // the complete statistics after the step
	events []string // every tracer call, in order
	ras    []uint64 // RASLive after the step
	check  func(t *testing.T, c *CPU)
}

const (
	unmapped = uint64(0x900000) // no page maps here
	stepEv   = "Step 0x400000 0"
)

// dispatched adds the counters every instruction the CPU dispatches
// leaves on a fresh CPU: one icache fill, one decode miss and one
// instruction (counted even when the instruction then faults).
func dispatched(s RunStats) Stats {
	s.ICacheFills++
	s.Instructions++
	return Stats{RunStats: s, CacheStats: CacheStats{DecodeMisses: 1}}
}

func poke(c *CPU, addr, v uint64) {
	if err := c.Mem.WriteUint(addr, 8, v); err != nil {
		panic(err)
	}
}

func wantWord(addr, v uint64) func(t *testing.T, c *CPU) {
	return func(t *testing.T, c *CPU) {
		t.Helper()
		if got, err := c.Mem.ReadUint(addr, 8); err != nil || got != v {
			t.Errorf("mem[%#x] = %#x (%v), want %#x", addr, got, err, v)
		}
	}
}

func wantCmp(a, b int64) func(t *testing.T, c *CPU) {
	return func(t *testing.T, c *CPU) {
		t.Helper()
		if c.cmpA != a || c.cmpB != b {
			t.Errorf("compare operands = (%d, %d), want (%d, %d)", c.cmpA, c.cmpB, a, b)
		}
	}
}

func wantBTB(counter uint8, target uint64) func(t *testing.T, c *CPU) {
	return func(t *testing.T, c *CPU) {
		t.Helper()
		want := btbEntry{valid: true, tag: textBase, counter: counter, target: target}
		if got := c.btb[textBase&uint64(len(c.btb)-1)]; got != want {
			t.Errorf("BTB entry = %+v, want %+v", got, want)
		}
	}
}

func trainBTB(counter uint8, target uint64) func(c *CPU) {
	return func(c *CPU) {
		c.btb[textBase&uint64(len(c.btb)-1)] = btbEntry{valid: true, tag: textBase, counter: counter, target: target}
	}
}

func setRegs(kv map[isa.Reg]uint64) func(c *CPU) {
	return func(c *CPU) {
		for r, v := range kv {
			c.regs[r] = v
		}
	}
}

func chain(fs ...func(c *CPU)) func(c *CPU) {
	return func(c *CPU) {
		for _, f := range fs {
			f(c)
		}
	}
}

func neg(v int64) uint64 { return uint64(v) }

// opCases is the specification of every opcode: what one Step does to
// registers, pc, cycles, flags, statistics and tracer events, on the
// success path and on every fault and prediction path.
func opCases() []opCase {
	const top = stackTop
	alu := func(op isa.Op, r1, r2, want uint64, cost uint64) opCase {
		return opCase{
			name:   op.String(),
			asm:    func(a *isa.Asm) { a.Alu(op, 1, 2) },
			setup:  setRegs(map[isa.Reg]uint64{1: r1, 2: r2}),
			regs:   map[isa.Reg]uint64{1: want},
			cycles: cost, stats: dispatched(RunStats{}), events: []string{stepEv},
		}
	}
	aluI := func(op isa.Op, r1 uint64, imm int32, want uint64, cost uint64) opCase {
		return opCase{
			name:   op.String(),
			asm:    func(a *isa.Asm) { a.AluI(op, 1, imm) },
			setup:  setRegs(map[isa.Reg]uint64{1: r1}),
			regs:   map[isa.Reg]uint64{1: want},
			cycles: cost, stats: dispatched(RunStats{}), events: []string{stepEv},
		}
	}
	fault := func(name string, asm func(a *isa.Asm), setup func(c *CPU), err string) opCase {
		return opCase{name: name, asm: asm, setup: setup, err: "cpu: at pc=0x400000: " + err,
			stats: dispatched(RunStats{}), events: []string{stepEv}}
	}
	divZero := func(op isa.Op) opCase {
		asm := func(a *isa.Asm) { a.Alu(op, 1, 2) }
		if op == isa.DIVI || op == isa.MODI {
			asm = func(a *isa.Asm) { a.AluI(op, 1, 0) }
		}
		return fault(op.String()+" by zero", asm, setRegs(map[isa.Reg]uint64{1: 7, 2: 0}), "division by zero")
	}
	plain := func(name string, asm func(a *isa.Asm), cycles uint64) opCase {
		return opCase{name: name, asm: asm, cycles: cycles, stats: dispatched(RunStats{}), events: []string{stepEv}}
	}
	ptr := func(c *CPU) { poke(c, dataBase+0x40, 0x400100) }
	cllm := func(a *isa.Asm) { a.CallM(dataBase + 0x40) }
	cllr := func(a *isa.Asm) { a.CallR(6) }
	cllrTarget := setRegs(map[isa.Reg]uint64{6: 0x400200})
	retFrame := chain(setRegs(map[isa.Reg]uint64{isa.SP: top - 8}), func(c *CPU) { poke(c, top-8, 0x400300) })
	farStack := setRegs(map[isa.Reg]uint64{isa.SP: unmapped})
	const pushFault = "mem: write fault at 0x8ffff8: page not mapped"
	interruptDue := func(c *CPU) {
		c.SetInterruptPerturbation(10, 100)
		c.SetInterruptsEnabled(true)
	}

	cases := []opCase{
		{name: "HLT", asm: (*isa.Asm).Hlt, halted: true,
			stats: dispatched(RunStats{}), events: []string{stepEv}},
		{name: "HLT interrupt due", asm: (*isa.Asm).Hlt,
			setup: func(c *CPU) {
				c.SetInterruptPerturbation(1, 100)
				c.SetInterruptsEnabled(true)
				c.AddCycles(5)
			},
			halted: true, intrOn: true, cycles: 105,
			stats:  dispatched(RunStats{Interrupts: 1}),
			events: []string{"Step 0x400000 5", "Interrupt 0x400000 0x64 0"}},
		plain("NOP", func(a *isa.Asm) { a.Nop(1) }, 0),
		plain("NOPN", func(a *isa.Asm) { a.Nop(6) }, 0),
		{name: "NOPN length 1", asm: func(a *isa.Asm) { a.Nop(2); a.Bytes()[1] = 1 },
			err: "cpu: at pc=0x400000: NOPN length 1", stats: Stats{RunStats: RunStats{ICacheFills: 1}}},
		{name: "unknown opcode", asm: func(a *isa.Asm) { a.Nop(1); a.Bytes()[0] = 0x04 },
			err: "cpu: at pc=0x400000: isa: unknown opcode 0x04", stats: Stats{RunStats: RunStats{ICacheFills: 1}}},
		{name: "fetch from data page", asm: (*isa.Asm).Pause,
			setup: func(c *CPU) { c.SetPC(dataBase) },
			err:   "cpu: at pc=0x600000: mem: exec fault at 0x600000: page protection rw-", pc: dataBase},
		{name: "injected fetch fault", asm: (*isa.Asm).Pause,
			setup:  func(c *CPU) { c.SetInjector(fetchFaulter{}, 0) },
			err:    "cpu: at pc=0x400000: injected fetch fault",
			events: []string{"FaultInjected 0x400000 0x0 3"}},
		{name: "BRK", asm: (*isa.Asm).Brk,
			err:    "cpu: at pc=0x400000: breakpoint trap at 0x400000",
			stats:  Stats{RunStats: RunStats{ICacheFills: 1, Traps: 1}, CacheStats: CacheStats{DecodeMisses: 1}},
			events: []string{stepEv, "Trap 0x400000 0x0 0"}},

		{name: "MOVI", asm: func(a *isa.Asm) { a.Movi(3, 0x1122334455667788) },
			regs: map[isa.Reg]uint64{3: 0x1122334455667788}, cycles: 1,
			stats: dispatched(RunStats{}), events: []string{stepEv}},
		{name: "MOV", asm: func(a *isa.Asm) { a.Mov(3, 4) }, setup: setRegs(map[isa.Reg]uint64{4: 42}),
			regs: map[isa.Reg]uint64{3: 42}, cycles: 1,
			stats: dispatched(RunStats{}), events: []string{stepEv}},
		{name: "LEA", asm: func(a *isa.Asm) { a.Lea(3, 4, -8) }, setup: setRegs(map[isa.Reg]uint64{4: 100}),
			regs: map[isa.Reg]uint64{3: 92}, cycles: 1,
			stats: dispatched(RunStats{}), events: []string{stepEv}},
		{name: "LD", asm: func(a *isa.Asm) { a.Ld(3, 4, 4, 8) },
			setup: chain(setRegs(map[isa.Reg]uint64{4: dataBase}), func(c *CPU) { poke(c, dataBase+8, 0xffffffff80000001) }),
			regs:  map[isa.Reg]uint64{3: 0x80000001}, cycles: 4,
			stats: dispatched(RunStats{Loads: 1}), events: []string{stepEv}},
		{name: "LDS", asm: func(a *isa.Asm) { a.Lds(3, 4, 4, 8) },
			setup: chain(setRegs(map[isa.Reg]uint64{4: dataBase}), func(c *CPU) { poke(c, dataBase+8, 0x80000001) }),
			regs:  map[isa.Reg]uint64{3: 0xffffffff80000001}, cycles: 4,
			stats: dispatched(RunStats{Loads: 1}), events: []string{stepEv}},
		fault("LD unmapped", func(a *isa.Asm) { a.Ld(3, 4, 8, 8) }, setRegs(map[isa.Reg]uint64{4: unmapped}),
			"mem: read fault at 0x900008: page not mapped"),
		{name: "ST", asm: func(a *isa.Asm) { a.St(4, 5, 2, 16) },
			setup: setRegs(map[isa.Reg]uint64{4: dataBase, 5: 0xaabbccdd}), cycles: 1,
			stats: dispatched(RunStats{Stores: 1}), events: []string{stepEv},
			check: wantWord(dataBase+16, 0xccdd)},
		fault("ST unmapped", func(a *isa.Asm) { a.St(4, 5, 8, 16) }, setRegs(map[isa.Reg]uint64{4: unmapped}),
			"mem: write fault at 0x900010: page not mapped"),
		fault("ST read-only", func(a *isa.Asm) { a.St(4, 5, 8, 16) }, setRegs(map[isa.Reg]uint64{4: textBase}),
			"mem: write fault at 0x400010: page protection r-x"),

		alu(isa.ADD, 7, 5, 12, 1),
		alu(isa.SUB, 7, 5, 2, 1),
		alu(isa.MUL, 7, 5, 35, 3),
		alu(isa.DIV, neg(-7), 2, neg(-3), 20),
		alu(isa.MOD, neg(-7), 2, neg(-1), 20),
		alu(isa.AND, 12, 10, 8, 1),
		alu(isa.OR, 12, 10, 14, 1),
		alu(isa.XOR, 12, 10, 6, 1),
		alu(isa.SHL, 1, 65, 2, 1),
		alu(isa.SHR, 1<<63, 4, 1<<59, 1),
		alu(isa.SAR, 1<<63, 4, 0xf800000000000000, 1),
		alu(isa.NEG, 7, 0, neg(-7), 1),
		alu(isa.NOT, 7, 0, ^uint64(7), 1),
		alu(isa.UDIV, neg(-7), 2, 0x7ffffffffffffffc, 20),
		alu(isa.UMOD, neg(-7), 2, 1, 20),
		aluI(isa.ADDI, 7, -3, 4, 1),
		aluI(isa.SUBI, 7, 3, 4, 1),
		aluI(isa.MULI, 7, -2, neg(-14), 3),
		aluI(isa.DIVI, neg(-7), 2, neg(-3), 20),
		aluI(isa.MODI, neg(-7), 2, neg(-1), 20),
		aluI(isa.ANDI, 12, 10, 8, 1),
		aluI(isa.ORI, 12, 10, 14, 1),
		aluI(isa.XORI, 12, 10, 6, 1),
		aluI(isa.SHLI, 1, 65, 2, 1),
		aluI(isa.SHRI, 1<<63, 4, 1<<59, 1),
		aluI(isa.SARI, 1<<63, 4, 0xf800000000000000, 1),
		divZero(isa.DIV), divZero(isa.MOD), divZero(isa.UDIV), divZero(isa.UMOD),
		divZero(isa.DIVI), divZero(isa.MODI),

		{name: "CMP", asm: func(a *isa.Asm) { a.Cmp(1, 2) }, setup: setRegs(map[isa.Reg]uint64{1: 3, 2: neg(-5)}),
			cycles: 1, stats: dispatched(RunStats{}), events: []string{stepEv}, check: wantCmp(3, -5)},
		{name: "CMPI", asm: func(a *isa.Asm) { a.CmpI(1, -5) }, setup: setRegs(map[isa.Reg]uint64{1: 3}),
			cycles: 1, stats: dispatched(RunStats{}), events: []string{stepEv}, check: wantCmp(3, -5)},
		{name: "SETCC true", asm: func(a *isa.Asm) { a.SetCC(3, isa.LT) },
			setup: func(c *CPU) { c.cmpA, c.cmpB = -1, 2 },
			regs:  map[isa.Reg]uint64{3: 1}, cycles: 1, stats: dispatched(RunStats{}), events: []string{stepEv}},
		{name: "SETCC false", asm: func(a *isa.Asm) { a.SetCC(3, isa.GE) },
			setup: chain(setRegs(map[isa.Reg]uint64{3: 9}), func(c *CPU) { c.cmpA, c.cmpB = -1, 2 }),
			regs:  map[isa.Reg]uint64{3: 0}, cycles: 1, stats: dispatched(RunStats{}), events: []string{stepEv}},

		{name: "JCC taken mispredicted", asm: func(a *isa.Asm) { a.Jcc(isa.EQ, 0x20) },
			pc: 0x400026, cycles: 17,
			stats:  dispatched(RunStats{Branches: 1, Mispredicts: 1}),
			events: []string{stepEv, "Mispredict 0x400000 0x1 0"}, check: wantBTB(2, 0)},
		{name: "JCC taken predicted", asm: func(a *isa.Asm) { a.Jcc(isa.EQ, 0x20) }, setup: trainBTB(3, 0),
			pc: 0x400026, cycles: 1,
			stats: dispatched(RunStats{Branches: 1}), events: []string{stepEv}, check: wantBTB(3, 0)},
		{name: "JCC not taken predicted", asm: func(a *isa.Asm) { a.Jcc(isa.NE, 0x20) },
			cycles: 1, stats: dispatched(RunStats{Branches: 1}), events: []string{stepEv}, check: wantBTB(0, 0)},
		{name: "JCC not taken mispredicted", asm: func(a *isa.Asm) { a.Jcc(isa.NE, 0x20) }, setup: trainBTB(3, 0),
			cycles: 17, stats: dispatched(RunStats{Branches: 1, Mispredicts: 1}),
			events: []string{stepEv, "Mispredict 0x400000 0x0 0"}, check: wantBTB(2, 0)},
		{name: "JMP", asm: func(a *isa.Asm) { a.Jmp(0x30) }, pc: 0x400035, cycles: 1,
			stats: dispatched(RunStats{}), events: []string{stepEv}},

		{name: "CALL", asm: func(a *isa.Asm) { a.Call(0x40) },
			regs: map[isa.Reg]uint64{isa.SP: top - 8}, pc: 0x400045, cycles: 2,
			stats:  dispatched(RunStats{Calls: 1}),
			events: []string{stepEv, "Call 0x400000 0x400045"},
			ras:    []uint64{0x400005}, check: wantWord(top-8, 0x400005)},
		{name: "CALL stack fault", asm: func(a *isa.Asm) { a.Call(0x40) }, setup: farStack,
			err: "cpu: at pc=0x400000: " + pushFault, stats: dispatched(RunStats{}), events: []string{stepEv}},
		{name: "CLLM mispredicted", asm: cllm, setup: ptr,
			regs: map[isa.Reg]uint64{isa.SP: top - 8}, pc: 0x400100, cycles: 24,
			stats:  dispatched(RunStats{Loads: 1, Branches: 1, Mispredicts: 1, Calls: 1}),
			events: []string{stepEv, "Mispredict 0x400000 0x400100 1", "Call 0x400000 0x400100"},
			ras:    []uint64{0x400009}, check: wantWord(top-8, 0x400009)},
		{name: "CLLM predicted", asm: cllm, setup: chain(ptr, trainBTB(1, 0x400100)),
			regs: map[isa.Reg]uint64{isa.SP: top - 8}, pc: 0x400100, cycles: 8,
			stats:  dispatched(RunStats{Loads: 1, Branches: 1, Calls: 1}),
			events: []string{stepEv, "Call 0x400000 0x400100"},
			ras:    []uint64{0x400009}, check: wantWord(top-8, 0x400009)},
		fault("CLLM null pointer", cllm, nil, "call through null function pointer at 0x600040"),
		fault("CLLM unmapped pointer", func(a *isa.Asm) { a.CallM(unmapped) }, nil,
			"mem: read fault at 0x900000: page not mapped"),
		{name: "CLLM stack fault", asm: cllm, setup: chain(ptr, farStack),
			err:    "cpu: at pc=0x400000: " + pushFault,
			stats:  dispatched(RunStats{Loads: 1, Branches: 1, Mispredicts: 1}),
			events: []string{stepEv, "Mispredict 0x400000 0x400100 1"}, check: wantBTB(1, 0x400100)},
		{name: "CLLR mispredicted", asm: cllr, setup: cllrTarget,
			regs: map[isa.Reg]uint64{isa.SP: top - 8}, pc: 0x400200, cycles: 20,
			stats:  dispatched(RunStats{Branches: 1, Mispredicts: 1, Calls: 1}),
			events: []string{stepEv, "Mispredict 0x400000 0x400200 1", "Call 0x400000 0x400200"},
			ras:    []uint64{0x400005}, check: wantWord(top-8, 0x400005)},
		{name: "CLLR predicted", asm: cllr, setup: chain(cllrTarget, trainBTB(1, 0x400200)),
			regs: map[isa.Reg]uint64{isa.SP: top - 8}, pc: 0x400200, cycles: 4,
			stats:  dispatched(RunStats{Branches: 1, Calls: 1}),
			events: []string{stepEv, "Call 0x400000 0x400200"},
			ras:    []uint64{0x400005}, check: wantWord(top-8, 0x400005)},
		{name: "CLLR stack fault", asm: cllr, setup: chain(cllrTarget, farStack),
			err:    "cpu: at pc=0x400000: " + pushFault,
			stats:  dispatched(RunStats{Branches: 1, Mispredicts: 1}),
			events: []string{stepEv, "Mispredict 0x400000 0x400200 1"}, check: wantBTB(1, 0x400200)},
		{name: "RET mispredicted", asm: (*isa.Asm).Ret, setup: retFrame,
			regs: map[isa.Reg]uint64{isa.SP: top}, pc: 0x400300, cycles: 18,
			stats:  dispatched(RunStats{Mispredicts: 1}),
			events: []string{stepEv, "Mispredict 0x400000 0x400300 2", "Ret 0x400000 0x400300"}},
		{name: "RET predicted", asm: (*isa.Asm).Ret, setup: chain(retFrame, func(c *CPU) { c.rasPush(0x400300) }),
			regs: map[isa.Reg]uint64{isa.SP: top}, pc: 0x400300, cycles: 2,
			stats:  dispatched(RunStats{}),
			events: []string{stepEv, "Ret 0x400000 0x400300"}},
		fault("RET unmapped stack", (*isa.Asm).Ret, farStack, "mem: read fault at 0x900000: page not mapped"),

		{name: "PUSH", asm: func(a *isa.Asm) { a.Push(7) }, setup: setRegs(map[isa.Reg]uint64{7: 0xfeed}),
			regs: map[isa.Reg]uint64{isa.SP: top - 8}, cycles: 1,
			stats: dispatched(RunStats{}), events: []string{stepEv}, check: wantWord(top-8, 0xfeed)},
		{name: "PUSH stack fault", asm: func(a *isa.Asm) { a.Push(7) }, setup: farStack,
			err: "cpu: at pc=0x400000: " + pushFault, stats: dispatched(RunStats{}), events: []string{stepEv}},
		{name: "POP", asm: func(a *isa.Asm) { a.Pop(7) },
			setup: chain(setRegs(map[isa.Reg]uint64{isa.SP: top - 8}), func(c *CPU) { poke(c, top-8, 0xbeef) }),
			regs:  map[isa.Reg]uint64{7: 0xbeef, isa.SP: top}, cycles: 1,
			stats: dispatched(RunStats{}), events: []string{stepEv}},
		fault("POP unmapped stack", func(a *isa.Asm) { a.Pop(7) }, farStack,
			"mem: read fault at 0x900000: page not mapped"),
		{name: "SPAD", asm: func(a *isa.Asm) { a.SpAdd(-32) },
			regs: map[isa.Reg]uint64{isa.SP: top - 32}, cycles: 1,
			stats: dispatched(RunStats{}), events: []string{stepEv}},

		{name: "XCHG", asm: func(a *isa.Asm) { a.Xchg(4, 5) },
			setup: chain(setRegs(map[isa.Reg]uint64{4: dataBase, 5: 9}), func(c *CPU) { poke(c, dataBase, 5) }),
			regs:  map[isa.Reg]uint64{5: 5}, cycles: 18,
			stats: dispatched(RunStats{Loads: 1, Stores: 1}), events: []string{stepEv},
			check: wantWord(dataBase, 9)},
		fault("XCHG unmapped", func(a *isa.Asm) { a.Xchg(4, 5) }, setRegs(map[isa.Reg]uint64{4: unmapped, 5: 9}),
			"mem: read fault at 0x900000: page not mapped"),
		fault("XCHG read-only", func(a *isa.Asm) { a.Xchg(4, 5) }, setRegs(map[isa.Reg]uint64{4: textBase, 5: 9}),
			"mem: write fault at 0x400000: page protection r-x"),

		plain("PAUSE", (*isa.Asm).Pause, 1),
		{name: "STI native", asm: (*isa.Asm).Sti, intrOn: true, cycles: 3,
			stats: dispatched(RunStats{}), events: []string{stepEv}},
		{name: "CLI native", asm: (*isa.Asm).Cli, setup: func(c *CPU) { c.SetInterruptsEnabled(true) },
			cycles: 3, stats: dispatched(RunStats{}), events: []string{stepEv}},
		{name: "STI guest", asm: (*isa.Asm).Sti, setup: func(c *CPU) { c.SetMode(Guest) },
			intrOn: true, cycles: 250, stats: dispatched(RunStats{}), events: []string{stepEv}},
		{name: "CLI guest", asm: (*isa.Asm).Cli,
			setup:  func(c *CPU) { c.SetMode(Guest); c.SetInterruptsEnabled(true) },
			cycles: 250, stats: dispatched(RunStats{}), events: []string{stepEv}},
		{name: "HCALL", asm: func(a *isa.Asm) { a.Hcall(1) }, setup: func(c *CPU) { c.SetHypervisor(&fakeHV{}) },
			intrOn: true, cycles: 5, stats: dispatched(RunStats{}), events: []string{stepEv}},
		fault("HCALL no hypervisor", func(a *isa.Asm) { a.Hcall(1) }, nil, "HCALL 1 with no hypervisor"),
		fault("HCALL hypervisor fails", func(a *isa.Asm) { a.Hcall(1) },
			func(c *CPU) { c.SetHypervisor(refusingHV{}) }, "hypervisor refused"),
		{name: "RDTSC", asm: func(a *isa.Asm) { a.Rdtsc(3) },
			regs: map[isa.Reg]uint64{3: 24}, cycles: 24, stats: dispatched(RunStats{}), events: []string{stepEv}},
		{name: "RDTSC interrupt due", asm: func(a *isa.Asm) { a.Rdtsc(3) }, setup: interruptDue,
			regs: map[isa.Reg]uint64{3: 24}, cycles: 124, intrOn: true,
			stats:  dispatched(RunStats{Interrupts: 1}),
			events: []string{stepEv, "Interrupt 0x400000 0x64 0"}},
		{name: "ADD interrupt due", asm: func(a *isa.Asm) { a.Alu(isa.ADD, 1, 2) },
			setup: chain(setRegs(map[isa.Reg]uint64{1: 7, 2: 5}), func(c *CPU) {
				c.SetInterruptPerturbation(1, 100)
				c.SetInterruptsEnabled(true)
			}),
			regs: map[isa.Reg]uint64{1: 12}, cycles: 101, intrOn: true,
			stats:  dispatched(RunStats{Interrupts: 1}),
			events: []string{stepEv, "Interrupt 0x400000 0x64 0"}},
		{name: "ADD interrupt masked", asm: func(a *isa.Asm) { a.Alu(isa.ADD, 1, 2) },
			setup: chain(setRegs(map[isa.Reg]uint64{1: 7, 2: 5}), func(c *CPU) { c.SetInterruptPerturbation(1, 100) }),
			regs:  map[isa.Reg]uint64{1: 12}, cycles: 1, stats: dispatched(RunStats{}), events: []string{stepEv}},
		{name: "OUTB", asm: func(a *isa.Asm) { a.OutB(3, 5) },
			setup: chain(setRegs(map[isa.Reg]uint64{5: 0x41}), func(c *CPU) {
				// The device records (port, byte) in r9, where the
				// register comparison sees it.
				c.OutB = func(port uint8, b byte) { c.regs[9] = uint64(port)<<8 | uint64(b) }
			}),
			regs: map[isa.Reg]uint64{9: 0x341}, cycles: 40, stats: dispatched(RunStats{}), events: []string{stepEv}},
		plain("OUTB no device", func(a *isa.Asm) { a.OutB(3, 5) }, 40),
		{name: "INB", asm: func(a *isa.Asm) { a.InB(3, 7) },
			setup: func(c *CPU) { c.InB = func(port uint8) byte { return 0x50 + port } },
			regs:  map[isa.Reg]uint64{3: 0x57}, cycles: 40, stats: dispatched(RunStats{}), events: []string{stepEv}},
		{name: "INB no device", asm: func(a *isa.Asm) { a.InB(3, 7) }, setup: setRegs(map[isa.Reg]uint64{3: 9}),
			regs: map[isa.Reg]uint64{3: 0}, cycles: 40, stats: dispatched(RunStats{}), events: []string{stepEv}},
	}
	return cases
}

// vm loads the case's instruction at textBase and applies its setup.
func (tc *opCase) vm(t *testing.T) *CPU {
	t.Helper()
	var a isa.Asm
	tc.asm(&a)
	c := newVM(t, a.Bytes())
	if tc.setup != nil {
		tc.setup(c)
	}
	return c
}

// TestOpcodeSemantics is the specification of the instruction set: one
// Step of each row's instruction, from a fixed state, under a recording
// tracer, must leave exactly the row's registers, pc, cycles, halted
// and interrupt flags, statistics and tracer events. Every row whose
// instruction can sit in a superblock is then replayed through Run's
// block dispatcher, plain and under a recording tracer: both must
// reach the same architectural state, and the traced block must make
// exactly Step's tracer calls, the instruction and the Instructions
// count at its Step callback included.
func TestOpcodeSemantics(t *testing.T) {
	covered := map[isa.Op]bool{}
	for _, tc := range opCases() {
		tc := tc
		var a isa.Asm
		tc.asm(&a)
		op := isa.Op(a.Bytes()[0])
		covered[op] = true
		t.Run(tc.name, func(t *testing.T) {
			c := tc.vm(t)
			wantRegs := c.regs
			for r, v := range tc.regs {
				wantRegs[r] = v
			}
			rec := &recTracer{}
			c.SetTracer(rec)
			err := c.Step()

			gotErr := ""
			if err != nil {
				gotErr = err.Error()
			}
			if gotErr != tc.err {
				t.Errorf("error = %q, want %q", gotErr, tc.err)
			}
			wantPC := tc.pc
			if wantPC == 0 {
				wantPC = textBase
				if tc.err == "" {
					wantPC += uint64(a.Len())
				}
			}
			if c.regs != wantRegs {
				t.Errorf("registers:\n got %#x\nwant %#x", c.regs, wantRegs)
			}
			if c.PC() != wantPC {
				t.Errorf("pc = %#x, want %#x", c.PC(), wantPC)
			}
			if c.Cycles() != tc.cycles {
				t.Errorf("cycles = %d, want %d", c.Cycles(), tc.cycles)
			}
			if c.Halted() != tc.halted || c.InterruptsEnabled() != tc.intrOn {
				t.Errorf("halted, intrOn = %v, %v; want %v, %v",
					c.Halted(), c.InterruptsEnabled(), tc.halted, tc.intrOn)
			}
			if c.Stats() != tc.stats {
				t.Errorf("stats:\n got %+v\nwant %+v", c.Stats(), tc.stats)
			}
			if got := rec.lines(); !slices.Equal(got, tc.events) {
				t.Errorf("tracer events:\n got %q\nwant %q", got, tc.events)
			}
			if got := c.RASLive(); !slices.Equal(got, tc.ras) {
				t.Errorf("RAS = %#x, want %#x", got, tc.ras)
			}
			if tc.check != nil {
				tc.check(t, c)
			}

			if tc.stats.Instructions == 0 || op == isa.HLT || op == isa.HCALL {
				return // never dispatched, or never part of a block
			}
			s := tc.vm(t)
			srec := &recTracer{cpu: s}
			s.SetTracer(srec)
			s.Step()
			for _, traced := range []bool{false, true} {
				b := tc.vm(t)
				brec := &recTracer{cpu: b}
				if traced {
					b.SetTracer(brec)
				}
				// Make the line resident, so Run heads a block at the pc
				// instead of single-stepping a first visit.
				var one [1]byte
				if _, err := b.icFetch(textBase, one[:]); err != nil {
					t.Fatal(err)
				}
				_, berr := b.Run(1)
				if berr != nil && strings.Contains(berr.Error(), "exceeded") {
					berr = nil
				}
				if got := b.Stats().BlockInsts; got != 1 {
					t.Fatalf("traced=%v: block run dispatched %d block instructions, want 1", traced, got)
				}
				gotBErr := ""
				if berr != nil {
					gotBErr = berr.Error()
				}
				if gotBErr != gotErr {
					t.Errorf("traced=%v: block error = %q, Step error %q", traced, gotBErr, gotErr)
				}
				if diff := stateDiff(archState(c), archState(b)); diff != "" {
					t.Errorf("traced=%v: block run state differs from Step's: %s", traced, diff)
				}
				if !reflect.DeepEqual(c.Mem.ExportPages(), b.Mem.ExportPages()) {
					t.Errorf("traced=%v: block run memory differs from Step's", traced)
				}
				if traced && !slices.Equal(brec.evs, srec.evs) {
					t.Errorf("block tracer calls:\n got %+v\nwant %+v", brec.evs, srec.evs)
				}
			}
		})
	}
	// Every opcode the decoder accepts has a row.
	for v := 0; v < 256; v++ {
		op := isa.Op(v)
		if _, err := isa.Decode([]byte{byte(op), 2, 1, 8, 0, 0, 0, 0, 0, 0}); err == nil && !covered[op] {
			t.Errorf("no row for opcode %v", op)
		}
	}
}

// stateDiff names the fields in which two states differ, with both
// values, or returns "" when they are equal.
func stateDiff(a, b State) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var out []string
	for i := 0; i < va.NumField(); i++ {
		if fa, fb := va.Field(i).Interface(), vb.Field(i).Interface(); !reflect.DeepEqual(fa, fb) {
			out = append(out, fmt.Sprintf("%s %+v vs %+v", va.Type().Field(i).Name, fa, fb))
		}
	}
	return strings.Join(out, "; ")
}

// archState is a CPU's state without the host-side accelerator
// counters and caches, which legitimately differ between Step and
// block dispatch.
func archState(c *CPU) State {
	s := c.ExportState()
	s.ICache = nil
	s.Stats.ICacheFills, s.Stats.BlockHits, s.Stats.BlockInsts = 0, 0, 0
	return s
}

// TestFaultingStackWriteRetiresNothing pins the retire-nothing contract
// on the stack-writing instructions, on both dispatch paths: a CALL,
// CLLR, CLLM or PUSH whose stack write faults leaves SP and the
// return-address stack untouched, so once the stack is mapped the
// re-executed instruction pushes into the right slot, once.
func TestFaultingStackWriteRetiresNothing(t *testing.T) {
	const sp = unmapped // the page below it is unmapped until the retry
	for _, tc := range []struct {
		name string
		asm  func(a *isa.Asm)
		ret  uint64 // the word the push stores
		ras  []uint64
	}{
		{"CALL", func(a *isa.Asm) { a.Call(0x40) }, 0x400005, []uint64{0x400005}},
		{"CLLR", func(a *isa.Asm) { a.CallR(6) }, 0x400005, []uint64{0x400005}},
		{"CLLM", func(a *isa.Asm) { a.CallM(dataBase + 0x40) }, 0x400009, []uint64{0x400009}},
		{"PUSH", func(a *isa.Asm) { a.Push(7) }, 0xfeed, nil},
	} {
		for _, blocks := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/blocks=%v", tc.name, blocks), func(t *testing.T) {
				var a isa.Asm
				tc.asm(&a)
				c := newVM(t, a.Bytes())
				c.SetReg(isa.SP, sp)
				c.SetReg(6, 0x400200)
				c.SetReg(7, 0xfeed)
				poke(c, dataBase+0x40, 0x400100)
				attempt := func() error {
					if !blocks {
						return c.Step()
					}
					var one [1]byte
					if _, err := c.icFetch(textBase, one[:]); err != nil {
						t.Fatal(err)
					}
					if _, err := c.Run(1); err != nil && !strings.Contains(err.Error(), "exceeded") {
						return err
					}
					return nil
				}
				if err := attempt(); err == nil {
					t.Fatal("push onto an unmapped stack did not fault")
				}
				if got := c.Reg(isa.SP); got != sp {
					t.Errorf("SP = %#x after the fault, want %#x", got, sp)
				}
				if got := c.RASLive(); len(got) != 0 {
					t.Errorf("RAS = %#x after the fault, want empty", got)
				}
				if c.PC() != textBase || c.Cycles() != 0 {
					t.Errorf("pc, cycles = %#x, %d after the fault, want %#x, 0", c.PC(), c.Cycles(), uint64(textBase))
				}
				if err := c.Mem.Map(sp-mem.PageSize, mem.PageSize, mem.RW); err != nil {
					t.Fatal(err)
				}
				if err := attempt(); err != nil {
					t.Fatalf("retry: %v", err)
				}
				if got := c.Reg(isa.SP); got != sp-8 {
					t.Errorf("SP = %#x after the retry, want %#x", got, sp-8)
				}
				wantWord(sp-8, tc.ret)(t, c)
				if got := c.RASLive(); !slices.Equal(got, tc.ras) {
					t.Errorf("RAS = %#x after the retry, want %#x", got, tc.ras)
				}
				if blocks && c.Stats().BlockInsts != 2 {
					t.Errorf("BlockInsts = %d, want both attempts block-dispatched", c.Stats().BlockInsts)
				}
			})
		}
	}
}

// inertInjector arms nothing and never fires: Run keeps to blocks, as
// with no injector.
type inertInjector struct{}

func (inertInjector) FetchArmed(int) bool                  { return false }
func (inertInjector) FetchFault(int, uint64, uint64) error { return nil }
func (inertInjector) DropFlush(int, uint64, uint64) bool   { return false }

// stepInjector arms a fetch fault that never fires: it holds Run to
// single steps and changes nothing else, so it is the Step arm of the
// comparisons against blocks.
type stepInjector struct{ inertInjector }

func (stepInjector) FetchArmed(int) bool { return true }

// TestStepAllocatesNothing pins Step's dispatch as allocation-free.
// A step injector keeps Run on Step for every instruction, and the
// loop's ADDI r2 lies in the last 9 bytes of its page, where the
// decode cache never holds it, so every pass also takes the decode-miss
// path. Handlers take the instruction by pointer; a pointer to a value
// on Step's stack would escape and cost an allocation per step.
func TestStepAllocatesNothing(t *testing.T) {
	const iters = 100
	var a isa.Asm
	a.Movi(1, 0)
	loop := a.Len()
	a.AluI(isa.ADDI, 1, 1)
	a.CmpI(1, iters)
	a.Nop(1)
	a.Nop(1)
	a.Nop(1)
	late := a.Len()
	a.AluI(isa.ADDI, 2, 1)
	a.Nop(1)
	a.Nop(1)
	a.Nop(1)
	jccAt := a.Len()
	a.Jcc(isa.LT, int32(loop-(jccAt+6)))
	a.Hlt()
	// Place the code so that late sits 9 bytes before the page end.
	start := int(mem.PageSize) - 9 - late
	code := make([]byte, start+a.Len())
	copy(code[start:], a.Bytes())
	c := newVM(t, code)
	c.SetInjector(stepInjector{}, 0)
	entry := textBase + uint64(start)
	misses := c.Stats().DecodeMisses
	allocs := testing.AllocsPerRun(20, func() {
		c.SetPC(entry)
		if _, err := c.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Run through Step allocates %v times per run, want 0", allocs)
	}
	if got := c.Stats().DecodeMisses - misses; got < 21*iters {
		t.Errorf("%d decode misses over 21 runs, want the late ADDI to miss on each of its %d passes", got, 21*iters)
	}
	if c.Stats().BlockInsts != 0 {
		t.Error("a fetch fault is armed, yet instructions ran in blocks")
	}
}
