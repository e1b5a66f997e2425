package cpu

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// FuzzBlockVsStep is the differential oracle for block chaining: any
// byte string, loaded as text and executed through Run's superblock
// dispatcher, must produce exactly the architectural outcome of
// single-stepping the same bytes — same retired count, same error (or
// none), same registers, pc, cycles, halt state, memory and
// architectural stats. The blocks run twice, plain and under a
// recording tracer: the traced run must make exactly the tracer calls
// single steps make (each Step with its pc, cycles, instruction and
// the Instructions count the CPU shows there, and every Call, Ret and
// Emit), and must leave every stat of the plain block run, the
// host-side ones included. The corpus seeds the structured shapes the
// chainer special-cases (hot loops, NOPN padding, straddling
// instructions, calls, traps, privileged ops); the fuzzer mutates from
// there into arbitrary garbage, which must still agree byte for byte.
func FuzzBlockVsStep(f *testing.F) {
	f.Add(hotLoopProgram(20))
	{
		// Call/return across a block boundary, stack traffic, XCHG.
		var a isa.Asm
		a.Movi(1, int64(dataBase))
		a.Movi(2, 7)
		a.Push(2)
		a.Pop(3)
		a.Xchg(1, 2)
		a.Call(2) // skip the HLT below... lands on the Ret
		a.Hlt()
		a.Ret()
		a.Hlt()
		f.Add(a.Bytes())
	}
	{
		// NOPN padding, privileged ops, RDTSC, a BRK trap at the end.
		var a isa.Asm
		a.Nop(6)
		a.Sti()
		a.Rdtsc(4)
		a.Cli()
		a.Pause()
		a.Brk()
		f.Add(a.Bytes())
	}
	{
		// An instruction straddling the first page boundary.
		pad := bytes.Repeat([]byte{byte(isa.NOP)}, int(mem.PageSize)-5)
		var a isa.Asm
		a.Movi(3, 0x1234567890)
		a.Hlt()
		f.Add(append(pad, a.Bytes()...))
	}
	{
		// Memory traffic into the data page plus a fault at the end
		// (store to unmapped memory).
		var a isa.Asm
		a.Movi(1, int64(dataBase))
		a.Movi(2, 0xabcd)
		a.St(1, 2, 8, 0)
		a.Ld(3, 1, 8, 0)
		a.Movi(1, 0x10)
		a.St(1, 2, 8, 0)
		a.Hlt()
		f.Add(a.Bytes())
	}

	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) == 0 {
			return
		}
		if len(code) > 2*int(mem.PageSize) {
			code = code[:2*mem.PageSize]
		}
		build := func() *CPU {
			m := mem.New()
			textLen := mem.PageAlignUp(uint64(len(code)))
			if err := m.Map(textBase, textLen, mem.RW); err != nil {
				t.Fatal(err)
			}
			if err := m.Write(textBase, code); err != nil {
				t.Fatal(err)
			}
			if err := m.Protect(textBase, textLen, mem.RX); err != nil {
				t.Fatal(err)
			}
			if err := m.Map(dataBase, mem.PageSize, mem.RW); err != nil {
				t.Fatal(err)
			}
			if err := m.Map(stackTop-stackSize, stackSize, mem.RW); err != nil {
				t.Fatal(err)
			}
			c := New(m, DefaultConfig())
			c.SetPC(textBase)
			c.SetReg(isa.SP, stackTop)
			// Exercise the interrupt-perturbation epilogue too: block
			// dispatch must service due interrupts at exactly the same
			// instructions as single-stepping.
			c.SetInterruptPerturbation(97, 13)
			c.SetInterruptsEnabled(true)
			return c
		}

		const maxSteps = 2000
		runBlocks := func(rec *recTracer) (*CPU, uint64, error) {
			c := build()
			if rec != nil {
				rec.cpu = c
				c.SetTracer(rec)
			}
			n, err := c.Run(maxSteps)
			if err != nil && strings.Contains(err.Error(), "exceeded") {
				err = nil // budget exhausted, not an execution error
			}
			return c, n, err
		}
		blocks, nA, errA := runBlocks(nil)
		brec := &recTracer{}
		traced, nT, errT := runBlocks(brec)

		ref := build()
		rrec := &recTracer{cpu: ref}
		ref.SetTracer(rrec)
		var nB uint64
		var errB error
		for nB < maxSteps && !ref.Halted() {
			if err := ref.Step(); err != nil {
				errB = err
				break
			}
			nB++
		}

		sameAsStep := func(what string, c *CPU, n uint64, err error) {
			if n != nB {
				t.Fatalf("retired %d via %s, %d via Step", n, what, nB)
			}
			switch {
			case (err == nil) != (errB == nil):
				t.Fatalf("errors diverge: %s %v, Step %v", what, err, errB)
			case err != nil && err.Error() != errB.Error():
				t.Fatalf("error text diverges:\n%s: %v\nStep:   %v", what, err, errB)
			}
			if c.PC() != ref.PC() || c.Cycles() != ref.Cycles() || c.Halted() != ref.Halted() {
				t.Fatalf("%s state diverges: pc %#x/%#x cycles %d/%d halted %v/%v",
					what, c.PC(), ref.PC(), c.Cycles(), ref.Cycles(), c.Halted(), ref.Halted())
			}
			for r := 0; r < isa.NumRegs; r++ {
				if c.Reg(isa.Reg(r)) != ref.Reg(isa.Reg(r)) {
					t.Fatalf("%s r%d diverges: %#x vs %#x", what, r, c.Reg(isa.Reg(r)), ref.Reg(isa.Reg(r)))
				}
			}
			sa, sb := c.Stats(), ref.Stats()
			for _, s := range []*Stats{&sa, &sb} {
				// Host-accelerator counters legitimately differ between the
				// two dispatch strategies.
				s.DecodeHits, s.DecodeMisses = 0, 0
				s.BlockBuilds, s.BlockHits, s.BlockInsts, s.BlockInvalidates = 0, 0, 0, 0
			}
			if sa != sb {
				t.Fatalf("architectural stats diverge:\n%s: %+v\nStep:   %+v", what, sa, sb)
			}
			var da, db [mem.PageSize]byte
			if err := c.Mem.Read(dataBase, da[:]); err != nil {
				t.Fatal(err)
			}
			if err := ref.Mem.Read(dataBase, db[:]); err != nil {
				t.Fatal(err)
			}
			if da != db {
				t.Fatalf("%s data page contents diverge", what)
			}
		}
		sameAsStep("blocks", blocks, nA, errA)
		sameAsStep("traced blocks", traced, nT, errT)
		if !slices.Equal(brec.evs, rrec.evs) {
			for i := 0; i < len(brec.evs) && i < len(rrec.evs); i++ {
				if brec.evs[i] != rrec.evs[i] {
					t.Fatalf("tracer call %d diverges:\nblocks: %+v\nStep:   %+v", i, brec.evs[i], rrec.evs[i])
				}
			}
			t.Fatalf("%d tracer calls via blocks, %d via Step", len(brec.evs), len(rrec.evs))
		}
		if blocks.Stats() != traced.Stats() {
			t.Fatalf("a tracer changes the block run's stats:\nplain:  %+v\ntraced: %+v", blocks.Stats(), traced.Stats())
		}
	})
}
