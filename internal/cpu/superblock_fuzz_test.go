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
	for _, code := range fuzzCorpus() {
		f.Add(code)
	}
	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) == 0 {
			return
		}
		code = clampCode(code)
		runBlocks := func(rec *recTracer) (*CPU, uint64, error) {
			c := fuzzVM(t, code)
			if rec != nil {
				rec.cpu = c
				c.SetTracer(rec)
			}
			n, err := fuzzRun(c)
			return c, n, err
		}
		blocks, nA, errA := runBlocks(nil)
		brec := &recTracer{}
		traced, nT, errT := runBlocks(brec)

		ref := fuzzVM(t, code)
		rrec := &recTracer{cpu: ref}
		ref.SetTracer(rrec)
		var nB uint64
		var errB error
		for nB < fuzzSteps && !ref.Halted() {
			if err := ref.Step(); err != nil {
				errB = err
				break
			}
			nB++
		}

		sameAsStep := func(what string, c *CPU, n uint64, err error) {
			sameRun(t, what+" vs Step", n, nB, err, errB)
			sameArch(t, what, c, ref)
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

// fuzzCorpus is the structured seed corpus of the interpreter's fuzz
// targets: the shapes the chainer special-cases (hot loops, NOPN
// padding, straddling instructions, calls, traps, privileged ops).
func fuzzCorpus() [][]byte {
	var progs [][]byte
	progs = append(progs, hotLoopProgram(20))
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
		progs = append(progs, a.Bytes())
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
		progs = append(progs, a.Bytes())
	}
	{
		// An instruction straddling the first page boundary.
		pad := bytes.Repeat([]byte{byte(isa.NOP)}, int(mem.PageSize)-5)
		var a isa.Asm
		a.Movi(3, 0x1234567890)
		a.Hlt()
		progs = append(progs, append(pad, a.Bytes()...))
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
		progs = append(progs, a.Bytes())
	}
	return progs
}

// clampCode keeps a fuzzed program to the two text pages fuzzVM maps
// at most.
func clampCode(code []byte) []byte {
	if len(code) > 2*int(mem.PageSize) {
		return code[:2*mem.PageSize]
	}
	return code
}

// fuzzVM loads code as text, maps the data page and a stack, and
// returns a CPU at the first instruction with interrupt perturbation
// on: block dispatch must service due interrupts at exactly the same
// instructions as single-stepping.
func fuzzVM(t *testing.T, code []byte) *CPU {
	t.Helper()
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
	c.SetInterruptPerturbation(97, 13)
	c.SetInterruptsEnabled(true)
	return c
}

// fuzzSteps bounds every fuzzed run.
const fuzzSteps = 2000

// fuzzRun runs c through Run's block dispatcher for up to fuzzSteps
// instructions; running out of steps is not an execution error.
func fuzzRun(c *CPU) (uint64, error) {
	n, err := c.Run(fuzzSteps)
	if err != nil && strings.Contains(err.Error(), "exceeded") {
		err = nil
	}
	return n, err
}

// sameRun fails the test unless two runs retired n instructions and
// ended in the same error, or none.
func sameRun(t *testing.T, what string, n, nRef uint64, err, errRef error) {
	t.Helper()
	if n != nRef {
		t.Fatalf("%s: retired %d and %d", what, n, nRef)
	}
	switch {
	case (err == nil) != (errRef == nil):
		t.Fatalf("%s: errors diverge: %v and %v", what, err, errRef)
	case err != nil && err.Error() != errRef.Error():
		t.Fatalf("%s: error text diverges:\n%v\n%v", what, err, errRef)
	}
}

// sameArch fails the test unless c and ref agree on pc, cycles, halt
// state, registers and the data page.
func sameArch(t *testing.T, what string, c, ref *CPU) {
	t.Helper()
	if c.PC() != ref.PC() || c.Cycles() != ref.Cycles() || c.Halted() != ref.Halted() {
		t.Fatalf("%s state diverges: pc %#x/%#x cycles %d/%d halted %v/%v",
			what, c.PC(), ref.PC(), c.Cycles(), ref.Cycles(), c.Halted(), ref.Halted())
	}
	if c.regs != ref.regs {
		t.Fatalf("%s registers diverge:\n%#x\n%#x", what, c.regs, ref.regs)
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
