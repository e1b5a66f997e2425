package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

func TestICacheFillStats(t *testing.T) {
	var a isa.Asm
	a.Movi(0, 1)
	a.Hlt()
	c := newVM(t, a.Bytes())
	run(t, c)
	if got := c.Stats().ICacheFills; got != 1 {
		t.Errorf("icache fills = %d, want 1 (single page)", got)
	}
	// Re-running the same code must not refill.
	c.SetPC(textBase)
	run(t, c)
	if got := c.Stats().ICacheFills; got != 1 {
		t.Errorf("icache refilled on warm run: %d", got)
	}
	// Flushing forces one more fill.
	c.FlushICache(textBase, 1)
	c.SetPC(textBase)
	run(t, c)
	if got := c.Stats().ICacheFills; got != 2 {
		t.Errorf("fills after flush = %d, want 2", got)
	}
}

func TestInstructionStraddlingPageBoundary(t *testing.T) {
	// Place a MOVI so its 10 bytes straddle a page boundary.
	m := mem.New()
	if err := m.Map(textBase, 2*mem.PageSize, mem.RWX); err != nil {
		t.Fatal(err)
	}
	start := textBase + mem.PageSize - 5 // 5 bytes in page 0, 5 in page 1
	var a isa.Asm
	a.Movi(3, 0x1122334455667788)
	a.Hlt()
	if err := m.Write(start, a.Bytes()); err != nil {
		t.Fatal(err)
	}
	c := New(m, DefaultConfig())
	c.SetPC(start)
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.Reg(3) != 0x1122334455667788 {
		t.Errorf("r3 = %#x", c.Reg(3))
	}
	if c.Stats().ICacheFills != 2 {
		t.Errorf("fills = %d, want 2", c.Stats().ICacheFills)
	}
}

func TestShortInstructionAtEndOfMapping(t *testing.T) {
	// A 1-byte HLT as the very last mapped byte must execute even
	// though the 10-byte decode window cannot be fully fetched.
	m := mem.New()
	if err := m.Map(textBase, mem.PageSize, mem.RWX); err != nil {
		t.Fatal(err)
	}
	last := textBase + mem.PageSize - 1
	if err := m.Write(last, []byte{byte(isa.HLT)}); err != nil {
		t.Fatal(err)
	}
	c := New(m, DefaultConfig())
	c.SetPC(last)
	if _, err := c.Run(2); err != nil {
		t.Fatalf("HLT at mapping edge: %v", err)
	}
	if !c.Halted() {
		t.Error("did not halt")
	}
}

func TestWideNopStraddlingPages(t *testing.T) {
	// A 200-byte NOPN whose padding crosses into the next page: only
	// the first two bytes matter for decoding.
	m := mem.New()
	if err := m.Map(textBase, 2*mem.PageSize, mem.RWX); err != nil {
		t.Fatal(err)
	}
	start := textBase + mem.PageSize - 3
	code := append(isa.EncodeNop(200), byte(isa.HLT))
	if err := m.Write(start, code); err != nil {
		t.Fatal(err)
	}
	c := New(m, DefaultConfig())
	c.SetPC(start)
	if _, err := c.Run(5); err != nil {
		t.Fatal(err)
	}
	if !c.Halted() {
		t.Error("did not reach HLT after wide NOP")
	}
	if c.PC() != start+201 {
		t.Errorf("pc = %#x, want %#x", c.PC(), start+201)
	}
}

func TestPerCPUICacheIsolation(t *testing.T) {
	// Two CPUs on the same memory: flushing one leaves the other stale.
	m := mem.New()
	if err := m.Map(textBase, mem.PageSize, mem.RWX); err != nil {
		t.Fatal(err)
	}
	var a isa.Asm
	a.Movi(0, 1)
	a.Hlt()
	if err := m.Write(textBase, a.Bytes()); err != nil {
		t.Fatal(err)
	}
	c1 := New(m, DefaultConfig())
	c2 := New(m, DefaultConfig())
	for _, c := range []*CPU{c1, c2} {
		c.SetPC(textBase)
		if _, err := c.Run(10); err != nil {
			t.Fatal(err)
		}
	}
	// Patch the immediate to 2; flush only c1.
	var b isa.Asm
	b.Movi(0, 2)
	if err := m.Write(textBase, b.Bytes()); err != nil {
		t.Fatal(err)
	}
	c1.FlushICache(textBase, 10)
	c1.SetPC(textBase)
	c2.SetPC(textBase)
	if _, err := c1.Run(10); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Run(10); err != nil {
		t.Fatal(err)
	}
	if c1.Reg(0) != 2 {
		t.Errorf("flushed CPU sees %d, want 2", c1.Reg(0))
	}
	if c2.Reg(0) != 1 {
		t.Errorf("unflushed CPU sees %d, want stale 1", c2.Reg(0))
	}
}

func TestInterruptPerturbation(t *testing.T) {
	prog := func() *CPU {
		var a isa.Asm
		a.Sti()
		a.Movi(1, 0)
		loop := a.Len()
		a.AluI(isa.ADDI, 1, 1)
		a.CmpI(1, 1000)
		jccAt := a.Len()
		a.Jcc(isa.LT, int32(loop-(jccAt+6)))
		a.Hlt()
		return newVM(t, a.Bytes())
	}
	quiet := prog()
	run(t, quiet)
	base := quiet.Cycles()

	noisy := prog()
	noisy.SetInterruptPerturbation(500, 200)
	run(t, noisy)
	if noisy.Stats().Interrupts == 0 {
		t.Fatal("no interrupts fired")
	}
	wantExtra := noisy.Stats().Interrupts * 200
	if noisy.Cycles() != base+wantExtra {
		t.Errorf("cycles = %d, want %d + %d interrupt cycles", noisy.Cycles(), base, wantExtra)
	}

	// With interrupts masked (no STI executed first) nothing fires.
	var b isa.Asm
	b.Movi(1, 0)
	b.Hlt()
	masked := newVM(t, b.Bytes())
	masked.SetInterruptPerturbation(1, 100)
	run(t, masked)
	if masked.Stats().Interrupts != 0 {
		t.Error("interrupts fired while masked")
	}
}

func TestTraceHookObservesPatchedCode(t *testing.T) {
	var a isa.Asm
	callAt := a.Len()
	a.Call(0)
	a.Hlt()
	f1 := a.Len()
	a.Movi(0, 1)
	a.Ret()
	f2 := a.Len()
	a.Movi(0, 2)
	a.Ret()
	rel, _ := isa.CallRel(textBase+uint64(callAt), textBase+uint64(f1))
	p := isa.EncodeCall(rel)
	copy(a.Bytes()[callAt:], p[:])

	c := newVM(t, a.Bytes())
	var targets []uint64
	c.SetTracer(trace.StepFunc(func(pc, cycles uint64, in *isa.Inst) {
		if in.Op == isa.CALL {
			targets = append(targets, pc+uint64(in.Len)+uint64(in.Imm))
		}
	}))
	run(t, c)
	if len(targets) != 1 || targets[0] != textBase+uint64(f1) {
		t.Fatalf("targets = %#x", targets)
	}
	// Patch the call site to f2 (with flush) and re-run: the trace
	// must show the new target — unlike GDB on the real system, which
	// §7.2 reports keeps displaying the original call.
	rel2, _ := isa.CallRel(textBase+uint64(callAt), textBase+uint64(f2))
	p2 := isa.EncodeCall(rel2)
	if err := c.Mem.WriteForce(textBase+uint64(callAt), p2[:]); err != nil {
		t.Fatal(err)
	}
	c.FlushICache(textBase+uint64(callAt), 5)
	c.SetPC(textBase)
	run(t, c)
	if len(targets) != 2 || targets[1] != textBase+uint64(f2) {
		t.Fatalf("targets after patch = %#x", targets)
	}
	if c.Reg(0) != 2 {
		t.Errorf("r0 = %d, want 2", c.Reg(0))
	}
}
