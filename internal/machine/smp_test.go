package machine

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/obj"
)

// buildSMPImage assembles:
//
//	counter: u64
//	spin:    u64 lock word
//	worker(n): for i in 0..n { lock(spin); counter++; unlock } using XCHG
//	racer(n):  for i in 0..n { counter++ } without a lock
func buildSMPImage(t *testing.T) *link.Image {
	t.Helper()
	o := obj.New("smp.c")
	var a isa.Asm

	reloc := func(at int, sym string) {
		o.AddReloc(obj.Reloc{Section: obj.SecText, Offset: uint64(at) + 2,
			Type: obj.RelocAbs64, Symbol: sym})
	}

	// worker(n in r0)
	worker := a.Len()
	a.Mov(1, 0) // r1 = n
	wLoop := a.Len()
	a.CmpI(1, 0)
	wDoneJcc := a.Len()
	a.Jcc(isa.EQ, 0) // -> done (patched below)
	// lock: r2 = &spin; spin: r3 = 1; xchg [r2], r3; if r3 != 0 retry
	lockAt := a.Len()
	reloc(lockAt, "spin")
	a.Movi(2, 0)
	retry := a.Len()
	a.Movi(3, 1)
	a.Xchg(2, 3)
	a.CmpI(3, 0)
	a.Jcc(isa.NE, int32(retry-(a.Len()+6)))
	// counter++ (read-modify-write)
	cAt := a.Len()
	reloc(cAt, "counter")
	a.Movi(4, 0)
	a.Ld(5, 4, 8, 0)
	a.AluI(isa.ADDI, 5, 1)
	a.St(4, 5, 8, 0)
	// unlock: [r2] = 0
	a.Movi(3, 0)
	a.St(2, 3, 8, 0)
	a.AluI(isa.SUBI, 1, 1)
	a.Jmp(int32(wLoop - (a.Len() + 5)))
	wDone := a.Len()
	a.Ret()
	// Patch the loop-exit branch.
	code := a.Bytes()
	relOff := wDone - (wDoneJcc + 6)
	for i := 0; i < 4; i++ {
		code[wDoneJcc+2+i] = byte(uint32(relOff) >> (8 * i))
	}

	// racer(n in r0): unlocked RMW increments.
	racer := a.Len()
	a.Mov(1, 0)
	rLoop := a.Len()
	a.CmpI(1, 0)
	rDoneJcc := a.Len()
	a.Jcc(isa.EQ, 0)
	rcAt := a.Len()
	reloc(rcAt, "counter")
	a.Movi(4, 0)
	a.Ld(5, 4, 8, 0)
	a.AluI(isa.ADDI, 5, 1)
	a.St(4, 5, 8, 0)
	a.AluI(isa.SUBI, 1, 1)
	a.Jmp(int32(rLoop - (a.Len() + 5)))
	rDone := a.Len()
	a.Ret()
	code = a.Bytes()
	relOff = rDone - (rDoneJcc + 6)
	for i := 0; i < 4; i++ {
		code[rDoneJcc+2+i] = byte(uint32(relOff) >> (8 * i))
	}

	o.Section(obj.SecText).Data = a.Bytes()
	bss := o.Section(obj.SecBSS)
	bss.Size = 16
	o.AddSymbol(obj.Symbol{Name: "worker", Section: obj.SecText, Offset: uint64(worker), Global: true})
	o.AddSymbol(obj.Symbol{Name: "racer", Section: obj.SecText, Offset: uint64(racer), Global: true})
	o.AddSymbol(obj.Symbol{Name: "counter", Section: obj.SecBSS, Offset: 0, Size: 8, Global: true})
	o.AddSymbol(obj.Symbol{Name: "spin", Section: obj.SecBSS, Offset: 8, Size: 8, Global: true})
	img, err := link.Link(o)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestTwoCPUsLockedIncrements(t *testing.T) {
	img := buildSMPImage(t)
	m, err := New(img)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.AddCPU()
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	if err := m.StartCall(m.CPU, "worker", n); err != nil {
		t.Fatal(err)
	}
	if err := m.StartCall(c2, "worker", n); err != nil {
		t.Fatal(err)
	}
	steps, err := m.Interleave([]*cpu.CPU{m.CPU, c2}, []int{3, 5}, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if steps == 0 {
		t.Fatal("no instructions executed")
	}
	v, err := m.ReadGlobal("counter", 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2*n {
		t.Errorf("counter = %d, want %d", v, 2*n)
	}
	spin, err := m.ReadGlobal("spin", 8)
	if err != nil {
		t.Fatal(err)
	}
	if spin != 0 {
		t.Error("lock still held")
	}
}

func TestTwoCPUsUnlockedRaceLosesUpdates(t *testing.T) {
	img := buildSMPImage(t)
	m, err := New(img)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.AddCPU()
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	if err := m.StartCall(m.CPU, "racer", n); err != nil {
		t.Fatal(err)
	}
	if err := m.StartCall(c2, "racer", n); err != nil {
		t.Fatal(err)
	}
	// Single-instruction interleaving tears the read-modify-write.
	if _, err := m.Interleave([]*cpu.CPU{m.CPU, c2}, []int{1, 1}, 10_000_000); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadGlobal("counter", 8)
	if err != nil {
		t.Fatal(err)
	}
	if v >= 2*n {
		t.Errorf("counter = %d; unlocked racers should lose updates", v)
	}
	if v < n {
		t.Errorf("counter = %d; both racers together must manage at least n", v)
	}
}

func TestAddCPUStacksAreDisjoint(t *testing.T) {
	img := buildSMPImage(t)
	m, err := New(img)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.AddCPU()
	if err != nil {
		t.Fatal(err)
	}
	c3, err := m.AddCPU()
	if err != nil {
		t.Fatal(err)
	}
	sps := []uint64{m.CPU.Reg(isa.SP), c2.Reg(isa.SP), c3.Reg(isa.SP)}
	for i := 0; i < len(sps); i++ {
		for j := i + 1; j < len(sps); j++ {
			d := int64(sps[i]) - int64(sps[j])
			if d < 0 {
				d = -d
			}
			if d < 4096 {
				t.Errorf("stacks %d and %d too close: %#x vs %#x", i, j, sps[i], sps[j])
			}
		}
	}
}

func TestInterleaveStepLimit(t *testing.T) {
	img := buildSMPImage(t)
	m, err := New(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StartCall(m.CPU, "worker", 1<<40); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Interleave([]*cpu.CPU{m.CPU}, []int{10}, 1000); err == nil {
		t.Error("step limit not enforced")
	}
}
