package machine

import (
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/mem"
	"repro/internal/obj"
)

// buildPokeImage assembles
//
//	spin:
//	  movi r1, 100000
//	site: addi r1, -1      <- the 6-byte instruction tests poke over
//	  cmpi r1, 0
//	  jne site
//	  ret
//
// and exports "spin" and "site".
func buildPokeImage(t *testing.T) *link.Image {
	t.Helper()
	o := obj.New("poke.c")
	var a isa.Asm
	spin := a.Len()
	a.Movi(1, 100000)
	site := a.Len()
	a.AluI(isa.ADDI, 1, -1)
	a.CmpI(1, 0)
	a.Jcc(isa.NE, int32(site-(a.Len()+6)))
	a.Ret()
	o.Section(obj.SecText).Data = a.Bytes()
	o.AddSymbol(obj.Symbol{Name: "spin", Section: obj.SecText, Offset: uint64(spin), Global: true})
	o.AddSymbol(obj.Symbol{Name: "site", Section: obj.SecText, Offset: uint64(site), Size: 6, Global: true})
	img, err := link.Link(o)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestInterleaveRejectsZeroQuantum: a zero quantum used to make
// Interleave spin forever (the CPU counted as running but was never
// stepped); it must be rejected up front.
func TestInterleaveRejectsZeroQuantum(t *testing.T) {
	img := buildPokeImage(t)
	m, err := New(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StartCall(m.CPU, "spin"); err != nil {
		t.Fatal(err)
	}
	_, err = m.Interleave([]*cpu.CPU{m.CPU}, []int{0}, 1000)
	if err == nil || !strings.Contains(err.Error(), "quantum") {
		t.Fatalf("Interleave with zero quantum: err = %v, want quantum validation error", err)
	}
}

// TestInterleaveExactStepBound: a program needing exactly N steps must
// succeed with maxSteps = N and fail with maxSteps = N-1 (the bound
// used to be enforced one step late).
func TestInterleaveExactStepBound(t *testing.T) {
	img := buildPokeImage(t)
	m, err := New(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StartCall(m.CPU, "spin"); err != nil {
		t.Fatal(err)
	}
	need, err := m.Interleave([]*cpu.CPU{m.CPU}, []int{7}, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}

	m2, err := New(buildPokeImage(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.StartCall(m2.CPU, "spin"); err != nil {
		t.Fatal(err)
	}
	if got, err := m2.Interleave([]*cpu.CPU{m2.CPU}, []int{7}, need); err != nil {
		t.Fatalf("maxSteps = exact need %d: %v (executed %d)", need, err, got)
	}

	m3, err := New(buildPokeImage(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := m3.StartCall(m3.CPU, "spin"); err != nil {
		t.Fatal(err)
	}
	got, err := m3.Interleave([]*cpu.CPU{m3.CPU}, []int{7}, need-1)
	if err == nil {
		t.Fatalf("maxSteps = %d not enforced", need-1)
	}
	if got != need-1 {
		t.Fatalf("executed %d steps under a %d-step bound", got, need-1)
	}
}

// TestAddCPUStackCollision: a mapping squatting where the next CPU
// stack goes must fail AddCPU with a descriptive error and must not
// leak the stack slot — after the squatter is unmapped, AddCPU places
// the same slot successfully.
func TestAddCPUStackCollision(t *testing.T) {
	img := buildPokeImage(t)
	m, err := New(img)
	if err != nil {
		t.Fatal(err)
	}
	span := (stackPages + 4) * mem.PageSize
	top := stackTop - span
	base := top - stackPages*mem.PageSize
	if err := m.Mem.Map(base, mem.PageSize, mem.RW); err != nil {
		t.Fatal(err)
	}
	_, err = m.AddCPU()
	if err == nil {
		t.Fatal("AddCPU over an existing mapping succeeded")
	}
	if !strings.Contains(err.Error(), "overlaps") || !strings.Contains(err.Error(), "stack for cpu 1") {
		t.Fatalf("AddCPU collision error not descriptive: %v", err)
	}
	if len(m.CPUs()) != 1 {
		t.Fatalf("failed AddCPU still registered a CPU: %d", len(m.CPUs()))
	}
	if err := m.Mem.Unmap(base, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	c2, err := m.AddCPU()
	if err != nil {
		t.Fatalf("AddCPU after unmap: %v (slot leaked by the failed attempt?)", err)
	}
	if got := c2.Reg(isa.SP); got != top {
		t.Errorf("cpu 1 stack top = %#x, want %#x", got, top)
	}
}

// TestStopMachineHerdsCPUOutOfRange parks a CPU inside an avoid range
// and checks the rendezvous steps it to a safe point before running fn.
func TestStopMachineHerdsCPUOutOfRange(t *testing.T) {
	img := buildPokeImage(t)
	m, err := New(img)
	if err != nil {
		t.Fatal(err)
	}
	site := m.MustSymbol("site")
	c := m.CPU
	if err := m.StartCall(c, "spin"); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err != nil { // park at site
		t.Fatal(err)
	}
	avoid := []Range{{Addr: site, Len: 6}}
	ran := false
	latency, err := m.StopMachine(avoid, func() error {
		ran = true
		if pc := c.PC(); pc >= site && pc < site+6 {
			t.Errorf("fn ran with cpu pc %#x inside the avoid range", pc)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("fn did not run")
	}
	if latency == 0 {
		t.Error("rendezvous latency = 0 despite herding a CPU")
	}
}
