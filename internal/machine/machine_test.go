package machine

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/mem"
	"repro/internal/obj"
)

// buildImage links a tiny program:
//
//	add2(a, b) { return a + b; }
//	counter: u64 global = 0
//	bump()   { counter++; return counter; }
//	hello()  { out 'h','i' to the console }
func buildImage(t *testing.T) *link.Image {
	t.Helper()
	o := obj.New("prog.c")
	var a isa.Asm

	add2 := a.Len()
	a.Alu(isa.ADD, 0, 1)
	a.Ret()

	bump := a.Len()
	a.Movi(1, 0) // &counter (reloc)
	bumpMovi := bump
	a.Ld(0, 1, 8, 0)
	a.AluI(isa.ADDI, 0, 1)
	a.St(1, 0, 8, 0)
	a.Ret()

	hello := a.Len()
	a.Movi(0, 'h')
	a.OutB(ConsolePort, 0)
	a.Movi(0, 'i')
	a.OutB(ConsolePort, 0)
	a.Ret()

	o.Section(obj.SecText).Data = a.Bytes()
	bss := o.Section(obj.SecBSS)
	bss.Size = 8

	o.AddSymbol(obj.Symbol{Name: "add2", Section: obj.SecText, Offset: uint64(add2), Global: true})
	o.AddSymbol(obj.Symbol{Name: "bump", Section: obj.SecText, Offset: uint64(bump), Global: true})
	o.AddSymbol(obj.Symbol{Name: "hello", Section: obj.SecText, Offset: uint64(hello), Global: true})
	o.AddSymbol(obj.Symbol{Name: "counter", Section: obj.SecBSS, Offset: 0, Size: 8, Global: true})
	o.AddReloc(obj.Reloc{Section: obj.SecText, Offset: uint64(bumpMovi) + 2, Type: obj.RelocAbs64, Symbol: "counter"})

	img, err := link.Link(o)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestCallWithArguments(t *testing.T) {
	m, err := New(buildImage(t))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.CallNamed("add2", 30, 12)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("add2(30, 12) = %d", got)
	}
}

func TestCallsComposeAndGlobalsPersist(t *testing.T) {
	m, err := New(buildImage(t))
	if err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want <= 3; want++ {
		got, err := m.CallNamed("bump")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("bump() = %d, want %d", got, want)
		}
	}
	v, err := m.ReadGlobal("counter", 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Errorf("counter = %d, want 3", v)
	}
	if err := m.WriteGlobal("counter", 8, 100); err != nil {
		t.Fatal(err)
	}
	got, err := m.CallNamed("bump")
	if err != nil {
		t.Fatal(err)
	}
	if got != 101 {
		t.Errorf("bump after WriteGlobal = %d, want 101", got)
	}
}

func TestConsoleCapture(t *testing.T) {
	m, err := New(buildImage(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CallNamed("hello"); err != nil {
		t.Fatal(err)
	}
	if string(m.Console()) != "hi" {
		t.Errorf("console = %q", m.Console())
	}
	m.ResetConsole()
	if len(m.Console()) != 0 {
		t.Error("console not reset")
	}
}

func TestTextSegmentIsReadExec(t *testing.T) {
	m, err := New(buildImage(t))
	if err != nil {
		t.Fatal(err)
	}
	addr := m.MustSymbol("add2")
	prot, ok := m.Mem.ProtOf(addr)
	if !ok || prot != mem.RX {
		t.Errorf("text prot = %v, %v; want r-x", prot, ok)
	}
	// A store into text must fault.
	if err := m.Mem.Write(addr, []byte{0}); err == nil {
		t.Error("write to text segment succeeded")
	}
}

func TestUndefinedSymbolErrors(t *testing.T) {
	m, err := New(buildImage(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CallNamed("nope"); err == nil || !strings.Contains(err.Error(), "undefined symbol") {
		t.Errorf("err = %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSymbol on missing symbol did not panic")
		}
	}()
	m.MustSymbol("nope")
}

func TestTooManyArguments(t *testing.T) {
	m, err := New(buildImage(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CallNamed("add2", 1, 2, 3, 4, 5, 6, 7); err == nil {
		t.Error("7-argument call succeeded")
	}
}

func TestWithWXEnforced(t *testing.T) {
	m, err := New(buildImage(t), WithWX())
	if err != nil {
		t.Fatal(err)
	}
	addr := m.MustSymbol("add2")
	if err := m.Mem.Protect(addr, 1, mem.RWX); err == nil {
		t.Error("RWX protect allowed under W^X")
	}
}

func TestStackBalancedAcrossCalls(t *testing.T) {
	m, err := New(buildImage(t))
	if err != nil {
		t.Fatal(err)
	}
	sp0 := m.CPU.Reg(isa.SP)
	for i := 0; i < 5; i++ {
		if _, err := m.CallNamed("add2", 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if m.CPU.Reg(isa.SP) != sp0 {
		t.Errorf("sp drifted: %#x -> %#x", sp0, m.CPU.Reg(isa.SP))
	}
}

func TestMaxStepsGuards(t *testing.T) {
	// A function that never returns must hit MaxSteps.
	o := obj.New("loop.c")
	var a isa.Asm
	a.Jmp(-5)
	o.Section(obj.SecText).Data = a.Bytes()
	o.AddSymbol(obj.Symbol{Name: "spin", Section: obj.SecText, Offset: 0, Global: true})
	img, err := link.Link(o)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(img)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxSteps = 1000
	if _, err := m.CallNamed("spin"); err == nil {
		t.Error("infinite loop returned")
	}
}
