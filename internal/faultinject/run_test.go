package faultinject

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obj"
)

// storeLoopMachine boots a machine whose "loop" function stores its
// countdown through r0 on each of 300 iterations, and whose data
// segment holds a two-page "buf".
func storeLoopMachine(t *testing.T) *machine.Machine {
	t.Helper()
	o := obj.New("loop.c")
	var a isa.Asm
	a.Movi(1, 300)
	top := a.Len()
	a.St(0, 1, 8, 0)
	a.AluI(isa.ADDI, 1, -1)
	a.CmpI(1, 0)
	a.Jcc(isa.NE, int32(top-(a.Len()+6)))
	a.Ret()
	o.Section(obj.SecText).Data = a.Bytes()
	o.Section(obj.SecData).Data = make([]byte, 2*mem.PageSize)
	o.AddSymbol(obj.Symbol{Name: "loop", Section: obj.SecText, Global: true})
	o.AddSymbol(obj.Symbol{Name: "buf", Section: obj.SecData, Size: 2 * mem.PageSize, Global: true})
	img, err := link.Link(o)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(img)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunRidesBlocksOnceFetchFaultFired: Run single-steps while a
// fetch fault is armed on its CPU, ends with the fault when it fires,
// and then, the plan exhausted, dispatches the rest of the call
// through superblocks, reaching the bare run's cycles and registers.
func TestRunRidesBlocksOnceFetchFaultFired(t *testing.T) {
	bare := storeLoopMachine(t)
	if _, err := bare.CallNamed("loop", bare.MustSymbol("buf")); err != nil {
		t.Fatal(err)
	}

	m := storeLoopMachine(t)
	p := Exact(Point{Kind: KindFetchFault, CPU: 0, Cycle: 500, Transient: true})
	p.Attach(m)
	c := m.CPU
	if err := m.StartCall(c, "loop", m.MustSymbol("buf")); err != nil {
		t.Fatal(err)
	}
	_, err := c.Run(m.MaxSteps)
	var f *Fault
	if !errors.As(err, &f) || f.Point.Kind != KindFetchFault {
		t.Fatalf("Run under an armed fetch fault returned %v, want the injected fault", err)
	}
	if got := c.Stats().BlockInsts; got != 0 {
		t.Fatalf("%d instructions ran in blocks while the fetch fault was armed", got)
	}
	if p.FetchArmed(0) {
		t.Fatal("fetch fault still armed after it fired")
	}
	if _, err := c.Run(m.MaxSteps); err != nil {
		t.Fatal(err)
	}
	if c.Stats().BlockInsts == 0 {
		t.Error("the plan is exhausted, yet Run kept to single steps")
	}
	if c.Cycles() != bare.CPU.Cycles() || c.Reg(1) != bare.CPU.Reg(1) {
		t.Errorf("run under the plan ended at cycle %d, r1 %d; bare run at %d, %d",
			c.Cycles(), c.Reg(1), bare.CPU.Cycles(), bare.CPU.Reg(1))
	}
	if p.Stats.FetchFault != 1 || p.Remaining() != 0 {
		t.Errorf("plan fired %d fetch faults with %d points left, want 1 and 0", p.Stats.FetchFault, p.Remaining())
	}
}

// TestWriteUintUnderPlan pins WriteUint's injector contract against
// the byte path, Write: on twin machines with twin plans attached,
// every store leaves the same error, page bytes, page versions and
// plan progress. A text store consults the plan exactly once, so it
// still tears where the plan says and advances the tear counter by
// one; data, page-straddling and faulting stores agree too.
func TestWriteUintUnderPlan(t *testing.T) {
	type side struct {
		m *machine.Machine
		p *Plan
	}
	newSide := func() side {
		s := side{storeLoopMachine(t), Exact(Point{Kind: KindWriteTear, Op: 1, Tear: 2})}
		s.p.Attach(s.m)
		return s
	}
	scalar, bytewise := newSide(), newSide()
	text := scalar.m.MustSymbol("loop")
	buf := scalar.m.MustSymbol("buf")
	textPage := mem.PageAlignDown(text)
	tears := func(p *Plan) uint64 {
		for _, oc := range p.Export().Ops {
			if oc.Kind == KindWriteTear {
				return oc.Count
			}
		}
		return 0
	}
	for i, st := range []struct {
		name  string
		prot  mem.Prot // the text page's protection for this store
		addr  uint64
		size  int
		fails bool
	}{
		// The patching runtime opens text for writing before it stores.
		{"text", mem.RW, text + 8, 4, false},
		{"torn text", mem.RW, text + 16, 8, true},
		{"text after the tear", mem.RW, text + 16, 8, false},
		{"data", mem.RW, buf + 24, 8, false},
		{"odd-sized data", mem.RW, buf + 40, 3, false},
		{"page-straddling data", mem.RW, buf + mem.PageSize - 3, 8, false},
		{"unmapped", mem.RW, 0x10, 8, true},
		{"read-only text", mem.RX, text + 8, 2, true},
	} {
		for _, s := range []side{scalar, bytewise} {
			if err := s.m.Mem.Protect(textPage, mem.PageSize, st.prot); err != nil {
				t.Fatal(err)
			}
		}
		v := 0x1122334455667788 + uint64(i)
		tearsBefore := tears(scalar.p)
		errScalar := scalar.m.Mem.WriteUint(st.addr, st.size, v)
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		errBytes := bytewise.m.Mem.Write(st.addr, b[:st.size])
		if fmt.Sprint(errScalar) != fmt.Sprint(errBytes) {
			t.Errorf("%s: WriteUint error %v, Write error %v", st.name, errScalar, errBytes)
		}
		if !reflect.DeepEqual(scalar.m.Mem.ExportPages(), bytewise.m.Mem.ExportPages()) {
			t.Errorf("%s: WriteUint left different page bytes or versions than Write", st.name)
		}
		if !reflect.DeepEqual(scalar.p.Export(), bytewise.p.Export()) || scalar.p.Stats != bytewise.p.Stats {
			t.Errorf("%s: plan progress differs:\nWriteUint %+v %+v\nWrite     %+v %+v",
				st.name, scalar.p.Export(), scalar.p.Stats, bytewise.p.Export(), bytewise.p.Stats)
		}
		inText := mem.PageAlignDown(st.addr) == textPage
		if got := tears(scalar.p) - tearsBefore; inText && got != 1 || !inText && got != 0 {
			t.Errorf("%s: the tear counter advanced by %d", st.name, got)
		}
		if st.fails != (errScalar != nil) {
			t.Errorf("%s: WriteUint error %v", st.name, errScalar)
		}
	}
	if scalar.p.Stats.WriteTears != 1 {
		t.Errorf("%d tears fired, want 1", scalar.p.Stats.WriteTears)
	}
	// The torn store landed its first two bytes, then the retry all 8.
	got, err := scalar.m.Mem.ReadUint(text+16, 8)
	if want := uint64(0x1122334455667788 + 2); err != nil || got != want {
		t.Errorf("text after the retried store reads %#x (%v), want %#x", got, err, want)
	}
}
