package faultinject

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/mem"
)

func TestSeededPlanIsDeterministic(t *testing.T) {
	a := New(42, Opts{Points: 8, CPUs: 3})
	b := New(42, Opts{Points: 8, CPUs: 3})
	if !reflect.DeepEqual(a.Points(), b.Points()) {
		t.Fatalf("same seed produced different plans:\n%v\n%v", a.Points(), b.Points())
	}
	c := New(43, Opts{Points: 8, CPUs: 3})
	if reflect.DeepEqual(a.Points(), c.Points()) {
		t.Fatalf("different seeds produced identical plans: %v", a.Points())
	}
}

func TestProtectFaultFiresOnNthOpExactlyOnce(t *testing.T) {
	p := Exact(Point{Kind: KindProtect, Op: 2, Transient: true})
	for i := 0; i < 6; i++ {
		err := p.ProtectFault(0x1000, 0x1000, mem.RW)
		if (err != nil) != (i == 2) {
			t.Fatalf("op %d: err = %v", i, err)
		}
		if i == 2 {
			var f *Fault
			if !errors.As(err, &f) {
				t.Fatalf("op 2 error is %T, want *Fault", err)
			}
			if !f.FaultTransient() {
				t.Fatalf("transient point produced non-transient fault")
			}
		}
	}
	if p.Stats.Protect != 1 {
		t.Fatalf("Protect fired %d times, want 1", p.Stats.Protect)
	}
	if p.Remaining() != 0 {
		t.Fatalf("Remaining() = %d, want 0", p.Remaining())
	}
}

func TestWriteTearScopedToText(t *testing.T) {
	p := Exact(Point{Kind: KindWriteTear, Op: 0, Tear: 2})
	p.text = []textRange{{0x400000, 0x401000}}

	// Writes outside the text ranges neither fault nor consume ops.
	if tear, err := p.WriteTear(0x601000, 5); err != nil || tear != 0 {
		t.Fatalf("data write: tear=%d err=%v, want clean pass", tear, err)
	}
	tear, err := p.WriteTear(0x400100, 5)
	if err == nil {
		t.Fatalf("text write did not fault")
	}
	if tear != 2 {
		t.Fatalf("tear = %d, want 2", tear)
	}
	// A tear can never land the full write.
	p2 := Exact(Point{Kind: KindWriteTear, Op: 0, Tear: 9})
	p2.text = []textRange{{0x400000, 0x401000}}
	tear, err = p2.WriteTear(0x400100, 5)
	if err == nil || tear >= 5 {
		t.Fatalf("tear = %d err = %v, want partial tear with error", tear, err)
	}
}

func TestDropFlushPerCPU(t *testing.T) {
	p := Exact(Point{Kind: KindDropFlush, Op: 1, CPU: 1})
	// CPU 0's flushes are never dropped.
	for i := 0; i < 4; i++ {
		if p.DropFlush(0, 0x400000, 16) {
			t.Fatalf("cpu 0 flush %d dropped", i)
		}
	}
	// CPU 1 drops exactly its second flush.
	if p.DropFlush(1, 0x400000, 16) {
		t.Fatalf("cpu 1 flush 0 dropped, point is armed for op 1")
	}
	if !p.DropFlush(1, 0x400000, 16) {
		t.Fatalf("cpu 1 flush 1 not dropped")
	}
	if p.DropFlush(1, 0x400000, 16) {
		t.Fatalf("cpu 1 flush 2 dropped, point already fired")
	}
}

func TestFetchFaultFiresAtCycleThreshold(t *testing.T) {
	p := Exact(Point{Kind: KindFetchFault, CPU: 0, Cycle: 100, Transient: true})
	if err := p.FetchFault(0, 0x400000, 99); err != nil {
		t.Fatalf("fetch before threshold faulted: %v", err)
	}
	if err := p.FetchFault(1, 0x400000, 200); err != nil {
		t.Fatalf("fetch on wrong cpu faulted: %v", err)
	}
	err := p.FetchFault(0, 0x400010, 150)
	if err == nil {
		t.Fatalf("fetch at cycle 150 did not fault")
	}
	// The architectural fault metadata must survive errors.As through
	// the injector's wrapper.
	var mf *mem.Fault
	if !errors.As(err, &mf) {
		t.Fatalf("fetch fault does not unwrap to *mem.Fault: %v", err)
	}
	if mf.Addr != 0x400010 || mf.Kind != mem.AccessExec {
		t.Fatalf("unwrapped fault = %+v, want exec fault at 0x400010", mf)
	}
	// Spurious fault: the retry succeeds.
	if err := p.FetchFault(0, 0x400010, 151); err != nil {
		t.Fatalf("retried fetch faulted again: %v", err)
	}
}

// TestFetchArmedPerCPU: a CPU reports an armed fetch fault exactly
// while an unfired KindFetchFault point is bound to it — not before
// its cycle matters, not after it fires, and again once Import rewinds
// the plan to before it fired.
func TestFetchArmedPerCPU(t *testing.T) {
	if Exact(Point{Kind: KindProtect}, Point{Kind: KindDropFlush, CPU: 0}).FetchArmed(0) {
		t.Fatal("a plan without fetch points arms a fetch fault")
	}
	p := Exact(
		Point{Kind: KindFetchFault, CPU: 1, Cycle: 100},
		Point{Kind: KindFetchFault, CPU: 2, Cycle: 100},
		Point{Kind: KindProtect},
	)
	armed := func() [3]bool { return [3]bool{p.FetchArmed(0), p.FetchArmed(1), p.FetchArmed(2)} }
	if got := armed(); got != [3]bool{false, true, true} {
		t.Fatalf("armed per CPU = %v, want [false true true]", got)
	}
	before := p.Export()
	if err := p.FetchFault(1, 0x400000, 100); err == nil {
		t.Fatal("cpu 1's fetch fault did not fire")
	}
	if got := armed(); got != [3]bool{false, false, true} {
		t.Fatalf("after cpu 1's point fired, armed = %v, want [false false true]", got)
	}
	if err := p.Import(before); err != nil {
		t.Fatal(err)
	}
	if got := armed(); got != [3]bool{false, true, true} {
		t.Fatalf("after Import, armed = %v, want [false true true]", got)
	}
}

func TestPokeOptsDoNotPerturbLegacySeeds(t *testing.T) {
	// The Poke knob must not change what a legacy seed generates: a
	// fixed CI seed's fault plan stays byte-for-byte stable.
	legacy := New(7, Opts{Points: 8, CPUs: 2})
	again := New(7, Opts{Points: 8, CPUs: 2})
	if !reflect.DeepEqual(legacy.Points(), again.Points()) {
		t.Fatal("legacy plan generation is not stable")
	}
	for _, pt := range legacy.Points() {
		if pt.Kind == KindPokeStep || pt.Window {
			t.Fatalf("legacy plan contains poke-era point %+v", pt)
		}
	}
	poke := New(7, Opts{Points: 64, CPUs: 2, Poke: true})
	found := false
	for _, pt := range poke.Points() {
		if pt.Kind == KindPokeStep {
			found = true
		}
	}
	if !found {
		t.Fatal("Poke plan with 64 points generated no poke-step point")
	}
}

func TestWindowDropFlushOnlyFiresInsidePokeWindow(t *testing.T) {
	p := Exact(Point{Kind: KindDropFlush, CPU: 0, Op: 0, Window: true, Transient: true})
	// Outside any poke window the point must not match — but the
	// operation count advances, so rebuild a fresh plan per scenario.
	if p.DropFlush(0, 0x400000, 5) {
		t.Fatal("window-scoped drop-flush fired outside a poke window")
	}

	p = Exact(Point{Kind: KindDropFlush, CPU: 0, Op: 0, Window: true, Transient: true})
	p.PokePhase(1, 0x400000, 5) // BRK planted: window open
	if !p.DropFlush(0, 0x400000, 5) {
		t.Fatal("window-scoped drop-flush did not fire inside the window")
	}
	p.PokePhase(3, 0x400000, 5) // first byte restored: window closed
	if p.pokeOpen {
		t.Fatal("poke window still open after phase 3")
	}
}

func TestPokeStepPointInvokesCallback(t *testing.T) {
	p := Exact(Point{Kind: KindPokeStep, Op: 1, Transient: true})
	var got []int
	p.OnPokeStep = func(phase int, addr, n uint64) { got = append(got, phase) }
	p.PokePhase(1, 0x400000, 6) // op 0: no match
	p.PokePhase(2, 0x400000, 6) // op 1: fires
	p.PokePhase(3, 0x400000, 6) // disarmed
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("OnPokeStep phases = %v, want [2]", got)
	}
	if p.Stats.PokeSteps != 1 {
		t.Fatalf("PokeSteps = %d, want 1", p.Stats.PokeSteps)
	}
	if p.Stats.Total() != 1 {
		t.Fatalf("Total = %d, want 1", p.Stats.Total())
	}
}
