package cpu

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// TestCPUFieldsClassifiedForSnapshot is the snapshot-completeness
// gate: every field of CPU, icEntry and icLine must be explicitly classified as
// serialized (captured by ExportState) or host wiring (reconstructed
// by the harness, not state). Adding a field without deciding its
// disposition fails this test — the bug class where new machine state
// silently never reaches a snapshot, so a restored run diverges.
func TestCPUFieldsClassifiedForSnapshot(t *testing.T) {
	serialized := map[string]bool{
		"regs": true, "pc": true, "cycles": true, "halted": true,
		"cmpA": true, "cmpB": true,
		"btb": true, "ras": true, "rasN": true,
		"mode": true, "intrOn": true,
		"intrPeriod": true, "intrCost": true, "nextIntr": true,
		"icache": true, "stats": true,
	}
	hostWiring := map[string]bool{
		"Mem":        true,             // the address space is serialized by mem.ExportPages
		"cfg":        true,             // cost model: the constructing harness's contract
		"hypervisor": true,             // host callback
		"tracer":     true,             // observability hook
		"inject":     true, "id": true, // fault-injection wiring
		"OutB": true, "InB": true, // device callbacks
		"lastPN": true, "lastLine": true, // icache line memo, rebuilt lazily
		"lines":     true, // line table: the constructing harness's sharing scope
		"missed":    true, // Step's decode-miss scratch slot, overwritten per miss
		"cycleStop": true, // transient RunUntil pause mark, zero at capture
	}
	checkFields(t, reflect.TypeOf(CPU{}), serialized, hostWiring)

	// A resident line is exported as its page number (the icache key),
	// this CPU's fill version and the line's bytes.
	checkFields(t, reflect.TypeOf(icEntry{}), map[string]bool{"line": true, "version": true}, nil)
	lineSerialized := map[string]bool{"bytes": true}
	// The derived caches refill from bytes as the CPU runs.
	lineDerived := map[string]bool{"slot": true, "ents": true, "nsb": true}
	checkFields(t, reflect.TypeOf(icLine{}), lineSerialized, lineDerived)
}

func checkFields(t *testing.T, typ reflect.Type, serialized, hostWiring map[string]bool) {
	t.Helper()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if serialized[name] || hostWiring[name] {
			continue
		}
		t.Errorf("%s.%s is not classified for snapshots: extend ExportState/ImportState "+
			"(and the wire format in internal/snapshot) or record it as host wiring here",
			typ.Name(), name)
	}
}

// stateVM builds a CPU mid-flight: warmed predictors, resident icache
// lines with decode cache and superblock entries, live RAS, interrupt
// perturbation — everything ExportState claims to capture.
func stateVM(t *testing.T) *CPU {
	t.Helper()
	c := newVM(t, callLoopProgram())
	c.SetInterruptsEnabled(true)
	c.SetInterruptPerturbation(997, 30)
	if _, err := c.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if !c.Halted() {
		t.Fatal("program did not halt")
	}
	if c.Stats().Calls == 0 || len(c.icache) == 0 {
		t.Fatal("warmup did not exercise the caches")
	}
	return c
}

// callLoopProgram calls a function 300 times from a loop, then halts.
func callLoopProgram() []byte {
	var a isa.Asm
	// A call in a loop keeps the RAS and BTB busy; the loop body is
	// long enough to head a superblock.
	a.Movi(0, 0)
	a.Movi(1, 0)
	loop := a.Len()
	callAt := a.Len()
	a.Call(0) // patched below to target fn
	a.AluI(isa.ADDI, 1, 1)
	a.CmpI(1, 300)
	jccAt := a.Len()
	a.Jcc(isa.LT, int32(loop-(jccAt+6)))
	a.Hlt()
	fn := a.Len()
	a.AluI(isa.ADDI, 0, 3)
	a.Ret()
	code := a.Bytes()
	// Fix the call displacement now that fn's offset is known.
	var fix isa.Asm
	fix.Call(int32(fn - (callAt + 5)))
	copy(code[callAt:], fix.Bytes())
	return code
}

// TestExportImportRoundTrip: importing an exported state onto a fresh
// CPU (same config) reproduces it exactly. An imported line holds no
// decoded instruction or block until the CPU executes it, and the
// CacheStats start at zero; run again, the two CPUs retire the same
// cycles, registers and simulated counters.
func TestExportImportRoundTrip(t *testing.T) {
	c := stateVM(t)
	s := c.ExportState()
	fresh := New(c.Mem, c.Config())
	if err := fresh.ImportState(s); err != nil {
		t.Fatal(err)
	}
	again := fresh.ExportState()
	if !reflect.DeepEqual(s, again) {
		t.Fatalf("re-export diverged\nfirst:  %+v\nsecond: %+v", s, again)
	}
	for pn, e := range fresh.icache {
		if len(e.line.ents) != 1 || e.line.nsb != 0 {
			t.Fatalf("line %#x imported with %d cached entries, %d blocks", pn, len(e.line.ents)-1, e.line.nsb)
		}
	}
	if fresh.Stats().CacheStats != (CacheStats{}) {
		t.Fatalf("imported cache counters %+v, want zero", fresh.Stats().CacheStats)
	}

	for _, cpu := range []*CPU{c, fresh} {
		cpu.SetPC(textBase)
		run(t, cpu)
	}
	if c.Cycles() != fresh.Cycles() || c.regs != fresh.regs {
		t.Fatalf("rerun diverged: cycles %d vs %d, regs %v vs %v", c.Cycles(), fresh.Cycles(), c.regs, fresh.regs)
	}
	if cs, fs := c.Stats().RunStats, fresh.Stats().RunStats; cs != fs {
		t.Fatalf("rerun stats diverged\nexporter: %+v\nimporter: %+v", cs, fs)
	}
	for pn, e := range fresh.icache {
		if e.line.nsb == 0 {
			t.Fatalf("line %#x formed no block as the imported CPU ran", pn)
		}
	}
}

// TestImportRejectsMalformedLines: ImportState accepts only the
// canonical lines and sparse BTB ExportState writes, and checks them
// before it changes anything, so every malformed form errors and
// leaves the importing CPU's state as it was.
func TestImportRejectsMalformedLines(t *testing.T) {
	c := stateVM(t)
	if n := len(c.ExportState().BTB); n == 0 || n > 8 {
		t.Fatalf("stateVM exports %d BTB entries, want a few", n)
	}
	// A second line, below stateVM's, to put out of order.
	below := ICLineState{PN: textBase>>mem.PageShift - 1, Bytes: make([]byte, mem.PageSize)}
	for _, tc := range []struct {
		name   string
		mangle func(s *State)
	}{
		{"short line bytes", func(s *State) { s.ICache[0].Bytes = s.ICache[0].Bytes[:100] }},
		{"repeated line", func(s *State) { s.ICache = append(s.ICache, s.ICache[0]) }},
		{"lines out of order", func(s *State) { s.ICache = append(s.ICache, below) }},
		{"BTB entry past the end", func(s *State) { s.BTB = append(s.BTB, BTBState{Index: s.BTBSize, Valid: true}) }},
		{"negative BTB index", func(s *State) { s.BTB = append([]BTBState{{Index: -1, Valid: true}}, s.BTB...) }},
		{"repeated BTB entry", func(s *State) { s.BTB = append(s.BTB, s.BTB[len(s.BTB)-1]) }},
		{"unsorted BTB entries", func(s *State) {
			s.BTB = append([]BTBState{{Index: s.BTB[len(s.BTB)-1].Index + 1, Valid: true}}, s.BTB...)
		}},
		{"zero BTB entry", func(s *State) { s.BTB = append(s.BTB, BTBState{Index: s.BTBSize - 1}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := c.ExportState()
			tc.mangle(&s)
			target := New(c.Mem, c.Config())
			before := target.ExportState()
			if err := target.ImportState(s); err == nil {
				t.Fatal("malformed state imported without error")
			}
			if after := target.ExportState(); !reflect.DeepEqual(before, after) {
				t.Fatalf("rejected import changed the CPU\nbefore: %+v\nafter:  %+v", before, after)
			}
		})
	}
}

func TestImportRejectsConfigMismatch(t *testing.T) {
	c := stateVM(t)
	s := c.ExportState()
	cfg := c.Config()
	cfg.BTBSize *= 2
	other := New(c.Mem, cfg)
	if err := other.ImportState(s); err == nil {
		t.Fatal("imported state across a predictor-geometry change")
	}
}

// TestRunUntilPauseInvariance pins the checkpoint property: a run
// paused at arbitrary cycle thresholds and continued retires exactly
// the cycles, registers and statistics of one uninterrupted run — on
// single steps (a fetch fault armed that never fires) and on blocks
// (where the pause must land between block dispatches, never inside
// one). A tracer and an inert injector ride the blocks, so traced and
// inert runs must also pause at exactly the plain run's cycles.
func TestRunUntilPauseInvariance(t *testing.T) {
	var pauses [4][]uint64
	for mode, name := range []string{"step", "blocks", "traced", "inert"} {
		attach := func(c *CPU) {
			switch name {
			case "step":
				c.SetInjector(stepInjector{}, 0)
			case "traced":
				c.SetTracer(&recTracer{})
			case "inert":
				c.SetInjector(inertInjector{}, 0)
			}
		}
		var a isa.Asm
		a.Movi(0, 0)
		a.Movi(1, 0)
		loop := a.Len()
		a.Alu(isa.ADD, 0, 1)
		a.AluI(isa.ADDI, 1, 1)
		a.CmpI(1, 500)
		jccAt := a.Len()
		a.Jcc(isa.LT, int32(loop-(jccAt+6)))
		a.Hlt()
		code := a.Bytes()

		straight := newVM(t, code)
		attach(straight)
		run(t, straight)

		paused := newVM(t, code)
		attach(paused)
		// Pause every 137 cycles until past the straight run's total,
		// then run to the halt.
		for target := uint64(137); target < straight.Cycles()+200; target += 137 {
			if _, err := paused.RunUntil(target, 1_000_000); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if paused.Halted() {
				break
			}
			if got := paused.Cycles(); got < target && !paused.Halted() {
				t.Fatalf("%s: RunUntil(%d) stopped at cycle %d", name, target, got)
			}
			pauses[mode] = append(pauses[mode], paused.Cycles())
		}
		if !paused.Halted() {
			if _, err := paused.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
		}
		if straight.Cycles() != paused.Cycles() {
			t.Fatalf("%s: cycles %d (straight) vs %d (paused)",
				name, straight.Cycles(), paused.Cycles())
		}
		if straight.Reg(0) != paused.Reg(0) {
			t.Fatalf("%s: results diverged", name)
		}
		if straight.Stats() != paused.Stats() {
			t.Fatalf("%s: stats diverged\nstraight: %+v\npaused:   %+v",
				name, straight.Stats(), paused.Stats())
		}
		if blocks := paused.Stats().BlockInsts > 0; blocks != (name != "step") {
			t.Errorf("%s: instructions ran in blocks: %v", name, blocks)
		}
	}
	if !slices.Equal(pauses[1], pauses[2]) {
		t.Errorf("a tracer moves the pauses:\nplain:  %v\ntraced: %v", pauses[1], pauses[2])
	}
	if !slices.Equal(pauses[1], pauses[3]) {
		t.Errorf("an inert injector moves the pauses:\nplain: %v\ninert: %v", pauses[1], pauses[3])
	}
}
