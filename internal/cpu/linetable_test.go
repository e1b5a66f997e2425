package cpu

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// textPN is the page number of the first text page newVM maps.
const textPN = textBase >> mem.PageShift

// sharingVMs returns one CPU per program, each on a memory of its own
// and all filling lines through one new table.
func sharingVMs(t *testing.T, progs ...[]byte) (*LineTable, []*CPU) {
	t.Helper()
	tab := NewLineTable()
	var cpus []*CPU
	for _, code := range progs {
		c := newVM(t, code)
		c.SetLineTable(tab)
		cpus = append(cpus, c)
	}
	return tab, cpus
}

// TestLineTableAdoption: a second CPU, on a second memory holding the
// same bytes, adopts the line the first filled through the table, with
// every block the first formed: it forms none, and it retires exactly
// what a CPU with private lines retires — registers, cycles and every
// RunStats counter.
func TestLineTableAdoption(t *testing.T) {
	code := callLoopProgram()
	_, cpus := sharingVMs(t, code, code)
	first, second := cpus[0], cpus[1]
	private := newVM(t, code)
	for _, c := range []*CPU{first, second, private} {
		c.SetInterruptsEnabled(true)
		c.SetInterruptPerturbation(997, 30)
		run(t, c)
	}
	if first.Stats().BlockBuilds == 0 {
		t.Fatal("the first CPU formed no block")
	}
	if n := second.Stats().BlockBuilds; n != 0 {
		t.Fatalf("the second CPU formed %d blocks, want 0", n)
	}
	if second.icache[textPN].line != first.icache[textPN].line {
		t.Fatal("the second CPU filled a line of its own")
	}
	sameArch(t, "adopting CPU", second, private)
	if s, p := second.Stats().RunStats, private.Stats().RunStats; s != p {
		t.Fatalf("RunStats diverge\nadopting: %+v\nprivate:  %+v", s, p)
	}
}

// TestLineTableKeysOnBytes: a page that differs by one byte gets a line
// of its own, which becomes the table's line for the page, and each
// CPU runs its own bytes.
func TestLineTableKeysOnBytes(t *testing.T) {
	prog := func(v int64) []byte {
		var a isa.Asm
		a.Movi(0, v)
		a.Hlt()
		return a.Bytes()
	}
	tab, cpus := sharingVMs(t, prog(1), prog(2))
	for i, c := range cpus {
		run(t, c)
		if want := uint64(i + 1); c.Reg(0) != want {
			t.Errorf("cpu %d computed %d, want %d", i, c.Reg(0), want)
		}
	}
	one, two := cpus[0].icache[textPN].line, cpus[1].icache[textPN].line
	if one == two {
		t.Fatal("pages that differ by one byte share a line")
	}
	if tab.lines[textPN] != two {
		t.Fatal("the table does not keep the last line filled through it")
	}
}

// TestLineTableFlushAndStalenessPerCPU: CPUs that share a line keep
// their own residency and fill versions. A store that leaves the bytes
// as they were makes only the stored-to CPU's line stale; flushing that
// CPU leaves the other's line resident; and the refill adopts the same
// line again, with its blocks, at the new version.
func TestLineTableFlushAndStalenessPerCPU(t *testing.T) {
	code := hotLoopProgram(50)
	_, cpus := sharingVMs(t, code, code)
	a, b := cpus[0], cpus[1]
	run(t, a)
	run(t, b)
	shared := a.icache[textPN].line
	if b.icache[textPN].line != shared {
		t.Fatal("the CPUs do not share the text line")
	}
	if err := a.Mem.WriteForce(textBase, code[:1]); err != nil {
		t.Fatal(err)
	}
	if !a.ICacheStale(textBase, 1) {
		t.Fatal("a's line is not stale after a store to its page")
	}
	if b.ICacheStale(textBase, 1) {
		t.Fatal("b's line is stale, though b's page was never stored to")
	}
	a.FlushICache(textBase, mem.PageSize)
	if _, ok := a.icache[textPN]; ok {
		t.Fatal("the flush left a's line resident")
	}
	if b.icache[textPN].line != shared {
		t.Fatal("flushing a dropped b's line")
	}
	builds := a.Stats().BlockBuilds
	a.SetPC(textBase)
	run(t, a)
	if a.icache[textPN].line != shared {
		t.Fatal("the refill did not adopt the line holding equal bytes")
	}
	if a.ICacheStale(textBase, 1) {
		t.Fatal("a's refilled line is stale")
	}
	if n := a.Stats().BlockBuilds - builds; n != 0 {
		t.Fatalf("the refill formed %d blocks, want 0", n)
	}
}

// TestLineTableExportImport: ExportState and ImportState round-trip on
// a CPU with a table. The importer adopts the exporter's line, and run
// again from the start it retires exactly what an importer with private
// lines retires, forming only the block at the entry: the exporter
// stepped the entry instruction, since its line was not yet resident.
func TestLineTableExportImport(t *testing.T) {
	_, cpus := sharingVMs(t, callLoopProgram())
	c := cpus[0]
	run(t, c)
	s := c.ExportState()
	shared, private := New(c.Mem, c.Config()), New(c.Mem, c.Config())
	shared.SetLineTable(c.lines)
	for _, cpu := range []*CPU{shared, private} {
		if err := cpu.ImportState(s); err != nil {
			t.Fatal(err)
		}
	}
	if again := shared.ExportState(); !reflect.DeepEqual(s, again) {
		t.Fatalf("re-export diverged\nfirst:  %+v\nsecond: %+v", s, again)
	}
	if shared.icache[textPN].line != c.icache[textPN].line {
		t.Fatal("the importer did not adopt the exporter's line")
	}
	for _, cpu := range []*CPU{shared, private} {
		cpu.SetPC(textBase)
		run(t, cpu)
	}
	sameArch(t, "importer with a table", shared, private)
	if a, b := shared.Stats().RunStats, private.Stats().RunStats; a != b {
		t.Fatalf("RunStats diverge\ntable:   %+v\nprivate: %+v", a, b)
	}
	if n, all := shared.Stats().BlockBuilds, private.Stats().BlockBuilds; n != 1 || all <= 1 {
		t.Fatalf("the importers formed %d blocks with a table and %d without, want 1 and more", n, all)
	}
}

// FuzzLineAdoption is the differential oracle for line sharing: CPU A
// runs code through table T; B runs a copy with one byte patched
// through T, after A; C runs the patched copy with private lines. B
// adopts A's lines wherever its pages hold A's bytes and forms its own
// elsewhere, and must retire exactly what C retires: the same count
// and error, registers, pc, cycles, halt state, data page and RunStats.
func FuzzLineAdoption(f *testing.F) {
	for _, code := range fuzzCorpus() {
		f.Add(code, uint16(0), byte(isa.NOP))
		f.Add(code, uint16(len(code)/2), code[len(code)/2])
	}
	f.Fuzz(func(t *testing.T, code []byte, off uint16, b byte) {
		if len(code) == 0 {
			return
		}
		code = clampCode(code)
		patched := slices.Clone(code)
		patched[int(off)%len(patched)] = b

		tab := NewLineTable()
		a := fuzzVM(t, code)
		a.SetLineTable(tab)
		fuzzRun(a)
		adopting := fuzzVM(t, patched)
		adopting.SetLineTable(tab)
		nB, errB := fuzzRun(adopting)
		private := fuzzVM(t, patched)
		nC, errC := fuzzRun(private)

		sameRun(t, "table vs private", nB, nC, errB, errC)
		sameArch(t, "table", adopting, private)
		if sb, sc := adopting.Stats().RunStats, private.Stats().RunStats; sb != sc {
			t.Fatalf("RunStats diverge\ntable:   %+v\nprivate: %+v", sb, sc)
		}
	})
}
