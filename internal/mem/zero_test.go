package mem

import (
	"bytes"
	"errors"
	"testing"
)

// tearAfter is an injector that tears every write after its first n
// bytes.
type tearAfter int

func (tearAfter) ProtectFault(addr, length uint64, prot Prot) error { return nil }

func (n tearAfter) WriteTear(addr uint64, size int) (int, error) {
	return int(n), errors.New("torn")
}

// TestNothingWritesZeroPage drives every store path onto pages that
// were never written. Each must give its page its own bytes before the
// store lands: a store into the shared zero page would show up on
// every other never-written page. Written pages must read back their
// bytes at a version of at least 1, every other page must read zero at
// version 0, and ExportPages must leave out the data of exactly the
// version-0 pages.
func TestNothingWritesZeroPage(t *testing.T) {
	const base, npages = 0x10000, 12
	m := New()
	mustMap(t, m, base, npages*PageSize, RW)
	if err := m.Protect(base+PageSize, PageSize, Read); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, npages*PageSize) // what each page must read
	written := map[uint64]bool{}          // page index -> written
	addr := func(pg, off uint64) uint64 { return base + pg*PageSize + off }
	store := func(what string, pg, off uint64, b []byte, do func() error) {
		t.Helper()
		if err := do(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		copy(want[pg*PageSize+off:], b)
		for p := pg; p <= (pg*PageSize+off+uint64(len(b))-1)/PageSize; p++ {
			written[p] = true
		}
	}

	b := []byte("written by Write")
	store("Write", 0, 0x10, b, func() error { return m.Write(addr(0, 0x10), b) })
	// Page 1 is read-only: WriteForce ignores protection.
	b = []byte("written by WriteForce")
	store("WriteForce", 1, 0x20, b, func() error { return m.WriteForce(addr(1, 0x20), b) })
	for i, size := range []int{1, 2, 4, 8} { // in place, pages 2-5
		pg := uint64(2 + i)
		b := []byte{0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88}[:size]
		v := uint64(0x8887868584838281)
		store("WriteUint", pg, 0x30, b, func() error { return m.WriteUint(addr(pg, 0x30), size, v) })
	}
	// Straddles pages 6 and 7, so it takes the byte path.
	b = []byte{1, 2, 3, 4, 5, 6, 7, 8}
	store("straddling WriteUint", 6, PageSize-3, b, func() error {
		return m.WriteUint(addr(6, PageSize-3), 8, 0x0807060504030201)
	})
	// A torn write lands only its first 3 bytes on page 8.
	m.Inject = tearAfter(3)
	b = []byte("torn write")
	if err := m.Write(addr(8, 0x40), b); err == nil {
		t.Fatal("torn write reported success")
	}
	m.Inject = nil
	store("torn write", 8, 0x40, b[:3], func() error { return nil })

	// Import a written page over never-written page 9, and a
	// never-written page over written page 0.
	pages := m.ExportPages()
	for i := range pages {
		pg := &pages[i]
		switch pg.PN {
		case addr(9, 0) >> PageShift:
			pg.Version, pg.Data = 7, bytes.Repeat([]byte{0x99}, PageSize)
		case addr(0, 0) >> PageShift:
			pg.Version, pg.Data = 0, nil
		}
	}
	if err := m.ImportPages(pages); err != nil {
		t.Fatal(err)
	}
	copy(want[9*PageSize:10*PageSize], bytes.Repeat([]byte{0x99}, PageSize))
	written[9] = true
	clear(want[:PageSize])
	delete(written, 0)

	got := make([]byte, PageSize)
	exported := m.ExportPages()
	for pg := uint64(0); pg < npages; pg++ {
		if err := m.Read(addr(pg, 0), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[pg*PageSize:(pg+1)*PageSize]) {
			t.Errorf("page %d does not read back what was stored on it", pg)
		}
		ver, _ := m.PageVersion(addr(pg, 0))
		if written[pg] != (ver >= 1) {
			t.Errorf("page %d: written %v, version %d", pg, written[pg], ver)
		}
		if ps := exported[pg]; (ps.Data == nil) != (ps.Version == 0) {
			t.Errorf("page %d: ExportPages gives version %d with %d bytes of data", pg, ps.Version, len(ps.Data))
		}
	}
	if !bytes.Equal(zeroPage[:], make([]byte, PageSize)) {
		t.Error("a store wrote the shared zero page")
	}
}
