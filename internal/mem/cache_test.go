package mem

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// The page cache must never let an access see a page the map no
// longer holds, or a protection the page no longer has.

func TestAccessAfterUnmapFaults(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, RW)
	if err := m.WriteUint(0x1008, 8, 0xAA); err != nil { // caches page 1
		t.Fatal(err)
	}
	if err := m.Unmap(0x1000, PageSize); err != nil {
		t.Fatal(err)
	}
	var f *Fault
	if _, err := m.ReadUint(0x1008, 8); !errors.As(err, &f) || f.Mapped {
		t.Errorf("ReadUint after Unmap: err = %v, want an unmapped fault", err)
	}
	if err := m.WriteUint(0x1008, 8, 1); !errors.As(err, &f) || f.Mapped {
		t.Errorf("WriteUint after Unmap: err = %v, want an unmapped fault", err)
	}
	if _, ok := m.ProtOf(0x1008); ok {
		t.Error("ProtOf reports the unmapped page")
	}
	if _, ok := m.PageVersion(0x1008); ok {
		t.Error("PageVersion reports the unmapped page")
	}
	if got, err := m.ReadUint(0x2008, 8); err != nil || got != 0 {
		t.Errorf("surviving page: got %#x, err = %v", got, err)
	}
	// A fresh mapping at the same address starts zeroed.
	mustMap(t, m, 0x1000, PageSize, RW)
	if got, err := m.ReadUint(0x1008, 8); err != nil || got != 0 {
		t.Errorf("remapped page: got %#x, err = %v; want 0", got, err)
	}
}

func TestAccessAfterImportSeesImportedPages(t *testing.T) {
	src := New()
	mustMap(t, src, 0x1000, PageSize, RW)
	if err := src.WriteUint(0x1008, 8, 0x5150); err != nil {
		t.Fatal(err)
	}
	if err := src.Protect(0x1000, PageSize, Read); err != nil {
		t.Fatal(err)
	}

	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, RW)
	for _, addr := range []uint64{0x1008, 0x2008} { // cache both pages
		if err := m.WriteUint(addr, 8, 0xDEAD); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.ImportPages(src.ExportPages()); err != nil {
		t.Fatal(err)
	}
	if got, err := m.ReadUint(0x1008, 8); err != nil || got != 0x5150 {
		t.Errorf("imported data: got %#x, err = %v; want 0x5150", got, err)
	}
	if prot, ok := m.ProtOf(0x1000); !ok || prot != Read {
		t.Errorf("imported prot = %v, want r--", prot)
	}
	wantVer, _ := src.PageVersion(0x1000)
	if ver, _ := m.PageVersion(0x1000); ver != wantVer {
		t.Errorf("imported version = %d, want %d", ver, wantVer)
	}
	if err := m.WriteUint(0x1008, 8, 1); err == nil {
		t.Error("write to the imported r-- page succeeded")
	}
	if _, err := m.ReadUint(0x2008, 8); err == nil {
		t.Error("a page the import dropped is still readable")
	}
}

func TestProtectOfCachedPageTakesEffect(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, RW)
	if err := m.WriteUint(0x1000, 8, 7); err != nil { // caches the page
		t.Fatal(err)
	}
	if err := m.Protect(0x1000, PageSize, Read); err != nil {
		t.Fatal(err)
	}
	var f *Fault
	if err := m.WriteUint(0x1000, 8, 8); !errors.As(err, &f) || f.Prot != Read {
		t.Fatalf("write after Protect(r--): err = %v, want a fault on an r-- page", err)
	}
	if got, err := m.ReadUint(0x1000, 8); err != nil || got != 7 {
		t.Errorf("read after Protect(r--): got %d, err = %v; want 7", got, err)
	}
}

// TestCollidingPagesReadBack maps one page more than the cache has
// slots, all on the same slot, so every access evicts the previous one.
func TestCollidingPagesReadBack(t *testing.T) {
	m := New()
	addrOf := func(i int) uint64 { return uint64(1+i*pageCacheSlots) << PageShift }
	for i := 0; i <= pageCacheSlots; i++ {
		mustMap(t, m, addrOf(i), PageSize, RW)
		if err := m.WriteUint(addrOf(i)+16, 8, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i := pageCacheSlots; i >= 0; i-- {
			if got, err := m.ReadUint(addrOf(i)+16, 8); err != nil || got != uint64(i) {
				t.Fatalf("page %d: got %d, err = %v", i, got, err)
			}
		}
	}
}

// TestUintMatchesBytewiseAtPageEnd compares ReadUint and WriteUint
// with the byte-wise Read and Write at every offset of the last 8
// bytes of a page, in-page and straddling alike: bytes and page
// versions must agree.
func TestUintMatchesBytewiseAtPageEnd(t *testing.T) {
	const v = 0x0807060504030201
	for _, size := range []int{1, 2, 3, 4, 8} { // 3 takes the odd-size paths
		for addr := uint64(0x2000 - 8); addr < 0x2000; addr++ {
			scalar, bytewise := New(), New()
			mustMap(t, scalar, 0x1000, 2*PageSize, RW)
			mustMap(t, bytewise, 0x1000, 2*PageSize, RW)
			if err := scalar.WriteUint(addr, size, v); err != nil {
				t.Fatal(err)
			}
			var le [8]byte
			binary.LittleEndian.PutUint64(le[:], v)
			if err := bytewise.Write(addr, le[:size]); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(scalar.ExportPages(), bytewise.ExportPages()) {
				t.Fatalf("size %d at %#x: WriteUint and Write leave different pages", size, addr)
			}
			got, err := scalar.ReadUint(addr, size)
			if err != nil {
				t.Fatal(err)
			}
			var buf [8]byte
			if err := bytewise.Read(addr, buf[:size]); err != nil {
				t.Fatal(err)
			}
			if want := binary.LittleEndian.Uint64(buf[:]); got != want {
				t.Errorf("size %d at %#x: ReadUint = %#x, Read = %#x", size, addr, got, want)
			}
		}
	}
}
