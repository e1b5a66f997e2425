package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func mustMap(t *testing.T, m *Memory, addr, length uint64, prot Prot) {
	t.Helper()
	if err := m.Map(addr, length, prot); err != nil {
		t.Fatalf("Map(%#x, %#x, %v): %v", addr, length, prot, err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, RW)
	data := []byte("hello, multiverse")
	if err := m.Write(0x1F00, data); err != nil { // straddles no boundary
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := m.Read(0x1F00, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("read back %q, want %q", got, data)
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, RW)
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	addr := uint64(0x2000 - 50) // straddles the page boundary
	if err := m.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := m.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("cross-page read mismatch")
	}
}

func TestUnmappedFault(t *testing.T) {
	m := New()
	err := m.Read(0x5000, make([]byte, 1))
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *Fault", err)
	}
	if f.Mapped || f.Kind != AccessRead || f.Addr != 0x5000 {
		t.Errorf("fault = %+v", f)
	}
}

func TestProtectionFaults(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, Read)
	if err := m.Read(0x1000, make([]byte, 8)); err != nil {
		t.Errorf("read from r-- page: %v", err)
	}
	err := m.Write(0x1000, []byte{1})
	var f *Fault
	if !errors.As(err, &f) || f.Kind != AccessWrite {
		t.Errorf("write to r-- page: err = %v, want write fault", err)
	}
	err = m.Fetch(0x1000, make([]byte, 1))
	if !errors.As(err, &f) || f.Kind != AccessExec {
		t.Errorf("fetch from r-- page: err = %v, want exec fault", err)
	}
}

func TestFetchFromExecPage(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, RX)
	if err := m.Fetch(0x1000, make([]byte, 4)); err != nil {
		t.Errorf("fetch from r-x page: %v", err)
	}
	if err := m.Write(0x1000, []byte{1}); err == nil {
		t.Error("write to r-x page succeeded, want fault")
	}
}

func TestProtectChangesPermissions(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, RX)
	// The runtime library's patching dance: RX -> RW -> write -> RX.
	if err := m.Protect(0x1000, PageSize, RW); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0x1005, []byte{0xAA}); err != nil {
		t.Fatalf("write after mprotect(RW): %v", err)
	}
	if err := m.Protect(0x1000, PageSize, RX); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0x1005, []byte{0xBB}); err == nil {
		t.Error("write after mprotect(RX) succeeded, want fault")
	}
	var b [1]byte
	if err := m.Read(0x1005, b[:]); err != nil || b[0] != 0xAA {
		t.Errorf("byte = %#x, err = %v; want 0xAA", b[0], err)
	}
}

func TestProtectUnalignedRangeWidens(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, Read)
	// A 5-byte protect straddling the boundary must affect both pages.
	if err := m.Protect(0x1FFE, 5, RW); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0x1000, []byte{1}); err != nil {
		t.Errorf("first page not widened: %v", err)
	}
	if err := m.Write(0x2FFF, []byte{1}); err != nil {
		t.Errorf("second page not widened: %v", err)
	}
}

func TestProtectUnmappedFails(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, RW)
	if err := m.Protect(0x1000, 2*PageSize, RW); err == nil {
		t.Error("Protect over hole succeeded, want error")
	}
}

func TestWXPolicy(t *testing.T) {
	m := New()
	m.WXExclusive = true
	if err := m.Map(0x1000, PageSize, RWX); err == nil {
		t.Error("Map(RWX) under W^X succeeded, want error")
	}
	mustMap(t, m, 0x1000, PageSize, RX)
	if err := m.Protect(0x1000, PageSize, RWX); err == nil {
		t.Error("Protect(RWX) under W^X succeeded, want error")
	}
	if err := m.Protect(0x1000, PageSize, RW); err != nil {
		t.Errorf("Protect(RW) under W^X: %v", err)
	}
}

func TestMapOverlapAndAlignment(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, RW)
	if err := m.Map(0x1000, PageSize, RW); err == nil {
		t.Error("overlapping Map succeeded")
	}
	if err := m.Map(0x1001, PageSize, RW); err == nil {
		t.Error("unaligned Map succeeded")
	}
	if err := m.Map(0x3000, 100, RW); err == nil {
		t.Error("unaligned length Map succeeded")
	}
	if err := m.Map(0x3000, 0, RW); err == nil {
		t.Error("zero-length Map succeeded")
	}
}

func TestUnmap(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, RW)
	if err := m.Unmap(0x1000, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := m.Read(0x1000, make([]byte, 1)); err == nil {
		t.Error("read from unmapped page succeeded")
	}
	if err := m.Read(0x2000, make([]byte, 1)); err != nil {
		t.Errorf("second page vanished: %v", err)
	}
	if err := m.Unmap(0x1000, PageSize); err == nil {
		t.Error("double Unmap succeeded")
	}
}

func TestPageVersionBumpsOnWrite(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, RW)
	v0, ok := m.PageVersion(0x1234)
	if !ok {
		t.Fatal("PageVersion not ok")
	}
	if err := m.Write(0x1200, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	v1, _ := m.PageVersion(0x1234)
	if v1 == v0 {
		t.Error("page version did not change on write")
	}
	// Reads must not bump the version.
	if err := m.Read(0x1200, make([]byte, 3)); err != nil {
		t.Fatal(err)
	}
	v2, _ := m.PageVersion(0x1234)
	if v2 != v1 {
		t.Error("page version changed on read")
	}
}

func TestWriteForceIgnoresProtection(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, RX)
	v0, _ := m.PageVersion(0x1000)
	if err := m.WriteForce(0x1000, []byte{0x42}); err != nil {
		t.Fatalf("WriteForce: %v", err)
	}
	v1, _ := m.PageVersion(0x1000)
	if v1 == v0 {
		t.Error("WriteForce did not bump page version")
	}
	var b [1]byte
	if err := m.Read(0x1000, b[:]); err != nil || b[0] != 0x42 {
		t.Errorf("byte = %#x, err = %v", b[0], err)
	}
	// Still requires a mapping.
	if err := m.WriteForce(0x9000, []byte{1}); err == nil {
		t.Error("WriteForce to unmapped page succeeded")
	}
}

func TestReadWriteUint(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, RW)
	for _, size := range []int{1, 2, 4, 8} {
		want := uint64(0x1122334455667788) & (1<<(8*size) - 1)
		if size == 8 {
			want = 0x1122334455667788
		}
		if err := m.WriteUint(0x1100, size, 0x1122334455667788); err != nil {
			t.Fatal(err)
		}
		got, err := m.ReadUint(0x1100, size)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("size %d: got %#x, want %#x", size, got, want)
		}
	}
}

func TestUintRoundTripProperty(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, RW)
	f := func(v uint64, offset uint16) bool {
		addr := 0x1000 + uint64(offset)%(2*PageSize-8)
		if err := m.WriteUint(addr, 8, v); err != nil {
			return false
		}
		got, err := m.ReadUint(addr, 8)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegionsCoalesce(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, RX)
	mustMap(t, m, 0x3000, PageSize, RW)
	mustMap(t, m, 0x5000, PageSize, RW) // hole at 0x4000
	got := m.Regions()
	want := []Region{
		{Addr: 0x1000, Len: 2 * PageSize, Prot: RX},
		{Addr: 0x3000, Len: PageSize, Prot: RW},
		{Addr: 0x5000, Len: PageSize, Prot: RW},
	}
	if len(got) != len(want) {
		t.Fatalf("regions = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("region %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRegionsSplitOnProtChange(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, RX)
	if err := m.Protect(0x2000, PageSize, RW); err != nil {
		t.Fatal(err)
	}
	got := m.Regions()
	if len(got) != 2 || got[0].Prot != RX || got[1].Prot != RW {
		t.Errorf("regions = %+v", got)
	}
}

func TestZeroLengthAccessesSucceed(t *testing.T) {
	m := New()
	if err := m.Read(0x9999, nil); err != nil {
		t.Errorf("zero-length read: %v", err)
	}
	if err := m.Write(0x9999, nil); err != nil {
		t.Errorf("zero-length write: %v", err)
	}
}

func TestAlignHelpers(t *testing.T) {
	if PageAlignDown(0x1FFF) != 0x1000 {
		t.Error("PageAlignDown")
	}
	if PageAlignUp(1) != PageSize {
		t.Error("PageAlignUp(1)")
	}
	if PageAlignUp(PageSize) != PageSize {
		t.Error("PageAlignUp(PageSize)")
	}
	if PageAlignUp(0) != 0 {
		t.Error("PageAlignUp(0)")
	}
}

func TestFaultErrorStrings(t *testing.T) {
	f := &Fault{Addr: 0x1234, Kind: AccessWrite, Mapped: true, Prot: RX}
	if f.Error() == "" {
		t.Error("empty fault message")
	}
	g := &Fault{Addr: 0x1234, Kind: AccessExec}
	if g.Error() == "" {
		t.Error("empty unmapped fault message")
	}
}

func TestProtString(t *testing.T) {
	cases := map[Prot]string{0: "---", Read: "r--", RW: "rw-", RX: "r-x", RWX: "rwx"}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

// tearInjector tears every write after its first tear bytes.
type tearInjector struct{ tear int }

var errTear = errors.New("injected tear")

func (tearInjector) ProtectFault(uint64, uint64, Prot) error { return nil }

func (in tearInjector) WriteTear(uint64, int) (int, error) { return in.tear, errTear }

// TestFaultingStraddleCommitsNothing stores 8 bytes across the end of
// writable page 0 into a page the store may not touch: like an MMU,
// the store must fault at page 1 without landing its first half.
func TestFaultingStraddleCommitsNothing(t *testing.T) {
	const v = 0x1122334455667788
	le := []byte{0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11}
	cases := []struct {
		name  string
		prot1 Prot // page 1's protection; 0 leaves it unmapped
		store func(m *Memory) error
	}{
		{"WriteUint", Read, func(m *Memory) error { return m.WriteUint(0xFFC, 8, v) }},
		{"Write", Read, func(m *Memory) error { return m.Write(0xFFC, le) }},
		{"WriteForce", 0, func(m *Memory) error { return m.WriteForce(0xFFC, le) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New()
			mustMap(t, m, 0, PageSize, RW)
			if tc.prot1 != 0 {
				mustMap(t, m, PageSize, PageSize, tc.prot1)
			}
			err := tc.store(m)
			var f *Fault
			if !errors.As(err, &f) || f.Addr != PageSize || f.Kind != AccessWrite || f.Mapped != (tc.prot1 != 0) {
				t.Fatalf("err = %v, want a write fault at %#x", err, PageSize)
			}
			got := make([]byte, 4)
			if err := m.Read(0xFFC, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, make([]byte, 4)) {
				t.Errorf("page 0 tail = % x after the faulting store, want zeros", got)
			}
			if ver, _ := m.PageVersion(0); ver != 0 {
				t.Errorf("page 0 version = %d after the faulting store, want 0", ver)
			}
		})
	}

	// An injected tear still lands its deliberate prefix.
	m := New()
	mustMap(t, m, 0, PageSize, RW)
	mustMap(t, m, PageSize, PageSize, Read)
	m.Inject = tearInjector{tear: 2}
	if err := m.WriteUint(0xFFC, 8, v); !errors.Is(err, errTear) {
		t.Fatalf("err = %v, want the injected tear", err)
	}
	got := make([]byte, 4)
	if err := m.Read(0xFFC, got); err != nil {
		t.Fatal(err)
	}
	if want := []byte{0x88, 0x77, 0, 0}; !bytes.Equal(got, want) {
		t.Errorf("page 0 tail = % x after a 2-byte tear, want % x", got, want)
	}
	if ver, _ := m.PageVersion(0); ver != 1 {
		t.Errorf("page 0 version = %d after a torn store, want 1", ver)
	}
}

// TestRangesWrappingPastTopAreRejected runs ranges that start on the
// last page and run past 2^64. Page 0, where a wrapped access would
// land, is mapped; nothing may change anywhere.
func TestRangesWrappingPastTopAreRejected(t *testing.T) {
	const top = 0xFFFFFFFFFFFFF000 // the last page
	const tail = 0xFFFFFFFFFFFFFFFC
	cases := []struct {
		name   string
		mapTop bool
		call   func(m *Memory) error
		fault  bool // the error must be a *Fault
	}{
		{"Protect unmapped", false, func(m *Memory) error { return m.Protect(top, 2*PageSize, RX) }, false},
		{"Protect mapped", true, func(m *Memory) error { return m.Protect(top, 2*PageSize, RX) }, false},
		{"ReadUint", true, func(m *Memory) error { _, err := m.ReadUint(tail, 8); return err }, true},
		{"WriteUint", true, func(m *Memory) error { return m.WriteUint(tail, 8, ^uint64(0)) }, true},
		{"Write", true, func(m *Memory) error { return m.Write(tail, make([]byte, 8)) }, true},
		{"Map", false, func(m *Memory) error { return m.Map(top, 2*PageSize, RW) }, false},
		{"Unmap", true, func(m *Memory) error { return m.Unmap(top, 2*PageSize) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New()
			mustMap(t, m, 0, PageSize, RW)
			if tc.mapTop {
				mustMap(t, m, top, PageSize, RW)
			}
			err := tc.call(m)
			if err == nil {
				t.Fatal("a range wrapping past the top of the address space was accepted")
			}
			var f *Fault
			if tc.fault && !errors.As(err, &f) {
				t.Fatalf("err = %v (%T), want *Fault", err, err)
			}
			wantPages := 1
			if tc.mapTop {
				wantPages = 2
				if prot, ok := m.ProtOf(top); !ok || prot != RW {
					t.Errorf("last page prot = %v (mapped %v), want RW", prot, ok)
				}
				if ver, _ := m.PageVersion(top); ver != 0 {
					t.Errorf("last page version = %d, want 0", ver)
				}
			}
			if len(m.pages) != wantPages {
				t.Errorf("%d pages mapped, want %d", len(m.pages), wantPages)
			}
			if got, _ := m.ReadUint(0, 8); got != 0 {
				t.Errorf("page 0 starts with %#x, want 0", got)
			}
			if ver, _ := m.PageVersion(0); ver != 0 || m.Stats.ProtectCalls != 0 {
				t.Errorf("page 0 version = %d, ProtectCalls = %d; want 0, 0", ver, m.Stats.ProtectCalls)
			}
		})
	}
}
