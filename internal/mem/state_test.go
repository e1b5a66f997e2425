package mem

import (
	"bytes"
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestMemoryFieldsClassifiedForSnapshot is the snapshot-completeness
// gate for the memory system: every field of Memory and page must be
// explicitly serialized or recorded as host wiring, so new state
// cannot silently bypass ExportPages and desynchronize a restored run.
func TestMemoryFieldsClassifiedForSnapshot(t *testing.T) {
	serialized := map[string]bool{
		"pages": true, // ExportPages/ImportPages
		"order": true, // the pages' numbers in ExportPages' order; ImportPages rebuilds it
		"Stats": true, // carried separately; the snapshot layer calls SetStats
	}
	hostWiring := map[string]bool{
		"WXExclusive": true, // policy chosen at construction, not state
		"Tracer":      true, // observability hook
		"Inject":      true, // fault-injection wiring
		"cache":       true, // page cache over pages, refilled on demand
	}
	typ := reflect.TypeOf(Memory{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if serialized[name] || hostWiring[name] {
			continue
		}
		t.Errorf("Memory.%s is not classified for snapshots: extend ExportPages/ImportPages "+
			"(and the wire format in internal/snapshot) or record it as host wiring here", name)
	}

	pageSerialized := map[string]bool{"data": true, "prot": true, "version": true}
	ptyp := reflect.TypeOf(page{})
	for i := 0; i < ptyp.NumField(); i++ {
		name := ptyp.Field(i).Name
		if !pageSerialized[name] {
			t.Errorf("page.%s is not serialized: extend PageState and the snapshot wire format", name)
		}
	}
}

func TestExportImportPagesRoundTrip(t *testing.T) {
	m := New()
	if err := m.Map(0x1000, 2*PageSize, RW); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0x1234, []byte("snapshot me")); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(0x40_0000, PageSize, RW); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0x40_0000, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	if err := m.Protect(0x40_0000, PageSize, RX); err != nil {
		t.Fatal(err)
	}

	pages := m.ExportPages()
	fresh := New()
	// Pre-map something that must vanish: import replaces wholesale.
	if err := fresh.Map(0x9000_0000, PageSize, RW); err != nil {
		t.Fatal(err)
	}
	if err := fresh.ImportPages(pages); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pages, fresh.ExportPages()) {
		t.Fatal("re-export diverged from imported pages")
	}
	if err := fresh.Read(0x9000_0000, make([]byte, 1)); err == nil {
		t.Fatal("pre-import mapping survived a wholesale import")
	}
	got := make([]byte, 11)
	if err := fresh.Read(0x1234, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "snapshot me" {
		t.Fatalf("restored data = %q", got)
	}
	if p, ok := fresh.ProtOf(0x40_0000); !ok || p != RX {
		t.Fatalf("restored prot = %v, want RX", p)
	}
	wantVer, _ := m.PageVersion(0x1000)
	gotVer, _ := fresh.PageVersion(0x1000)
	if gotVer != wantVer {
		t.Fatal("page version not restored")
	}
}

// TestImportPagesRejectsMalformed pins that a rejected import changes
// nothing. Each bad entry comes last, after entries overlapping mapped
// pages with known bytes, so an import that overwrote pages while it
// was still validating them would be caught.
func TestImportPagesRejectsMalformed(t *testing.T) {
	m := New()
	m.WXExclusive = true
	if err := m.Map(0x1000, 2*PageSize, RW); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0x1000, bytes.Repeat([]byte{0x11}, 2*PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := m.Protect(0x2000, PageSize, Read); err != nil {
		t.Fatal(err)
	}
	// ExportPages returns views of the live pages: copy them.
	var before []PageState
	for _, p := range m.ExportPages() {
		p.Data = append([]byte(nil), p.Data...)
		before = append(before, p)
	}

	page := func(pn uint64, prot Prot, n int) PageState {
		return PageState{PN: pn, Prot: prot, Version: 99, Data: bytes.Repeat([]byte{0xEE}, n)}
	}
	good := []PageState{page(1, RW, PageSize), page(2, RW, PageSize), page(5, RW, PageSize)}
	for _, tc := range []struct {
		name string
		bad  PageState
	}{
		{"short page", page(6, RW, PageSize-1)},
		{"duplicate", page(5, RW, PageSize)},
		{"out of order", page(3, RW, PageSize)},
		{"W^X", page(6, RW|Exec, PageSize)},
		{"never-written page with data", PageState{PN: 6, Prot: RW, Data: make([]byte, PageSize)}},
	} {
		pages := append(append([]PageState(nil), good...), tc.bad)
		if err := m.ImportPages(pages); err == nil {
			t.Errorf("%s: import accepted", tc.name)
		}
		if got := m.ExportPages(); !reflect.DeepEqual(got, before) {
			t.Errorf("%s: rejected import changed the address space", tc.name)
		}
	}
}

// TestPageOrderFollowsMapping drives a seeded mix of Map, Unmap and
// ImportPages calls, some failing, and requires ExportPages to list
// exactly the mapped pages in ascending page-number order after each.
// ImportPages takes only that order: a shuffled list is refused.
func TestPageOrderFollowsMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New()
	check := func(step int, what string) {
		t.Helper()
		var want, got []uint64
		for pn := range m.pages {
			want = append(want, pn)
		}
		slices.Sort(want)
		for _, ps := range m.ExportPages() {
			got = append(got, ps.PN)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d (%s): ExportPages lists pages %v, mapped %v", step, what, got, want)
		}
	}
	for step := 0; step < 400; step++ {
		addr := uint64(rng.Intn(48)) * PageSize
		length := uint64(1+rng.Intn(4)) * PageSize
		switch rng.Intn(5) {
		case 0, 1:
			m.Map(addr, length, RW)
			check(step, "Map")
		case 2, 3:
			m.Unmap(addr, length)
			check(step, "Unmap")
		case 4:
			// Re-import the pages, sometimes with one page dropped, after
			// trying them shuffled.
			pages := m.ExportPages()
			if len(pages) > 0 && rng.Intn(2) == 0 {
				pages = pages[1:]
			}
			shuffled := slices.Clone(pages)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			sorted := slices.IsSortedFunc(shuffled, func(a, b PageState) int { return cmp.Compare(a.PN, b.PN) })
			if err := m.ImportPages(shuffled); (err == nil) != sorted {
				t.Fatalf("step %d: ImportPages of pages in ascending order %v: err = %v", step, sorted, err)
			}
			check(step, "shuffled ImportPages")
			if err := m.ImportPages(pages); err != nil {
				t.Fatal(err)
			}
			check(step, "ImportPages")
		}
	}
}
