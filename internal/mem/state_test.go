package mem

import (
	"reflect"
	"testing"
)

// TestMemoryFieldsClassifiedForSnapshot is the snapshot-completeness
// gate for the memory system: every field of Memory and page must be
// explicitly serialized or recorded as host wiring, so new state
// cannot silently bypass ExportPages and desynchronize a restored run.
func TestMemoryFieldsClassifiedForSnapshot(t *testing.T) {
	serialized := map[string]bool{
		"pages": true, // ExportPages/ImportPages
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

func TestImportPagesRejectsMalformed(t *testing.T) {
	m := New()
	short := []PageState{{PN: 1, Prot: RW, Data: make([]byte, PageSize-1)}}
	if err := m.ImportPages(short); err == nil {
		t.Error("imported a short page")
	}
	dup := []PageState{
		{PN: 1, Prot: RW, Data: make([]byte, PageSize)},
		{PN: 1, Prot: RW, Data: make([]byte, PageSize)},
	}
	if err := m.ImportPages(dup); err == nil {
		t.Error("imported duplicate pages")
	}
	wx := New()
	wx.WXExclusive = true
	bad := []PageState{{PN: 1, Prot: RW | Exec, Data: make([]byte, PageSize)}}
	if err := wx.ImportPages(bad); err == nil {
		t.Error("import bypassed the W^X policy")
	}
}
