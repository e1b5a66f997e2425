// Memory state export/import for deterministic machine snapshots.
//
// A page's complete observable state is its data, its protection and
// its write-version counter. The version matters as much as the data:
// the CPUs' instruction caches key coherence checks (ICacheStale) on
// it, so restoring data without versions would let a restored machine
// disagree with the original about which icache lines are stale.

package mem

import (
	"fmt"
	"sort"
)

// PageState is one exported page.
type PageState struct {
	PN      uint64 // page number (addr >> PageShift)
	Prot    Prot
	Version uint64
	Data    []byte // PageSize long
}

// ExportPages returns every mapped page in page-number order. Each
// Data is a view of the live page, not a copy, valid until the address
// space next changes; a caller that keeps it longer must copy it.
func (m *Memory) ExportPages() []PageState {
	pns := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	out := make([]PageState, 0, len(pns))
	for _, pn := range pns {
		p := m.pages[pn]
		out = append(out, PageState{PN: pn, Prot: p.prot, Version: p.version, Data: p.data})
	}
	return out
}

// ImportPages replaces the entire address space with the given pages —
// wholesale, so the restored mapping is exactly the exported one
// regardless of what the caller had mapped before (a freshly loaded
// image, extra CPU stacks, anything). Every page is validated before
// any is written, so a rejected import changes nothing; then a page
// already mapped at an imported page number is overwritten in place
// and only the others are allocated. The import copies each page's
// data and keeps no reference to pages. Stats and policy flags are
// left untouched; the snapshot layer restores Stats separately.
func (m *Memory) ImportPages(pages []PageState) error {
	fresh := make(map[uint64]*page, len(pages))
	for i := range pages {
		ps := &pages[i]
		if len(ps.Data) != PageSize {
			return fmt.Errorf("mem: page %#x holds %d bytes, want %d", ps.PN, len(ps.Data), PageSize)
		}
		if _, dup := fresh[ps.PN]; dup {
			return fmt.Errorf("mem: duplicate page %#x in import", ps.PN)
		}
		if err := m.checkWX(ps.Prot); err != nil {
			return fmt.Errorf("mem: page %#x: %w", ps.PN, err)
		}
		fresh[ps.PN] = m.pages[ps.PN] // nil when unmapped; allocated below
	}
	for i := range pages {
		ps := &pages[i]
		pg := fresh[ps.PN]
		if pg == nil {
			pg = &page{data: make([]byte, PageSize)}
			fresh[ps.PN] = pg
		}
		copy(pg.data, ps.Data)
		pg.prot, pg.version = ps.Prot, ps.Version
	}
	m.pages = fresh
	m.cache = [pageCacheSlots]cachedPage{}
	return nil
}

// SetStats overwrites the operation counters; the snapshot layer uses
// it so a restored run's counters continue from the exported values.
func (m *Memory) SetStats(s Stats) { m.Stats = s }
