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

// ExportPages returns every mapped page in page-number order. The
// result shares no memory with the address space.
func (m *Memory) ExportPages() []PageState {
	pns := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	out := make([]PageState, 0, len(pns))
	for _, pn := range pns {
		p := m.pages[pn]
		out = append(out, PageState{
			PN:      pn,
			Prot:    p.prot,
			Version: p.version,
			Data:    append([]byte(nil), p.data...),
		})
	}
	return out
}

// ImportPages replaces the entire address space with the given pages —
// wholesale, so the restored mapping is exactly the exported one
// regardless of what the caller had mapped before (a freshly loaded
// image, extra CPU stacks, anything). Stats and policy flags are left
// untouched; the snapshot layer restores Stats separately.
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
		fresh[ps.PN] = &page{
			data:    append([]byte(nil), ps.Data...),
			prot:    ps.Prot,
			version: ps.Version,
		}
	}
	m.pages = fresh
	m.cache = [pageCacheSlots]cachedPage{}
	return nil
}

// SetStats overwrites the operation counters; the snapshot layer uses
// it so a restored run's counters continue from the exported values.
func (m *Memory) SetStats(s Stats) { m.Stats = s }
