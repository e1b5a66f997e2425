// Memory state export/import for deterministic machine snapshots.
//
// A page's complete observable state is its data, its protection and
// its write-version counter. The version matters as much as the data:
// the CPUs' instruction caches key coherence checks (ICacheStale) on
// it, so restoring data without versions would let a restored machine
// disagree with the original about which icache lines are stale. A
// page whose version is 0 has never been written, so its data is all
// zero and is not carried at all.

package mem

import (
	"fmt"
	"slices"
)

// PageState is one exported page.
type PageState struct {
	PN      uint64 // page number (addr >> PageShift)
	Prot    Prot
	Version uint64
	Data    []byte // PageSize long; nil when Version is 0 (never written, all zero)
}

// ExportPages returns every mapped page in page-number order. Each
// Data is a view of the live page, not a copy, valid until the address
// space next changes; a caller that keeps it longer must copy it. A
// never-written page (Version 0) has no Data.
func (m *Memory) ExportPages() []PageState {
	out := make([]PageState, 0, len(m.order))
	for _, pn := range m.order {
		p := m.pages[pn]
		ps := PageState{PN: pn, Prot: p.prot, Version: p.version}
		if p.version != 0 {
			ps.Data = p.data
		}
		out = append(out, ps)
	}
	return out
}

// ImportPages replaces the entire address space with the given pages —
// wholesale, so the restored mapping is exactly the exported one
// regardless of what the caller had mapped before (a freshly loaded
// image, extra CPU stacks, anything). The pages must come as
// ExportPages returns them, strictly ascending by page number, so one
// address space has one page list. Every page is validated before
// any is written, so a rejected import changes nothing. A
// never-written page (Version 0) must carry no Data and shares
// zeroPage again. Every other page is copied: over a page already
// mapped at its page number that has bytes of its own, in place, and
// into a fresh allocation otherwise. The import keeps no reference to
// pages. Stats and policy flags are left untouched; the snapshot layer
// restores Stats separately.
func (m *Memory) ImportPages(pages []PageState) error {
	fresh := make(map[uint64]*page, len(pages))
	for i := range pages {
		ps := &pages[i]
		if i > 0 && ps.PN <= pages[i-1].PN {
			return fmt.Errorf("mem: imported pages are not strictly ascending at %#x", ps.PN)
		}
		if ps.Version == 0 && len(ps.Data) != 0 {
			return fmt.Errorf("mem: page %#x was never written (version 0) but carries %d bytes", ps.PN, len(ps.Data))
		}
		if ps.Version != 0 && len(ps.Data) != PageSize {
			return fmt.Errorf("mem: page %#x holds %d bytes, want %d", ps.PN, len(ps.Data), PageSize)
		}
		if err := m.checkWX(ps.Prot); err != nil {
			return fmt.Errorf("mem: page %#x: %w", ps.PN, err)
		}
		fresh[ps.PN] = m.pages[ps.PN] // nil when unmapped; allocated below
	}
	order := m.order[:0]
	for i := range pages {
		ps := &pages[i]
		order = append(order, ps.PN)
		pg := fresh[ps.PN]
		if pg == nil {
			pg = &page{}
			fresh[ps.PN] = pg
		}
		switch {
		case ps.Version == 0:
			pg.data = zeroPage[:]
		case pg.version == 0: // new, or sharing zeroPage
			pg.data = slices.Clone(ps.Data)
		default:
			copy(pg.data, ps.Data)
		}
		pg.prot, pg.version = ps.Prot, ps.Version
	}
	m.pages, m.order = fresh, order
	m.cache = [pageCacheSlots]cachedPage{}
	return nil
}

// SetStats overwrites the operation counters; the snapshot layer uses
// it so a restored run's counters continue from the exported values.
func (m *Memory) SetStats(s Stats) { m.Stats = s }
