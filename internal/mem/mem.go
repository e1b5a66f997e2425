// Package mem implements the paged physical memory of the simulated
// machine: 4 KiB demand-zero pages with R/W/X permissions, an
// mprotect-style protection interface, and an optional strict W^X
// policy.
//
// The multiverse runtime library depends on this layer behaving like a
// real MMU: writing to a read-only text page faults, and under W^X a
// page can never be writable and executable at the same time — exactly
// the constraints §7.2 of the paper discusses.
package mem

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/trace"
)

// PageSize is the size of a page in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Prot is a page-protection bit set.
type Prot uint8

// Protection bits.
const (
	Read  Prot = 1 << iota // page may be read by data accesses
	Write                  // page may be written
	Exec                   // page may be fetched from
)

// Common protection combinations.
const (
	RW  = Read | Write
	RX  = Read | Exec
	RWX = Read | Write | Exec
)

// String renders the protection like "rwx" / "r-x".
func (p Prot) String() string {
	b := []byte("---")
	if p&Read != 0 {
		b[0] = 'r'
	}
	if p&Write != 0 {
		b[1] = 'w'
	}
	if p&Exec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// AccessKind classifies the access that caused a fault.
type AccessKind uint8

// Access kinds.
const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessExec
)

func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return "unknown"
}

// Fault describes a memory access violation. An access whose range
// wraps past the top of the address space faults at its own address
// with Mapped false: its tail lies on no page.
type Fault struct {
	Addr   uint64
	Kind   AccessKind
	Prot   Prot // protection of the faulting page; 0 if unmapped
	Mapped bool
}

// Error implements the error interface.
func (f *Fault) Error() string {
	if !f.Mapped {
		return fmt.Sprintf("mem: %s fault at %#x: page not mapped", f.Kind, f.Addr)
	}
	return fmt.Sprintf("mem: %s fault at %#x: page protection %s", f.Kind, f.Addr, f.Prot)
}

type page struct {
	data    []byte // PageSize long: zeroPage until the first store
	prot    Prot
	version uint64 // incremented on every write; the icache keys on it
}

// zeroPage backs every page that has never been written, the way an OS
// backs untouched stack and bss pages with one demand-zero frame.
// Nothing writes it: a store gives its page its own bytes first (see
// mutable). Every store bumps the page's version, so a page still
// shares zeroPage exactly while its version is 0.
var zeroPage [PageSize]byte

// mutable returns the page's bytes for a store about to bump its
// version, first giving a never-written page its own zeroed copy.
func (pg *page) mutable() []byte {
	if pg.version == 0 {
		pg.data = make([]byte, PageSize)
	}
	return pg.data
}

// Stats counts the memory-system operations the paper's evaluation
// cares about: protection flips (the mprotect cost of user-mode
// patching, §7.2) and icache flushes (counted here, incremented by
// the CPUs sharing this memory).
type Stats struct {
	ProtectCalls uint64 // successful Protect invocations
	Flushes      uint64 // icache flushes across all attached CPUs
}

// Sub returns the field-wise difference s − prev; the commit-latency
// accounting in core uses it to attribute the protection flips and
// flushes of one commit span.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		ProtectCalls: s.ProtectCalls - prev.ProtectCalls,
		Flushes:      s.Flushes - prev.Flushes,
	}
}

// Injector is the fault-injection hook of the memory system (see
// internal/faultinject, which implements it). A nil injector disables
// injection; the hooks below are single pointer-nil checks, so the
// uninjected paths stay unperturbed. Implementations must be
// deterministic: the same operation sequence sees the same faults.
type Injector interface {
	// ProtectFault is consulted after a Protect call has validated its
	// arguments and before it mutates any page. A non-nil error models
	// a transient or permanent mprotect failure (EPERM/EAGAIN); no
	// protection changes when it fires.
	ProtectFault(addr, length uint64, prot Prot) error
	// WriteTear is consulted before a multi-byte write. A non-nil
	// error models an interrupt or fault landing mid-write: the first
	// tear bytes still reach memory, the rest do not (a torn rel32).
	WriteTear(addr uint64, n int) (tear int, err error)
}

// pageCacheSlots is the size of Memory's direct-mapped page cache, a
// power of two so the slot is the page number's low bits.
const pageCacheSlots = 64

// cachedPage is one page-cache slot; pg is nil while the slot is empty.
type cachedPage struct {
	pn uint64
	pg *page
}

// Memory is a sparse paged address space. It is not safe for
// concurrent use: even a load may fill the page cache.
type Memory struct {
	pages map[uint64]*page // keyed by page number (addr >> PageShift)

	// cache fronts pages with the recently resolved pages, so a guest
	// load or store skips the map. It holds only mapped pages, and
	// protection and version are read through the cached *page, so
	// only Unmap and ImportPages, which drop pages, clear it.
	cache [pageCacheSlots]cachedPage

	// WXExclusive enforces strict W^X: Map and Protect reject any
	// protection with both Write and Exec set.
	WXExclusive bool

	// Stats accumulates operation counters; zero-cost to leave alone.
	Stats Stats

	// Tracer, when non-nil, observes protection transitions.
	Tracer trace.Tracer

	// Inject, when non-nil, may fail Protect calls and tear writes
	// (see Injector). Left nil, the write and protect paths cost one
	// pointer check.
	Inject Injector

	// order holds the page numbers of pages in ascending order. Map,
	// Unmap and ImportPages keep it so, and ExportPages and Regions
	// walk it instead of sorting the map's keys on every call. It
	// stays behind cache: placed between pages and cache, which moved
	// the page cache's offset, it made mvperf's reconfigure ops slower.
	order []uint64
}

// New returns an empty address space.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

func (m *Memory) checkWX(prot Prot) error {
	if m.WXExclusive && prot&Write != 0 && prot&Exec != 0 {
		return fmt.Errorf("mem: W^X policy forbids %s mapping", prot)
	}
	return nil
}

// wraps reports whether the n-byte range at addr runs past the top of
// the address space.
func wraps(addr, n uint64) bool { return n > 0 && addr+n-1 < addr }

// Map creates pages covering [addr, addr+length) with the given
// protection. addr and length must be page-aligned, and the range must
// not overlap an existing mapping. The new pages read zero and share
// zeroPage until their first store.
func (m *Memory) Map(addr, length uint64, prot Prot) error {
	if addr%PageSize != 0 || length%PageSize != 0 {
		return fmt.Errorf("mem: Map(%#x, %#x) not page-aligned", addr, length)
	}
	if length == 0 {
		return fmt.Errorf("mem: Map with zero length")
	}
	if wraps(addr, length) {
		return fmt.Errorf("mem: Map(%#x, %#x) wraps past the top of the address space", addr, length)
	}
	if err := m.checkWX(prot); err != nil {
		return err
	}
	first := addr >> PageShift
	n := length >> PageShift
	for i := uint64(0); i < n; i++ {
		if _, ok := m.pages[first+i]; ok {
			return fmt.Errorf("mem: Map(%#x, %#x) overlaps existing mapping at %#x", addr, length, (first+i)<<PageShift)
		}
	}
	for i := uint64(0); i < n; i++ {
		m.pages[first+i] = &page{data: zeroPage[:], prot: prot}
	}
	// No mapped page lies inside the new range, so its page numbers
	// go in as one run.
	at, _ := slices.BinarySearch(m.order, first)
	m.order = slices.Grow(m.order, int(n))[:len(m.order)+int(n)]
	copy(m.order[at+int(n):], m.order[at:])
	for i := range m.order[at : at+int(n)] {
		m.order[at+i] = first + uint64(i)
	}
	return nil
}

// Unmap removes the pages covering [addr, addr+length). Like Map it
// rejects zero-length ranges, and an unmapped page anywhere in the
// range fails the whole call with a *Fault before anything is removed.
func (m *Memory) Unmap(addr, length uint64) error {
	if addr%PageSize != 0 || length%PageSize != 0 {
		return fmt.Errorf("mem: Unmap(%#x, %#x) not page-aligned", addr, length)
	}
	if length == 0 {
		return fmt.Errorf("mem: Unmap with zero length")
	}
	if wraps(addr, length) {
		return fmt.Errorf("mem: Unmap(%#x, %#x) wraps past the top of the address space", addr, length)
	}
	first := addr >> PageShift
	n := length >> PageShift
	for i := uint64(0); i < n; i++ {
		if _, ok := m.pages[first+i]; !ok {
			return fmt.Errorf("mem: Unmap(%#x, %#x): %w", addr, length,
				&Fault{Addr: (first + i) << PageShift, Kind: AccessWrite})
		}
	}
	for i := uint64(0); i < n; i++ {
		delete(m.pages, first+i)
	}
	// Every page of the range was mapped, so its numbers form one run.
	at, _ := slices.BinarySearch(m.order, first)
	m.order = slices.Delete(m.order, at, at+int(n))
	m.cache = [pageCacheSlots]cachedPage{}
	return nil
}

// Protect changes the protection of all pages overlapping
// [addr, addr+length), like mprotect(2). addr need not be aligned; the
// range is widened to page boundaries. The call is atomic: every page
// is validated (mapped, W^X) before any protection changes, so a
// failure anywhere in the range leaves every page untouched. An
// unmapped page reports a *Fault carrying its address.
func (m *Memory) Protect(addr, length uint64, prot Prot) error {
	if length == 0 {
		return fmt.Errorf("mem: Protect with zero length")
	}
	if wraps(addr, length) {
		return fmt.Errorf("mem: Protect(%#x, %#x) wraps past the top of the address space", addr, length)
	}
	if err := m.checkWX(prot); err != nil {
		return err
	}
	first := addr >> PageShift
	last := (addr + length - 1) >> PageShift
	for pn := first; pn <= last; pn++ {
		if m.pageAt(pn<<PageShift, 0) == nil {
			return fmt.Errorf("mem: Protect(%#x, %#x): %w", addr, length,
				&Fault{Addr: pn << PageShift, Kind: AccessWrite})
		}
	}
	if m.Inject != nil {
		if err := m.Inject.ProtectFault(addr, length, prot); err != nil {
			if m.Tracer != nil {
				m.Tracer.Emit(trace.KindFaultInjected, addr, length, 0)
			}
			return err
		}
	}
	old := m.pageAt(first<<PageShift, 0).prot
	for pn := first; pn <= last; pn++ {
		m.pageAt(pn<<PageShift, 0).prot = prot
	}
	m.Stats.ProtectCalls++
	if m.Tracer != nil {
		m.Tracer.Emit(trace.KindProtect, addr, length, uint64(prot)|uint64(old)<<8)
	}
	return nil
}

// pageAt returns the page containing addr when it is mapped and its
// protection grants need, else nil. Every accessor resolves its pages
// here, through the page cache.
func (m *Memory) pageAt(addr uint64, need Prot) *page {
	pn := addr >> PageShift
	slot := &m.cache[pn%pageCacheSlots]
	pg := slot.pg
	if pg == nil || slot.pn != pn {
		if pg = m.pages[pn]; pg == nil {
			return nil
		}
		slot.pn, slot.pg = pn, pg
	}
	if pg.prot&need != need {
		return nil
	}
	return pg
}

// ProtOf returns the protection of the page containing addr.
func (m *Memory) ProtOf(addr uint64) (Prot, bool) {
	p := m.pageAt(addr, 0)
	if p == nil {
		return 0, false
	}
	return p.prot, true
}

// PageVersion returns the write-version counter of the page containing
// addr. It is incremented on every store to the page; the CPU's
// instruction cache uses it to detect (un)flushed code modification.
func (m *Memory) PageVersion(addr uint64) (uint64, bool) {
	p := m.pageAt(addr, 0)
	if p == nil {
		return 0, false
	}
	return p.version, true
}

func (m *Memory) fault(addr uint64, kind AccessKind) error {
	prot, mapped := m.ProtOf(addr)
	return &Fault{Addr: addr, Kind: kind, Prot: prot, Mapped: mapped}
}

// check returns the fault of an n-byte access at addr, or nil when the
// range stays below the top of the address space and every page it
// touches is mapped with need. It changes nothing, so a store that
// checks first lands all of its bytes or none, like an MMU's.
func (m *Memory) check(addr uint64, n int, kind AccessKind, need Prot) error {
	if n == 0 {
		return nil
	}
	if wraps(addr, uint64(n)) {
		return &Fault{Addr: addr, Kind: kind}
	}
	last := (addr + uint64(n) - 1) >> PageShift
	for a := addr; ; a = (a | (PageSize - 1)) + 1 {
		if m.pageAt(a, need) == nil {
			return m.fault(a, kind)
		}
		if a>>PageShift == last {
			return nil
		}
	}
}

// load copies the bytes at [addr, addr+len(buf)) into buf once check
// has passed them.
func (m *Memory) load(addr uint64, buf []byte, kind AccessKind, need Prot) error {
	if err := m.check(addr, len(buf), kind, need); err != nil {
		return err
	}
	for len(buf) > 0 {
		n := copy(buf, m.pageAt(addr, 0).data[addr&(PageSize-1):])
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// Read copies len(buf) bytes starting at addr into buf, checking the
// Read permission.
func (m *Memory) Read(addr uint64, buf []byte) error {
	return m.load(addr, buf, AccessRead, Read)
}

// Fetch copies len(buf) instruction bytes starting at addr into buf,
// checking the Exec permission.
func (m *Memory) Fetch(addr uint64, buf []byte) error {
	return m.load(addr, buf, AccessExec, Exec)
}

// Write copies buf to addr, checking the Write permission and bumping
// the page version counters. A faulting write changes nothing.
func (m *Memory) Write(addr uint64, buf []byte) error {
	return m.store(addr, buf, Write)
}

// WriteForce copies buf to addr ignoring page protection (but still
// requiring the pages to be mapped). It models the kernel-mode port of
// the runtime library, which patches text through the direct mapping
// instead of calling mprotect. Page versions are bumped as usual.
func (m *Memory) WriteForce(addr uint64, buf []byte) error {
	return m.store(addr, buf, 0)
}

// store is the shared path of Write and WriteForce: the injector, when
// attached, may tear the write first.
func (m *Memory) store(addr uint64, buf []byte, need Prot) error {
	if m.Inject != nil {
		if err := m.tornWrite(addr, buf, need); err != nil {
			return err
		}
	}
	return m.writeBytes(addr, buf, need)
}

// tornWrite consults the injector before a write; when a tear fires it
// lands the torn prefix (the bytes the interrupted store already
// retired) and returns the injected fault. A nil verdict reports nil
// and the caller proceeds with the full write.
func (m *Memory) tornWrite(addr uint64, buf []byte, need Prot) error {
	tear, err := m.Inject.WriteTear(addr, len(buf))
	if err == nil {
		return nil
	}
	if tear > len(buf) {
		tear = len(buf)
	}
	if tear > 0 {
		if werr := m.writeBytes(addr, buf[:tear], need); werr != nil {
			return werr
		}
	}
	if m.Tracer != nil {
		m.Tracer.Emit(trace.KindFaultInjected, addr, uint64(tear), 1)
	}
	return err
}

// writeBytes copies buf to addr once check has passed every page,
// bumping each page's version.
func (m *Memory) writeBytes(addr uint64, buf []byte, need Prot) error {
	if err := m.check(addr, len(buf), AccessWrite, need); err != nil {
		return err
	}
	for len(buf) > 0 {
		pg := m.pageAt(addr, 0)
		n := copy(pg.mutable()[addr&(PageSize-1):], buf)
		pg.version++
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// ReadUint reads a little-endian unsigned integer of the given size
// (1, 2, 4 or 8 bytes; at most 8) at addr. A 1-, 2-, 4- or 8-byte
// access within one page decodes in place; other sizes and
// page-straddling or faulting accesses take the byte path, Read.
func (m *Memory) ReadUint(addr uint64, size int) (uint64, error) {
	if off := addr & (PageSize - 1); off+uint64(size) <= PageSize {
		if pg := m.pageAt(addr, Read); pg != nil {
			b := pg.data[off:]
			switch size {
			case 8:
				return binary.LittleEndian.Uint64(b), nil
			case 4:
				return uint64(binary.LittleEndian.Uint32(b)), nil
			case 2:
				return uint64(binary.LittleEndian.Uint16(b)), nil
			case 1:
				return uint64(b[0]), nil
			}
		}
	}
	var buf [8]byte
	if err := m.Read(addr, buf[:size]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// WriteUint writes a little-endian unsigned integer of the given size
// (1, 2, 4 or 8 bytes; at most 8) at addr. An attached injector sees
// the write first, once, exactly as Write shows it. A non-empty access
// within one page then encodes in place; page-straddling or faulting
// accesses take the byte path.
func (m *Memory) WriteUint(addr uint64, size int, v uint64) error {
	if m.Inject != nil {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		if err := m.tornWrite(addr, buf[:size], Write); err != nil {
			return err
		}
	}
	if off := addr & (PageSize - 1); off+uint64(size) <= PageSize && size > 0 {
		if pg := m.pageAt(addr, Write); pg != nil {
			b := pg.mutable()[off:]
			switch size {
			case 8:
				binary.LittleEndian.PutUint64(b, v)
			case 4:
				binary.LittleEndian.PutUint32(b, uint32(v))
			case 2:
				binary.LittleEndian.PutUint16(b, uint16(v))
			case 1:
				b[0] = byte(v)
			default:
				for i := range b[:size] {
					b[i] = byte(v >> (8 * i))
				}
			}
			pg.version++
			return nil
		}
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return m.writeBytes(addr, buf[:size], Write)
}

// Region describes one mapped protection-homogeneous address range.
type Region struct {
	Addr uint64
	Len  uint64
	Prot Prot
}

// Regions returns the mapped regions in address order, coalescing
// adjacent pages with equal protection.
func (m *Memory) Regions() []Region {
	var out []Region
	for _, pn := range m.order {
		p := m.pages[pn]
		if n := len(out); n > 0 {
			prev := &out[n-1]
			if prev.Addr+prev.Len == pn<<PageShift && prev.Prot == p.prot {
				prev.Len += PageSize
				continue
			}
		}
		out = append(out, Region{Addr: pn << PageShift, Len: PageSize, Prot: p.prot})
	}
	return out
}

// PageAlignDown rounds addr down to a page boundary.
func PageAlignDown(addr uint64) uint64 { return addr &^ (PageSize - 1) }

// PageAlignUp rounds n up to a multiple of the page size.
func PageAlignUp(n uint64) uint64 { return (n + PageSize - 1) &^ (PageSize - 1) }
