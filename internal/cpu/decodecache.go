// The predecoded-instruction cache.
//
// Without this cache, Step would re-fetch a 10-byte window from the
// icache line snapshot and re-run isa.Decode on every single
// instruction, which made decoding the hottest host-side path of every
// experiment (cf. Wong et al., "Faster Variational Execution with
// Transparent Bytecode Transformation": cache the decoded form,
// invalidate when code changes). Here "when code changes" is exactly
// the icache-flush discipline the paper's patching runtime already
// follows, so the decode cache simply lives inside the icache line:
//
//   - Entries are derived exclusively from the line's byte snapshot
//     and die with the line in FlushICache. Patching without a flush
//     therefore keeps executing the stale *decoded* instruction, just
//     as the raw interpreter keeps executing the stale bytes.
//   - An instruction is cached only when its whole fetch window lies
//     within one page. A window that straddles a page boundary draws
//     bytes from two lines with independent lifetimes (the second page
//     can be flushed while the first stays cached), so those always
//     take the fetch-and-decode path.
//   - Each CPU owns its icache, so each SMP hardware thread keeps a
//     private decode cache, mirroring real per-core frontends.
//
// Layout. A line caches a few dozen instructions and blocks out of
// 4096 possible offsets, and every flush throws the line away, so the
// line pays only for what it holds: slot, an 8 KB array of uint16
// inside the line, maps each in-page offset to the index of its
// lineEnt in the compact ents slice, and one lineEnt holds both the
// decoded instruction and the superblock (superblock.go) headed at
// its offset. Slot 0 means nothing is cached: it points at ents[0],
// which stays empty, so a lookup is two loads and no branch. A fill
// allocates the line (page bytes, slot and header, about 13 KB) and
// ents with room for lineEntsInit entries.
//
// The cache is always on and purely host-side: it changes only the
// DecodeHits/DecodeMisses statistics, never simulated cycles or
// architectural state.

package cpu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// decodeInst decodes the instruction at the start of b. NOPN needs
// only its opcode and length bytes: its padding is never fetched, so
// it may lie beyond b (even in the next page).
func decodeInst(b []byte) (isa.Inst, error) {
	if len(b) >= 2 && isa.Op(b[0]) == isa.NOPN {
		if b[1] < 2 {
			return isa.Inst{}, fmt.Errorf("NOPN length %d", b[1])
		}
		return isa.Inst{Op: isa.NOPN, Len: int(b[1])}, nil
	}
	return isa.Decode(b)
}

// lineEnt is what a line caches at one in-page offset: the decoded
// instruction (Len == 0: not decoded) and the superblock headed there
// (nil: none built; sbReject: none can start).
type lineEnt struct {
	in isa.Inst
	sb superblock
}

// lineEntsInit is the room for entries a filled line allocates with
// it. A line a flush refilled holds 3 to 10 entries on the E7 kernel's
// guest sweep, so most refills never grow ents; a hot line (up to a few
// hundred entries in the experiments) grows by append.
const lineEntsInit = 16

// newLine returns an empty line with room for n entries besides
// ents[0], the entry every unused offset's slot points at, which stays
// empty.
func newLine(n int) *icLine {
	return &icLine{ents: make([]lineEnt, 1, 1+n)}
}

// entry returns the line's entry at in-page offset off — ents[0], with
// no instruction and no block, when nothing is cached there. It is the
// one way to an entry: lookups call it directly and inline it into the
// dispatch paths, writers call it through addEntry.
func (l *icLine) entry(off uint64) *lineEnt {
	return &l.ents[l.slot[off]]
}

// addEntry returns the entry at off, appending an empty one when there
// is none. Entries are only ever appended, so a pointer into ents stays
// valid (possibly into a superseded backing array, which keeps the same
// contents) while a handler runs.
func (l *icLine) addEntry(off uint64) *lineEnt {
	if l.slot[off] == 0 {
		l.ents = append(l.ents, lineEnt{})
		l.slot[off] = uint16(len(l.ents) - 1)
	}
	return l.entry(off)
}

// residentLine returns the icache line holding pc, or nil. It memoizes
// the last line to keep the steady-state paths free of map lookups;
// FlushICache clears the memo along with the lines.
func (c *CPU) residentLine(pc uint64) *icLine {
	pn := pc >> mem.PageShift
	if line := c.lastLine; line != nil && c.lastPN == pn {
		return line
	}
	line := c.icache[pn]
	if line != nil {
		c.lastPN, c.lastLine = pn, line
	}
	return line
}

// decode returns the instruction at pc: the decode cache's entry, or
// else one fetched through the instruction cache, decoded into
// c.missed and recorded in the decode cache.
func (c *CPU) decode(pc uint64) (*isa.Inst, error) {
	if line := c.residentLine(pc); line != nil {
		if e := line.entry(pc & (mem.PageSize - 1)); e.in.Len != 0 {
			c.stats.DecodeHits++
			return &e.in, nil
		}
	}
	var window [maxInstLen]byte
	n, err := c.icFetch(pc, window[:])
	if err != nil {
		return nil, &execError{pc, err}
	}
	in, err := decodeInst(window[:n])
	if err != nil {
		return nil, &execError{pc, err}
	}
	c.stats.DecodeMisses++
	c.cacheInst(pc, in)
	c.missed = in
	return &c.missed, nil
}

// cacheInst records the decode of the instruction at pc, provided its
// whole fetch window lies within pc's page. Instructions in the last
// maxInstLen-1 bytes of a page are never cached: their window bytes
// came (or would come) from the next page's line, whose lifetime is
// independent — caching them under the first page could outlive a
// flush of the second and keep executing bytes that flush discarded.
func (c *CPU) cacheInst(pc uint64, in isa.Inst) {
	off := pc & (mem.PageSize - 1)
	if off+maxInstLen > mem.PageSize {
		return
	}
	if line := c.residentLine(pc); line != nil {
		line.addEntry(off).in = in
	}
}
