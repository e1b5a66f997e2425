package cpu

import (
	"runtime"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// hotLoop assembles the counter loop used by the decode cache tests:
// r1 counts up to n with a backward conditional branch.
func hotLoop(n int32) []byte {
	var a isa.Asm
	a.Movi(1, 0)
	loop := a.Len()
	a.AluI(isa.ADDI, 1, 1)
	a.CmpI(1, n)
	jccAt := a.Len()
	a.Jcc(isa.LT, int32(loop-(jccAt+6)))
	a.Hlt()
	return a.Bytes()
}

func TestDecodeCacheHitsOnHotLoop(t *testing.T) {
	c := newVM(t, hotLoop(1000))
	run(t, c)
	st := c.Stats()
	if st.DecodeHits+st.DecodeMisses != st.Instructions {
		t.Errorf("hits %d + misses %d != instructions %d",
			st.DecodeHits, st.DecodeMisses, st.Instructions)
	}
	// Four distinct loop instructions plus prologue/HLT decode once;
	// every further execution must be a hit.
	if st.DecodeMisses > 6 {
		t.Errorf("misses = %d, want one per distinct pc (<= 6)", st.DecodeMisses)
	}
	if st.DecodeHits < st.Instructions*9/10 {
		t.Errorf("hits = %d of %d instructions; hot loop not served from cache",
			st.DecodeHits, st.Instructions)
	}
}

// TestStaleDecodedInstructionUntilFlush mirrors TestStaleICacheUntilFlush
// one level up: after patching without a flush, the stale *decoded*
// instruction must keep executing from the cache, and the flush must
// drop the decode together with the icache line.
func TestStaleDecodedInstructionUntilFlush(t *testing.T) {
	var a isa.Asm
	a.Movi(0, 1)
	a.Hlt()
	c := newVM(t, a.Bytes())
	run(t, c)
	c.SetPC(textBase)
	run(t, c)
	if c.Stats().DecodeHits == 0 {
		t.Fatal("second run not served from the decode cache")
	}

	var b isa.Asm
	b.Movi(0, 2)
	if err := c.Mem.WriteForce(textBase, b.Bytes()); err != nil {
		t.Fatal(err)
	}
	hits := c.Stats().DecodeHits
	c.SetPC(textBase)
	run(t, c)
	if c.Reg(0) != 1 {
		t.Errorf("r0 = %d after unflushed patch, want stale 1", c.Reg(0))
	}
	if got := c.Stats().DecodeHits - hits; got == 0 {
		t.Error("post-patch run bypassed the decode cache")
	}

	c.FlushICache(textBase, uint64(b.Len()))
	c.SetPC(textBase)
	run(t, c)
	if c.Reg(0) != 2 {
		t.Errorf("r0 = %d after flush, want 2", c.Reg(0))
	}
}

// TestStraddlingWindowNotCached provokes the case that forbids caching
// near page ends: an instruction whose fetch window straddles a page
// boundary takes bytes from two icache lines with independent
// lifetimes. Flushing only the second page must be visible on the next
// execution even though the first page stays cached.
func TestStraddlingWindowNotCached(t *testing.T) {
	m := mem.New()
	if err := m.Map(textBase, 2*mem.PageSize, mem.RWX); err != nil {
		t.Fatal(err)
	}
	start := textBase + mem.PageSize - 5 // MOVI: 5 bytes page 0, 5 bytes page 1
	var a isa.Asm
	a.Movi(3, 0x1111111111111111)
	a.Hlt()
	if err := m.Write(start, a.Bytes()); err != nil {
		t.Fatal(err)
	}
	c := New(m, DefaultConfig())
	c.SetPC(start)
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.Reg(3) != 0x1111111111111111 {
		t.Fatalf("r3 = %#x", c.Reg(3))
	}
	// Patch the five immediate bytes that live in page 1 and flush
	// only page 1: the re-executed MOVI must mix the stale page-0
	// bytes with the fresh page-1 bytes.
	patch := []byte{0x22, 0x22, 0x22, 0x22, 0x22}
	if err := c.Mem.Write(textBase+mem.PageSize, patch); err != nil {
		t.Fatal(err)
	}
	c.FlushICache(textBase+mem.PageSize, uint64(len(patch)))
	c.SetPC(start)
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	const want = 0x2222222222111111 // low 3 bytes stale, high 5 fresh
	if c.Reg(3) != want {
		t.Errorf("r3 = %#x, want %#x (page-1 flush ignored)", c.Reg(3), want)
	}
	if c.Stats().DecodeHits != 0 {
		t.Errorf("straddling instruction served from decode cache (%d hits)", c.Stats().DecodeHits)
	}
}

// TestStraddleWithOnlyFirstPageCached executes a straddling instruction
// whose second page has never been fetched: the first page's line (and
// decode cache) exists from earlier execution, the second fills on
// demand.
func TestStraddleWithOnlyFirstPageCached(t *testing.T) {
	m := mem.New()
	if err := m.Map(textBase, 2*mem.PageSize, mem.RWX); err != nil {
		t.Fatal(err)
	}
	// Page 0: a warm-up HLT well inside the page, then a MOVI that
	// straddles into page 1.
	var warm isa.Asm
	warm.Movi(0, 7)
	warm.Hlt()
	if err := m.Write(textBase, warm.Bytes()); err != nil {
		t.Fatal(err)
	}
	start := textBase + mem.PageSize - 5
	var a isa.Asm
	a.Movi(3, 0x1122334455667788)
	a.Hlt()
	if err := m.Write(start, a.Bytes()); err != nil {
		t.Fatal(err)
	}
	c := New(m, DefaultConfig())
	c.SetPC(textBase)
	if _, err := c.Run(10); err != nil { // fills page 0 and caches its decodes
		t.Fatal(err)
	}
	if c.Stats().ICacheFills != 1 {
		t.Fatalf("fills = %d, want 1 (page 0 only)", c.Stats().ICacheFills)
	}
	c.SetPC(start)
	if _, err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.Reg(3) != 0x1122334455667788 {
		t.Errorf("r3 = %#x", c.Reg(3))
	}
	if c.Stats().ICacheFills != 2 {
		t.Errorf("fills = %d, want 2 (page 1 filled on demand)", c.Stats().ICacheFills)
	}
}

// TestLineRefillBytes gates what a flushed line costs to refill: a
// one-page loop is flushed and re-run, through blocks and, with a
// fetch fault armed that never fires, through Step, and the bytes allocated per
// refill — the line with its page bytes and offset index (about
// 13 KB), its entries and any superblocks — must stay under 24 KB.
// Commits flush the lines they patch, so every commit pays this once
// per line the guest runs again.
func TestLineRefillBytes(t *testing.T) {
	const refills, limit = 200, 24 << 10
	for _, sb := range []bool{false, true} {
		c := newVM(t, hotLoop(100))
		if !sb {
			c.SetInjector(stepInjector{}, 0)
		}
		run(t, c)
		fills := c.Stats().ICacheFills
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < refills; i++ {
			c.FlushICache(textBase, mem.PageSize)
			c.SetPC(textBase)
			if _, err := c.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if got := c.Stats().ICacheFills - fills; got != refills {
			t.Fatalf("superblocks=%v: %d line fills over %d refills", sb, got, refills)
		}
		if per := (after.TotalAlloc - before.TotalAlloc) / refills; per >= limit {
			t.Errorf("superblocks=%v: %d bytes allocated per line refill, want < %d", sb, per, limit)
		}
		if blocks := c.Stats().BlockInsts > 0; blocks != sb {
			t.Errorf("superblocks=%v: instructions ran in blocks: %v", sb, blocks)
		}
	}
}
