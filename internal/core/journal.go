package core

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// This file makes commits and reverts transactional. Every text write
// the runtime performs inside one public operation (Commit, Revert,
// CommitFunc, ...) is journaled first — old bytes and old page
// protection — every call-site shadow change journals the shadow, and
// every other logical state change registers an undo closure. If any
// step fails mid-operation, the journal is replayed
// newest-first: the text image returns byte-identical to its
// pre-operation state, stranded protection flips are undone, touched
// icache ranges are re-flushed, and the caller gets a clean
// ErrCommitAborted wrapping the cause. Transient faults (a lost
// protection flip, an interrupted write) are retried with a
// cycle-charged backoff before the operation gives up.
//
// The fault model this defends against is deterministic and finite
// (internal/faultinject: every armed fault point fires exactly once),
// so the bounded retry loops below provably terminate.

// ErrCommitAborted is returned (wrapped around the causing fault) when
// a commit or revert could not complete and the process image was
// rolled back to its pre-operation state.
var ErrCommitAborted = errors.New("core: commit aborted, image rolled back")

// Retry and rollback bounds. Fault plans are finite, so any bound
// larger than the plan's point count guarantees progress; these leave
// generous headroom.
const (
	maxPatchRetries = 8   // attempts per text write before aborting
	maxRestoreTries = 64  // attempts per journal entry during rollback
	maxFlushVerify  = 64  // shootdown re-broadcasts per verify pass
	backoffBase     = 200 // simulated cycles charged for the first retry
	backoffCap      = 1 << 14
)

// transienter classifies faults that may succeed on retry. It is an
// interface probe (satisfied by *faultinject.Fault) so core never
// imports the injector package.
type transienter interface{ FaultTransient() bool }

// faultTransient reports whether err, anywhere in its chain, marks
// itself retryable.
func faultTransient(err error) bool {
	var t transienter
	return errors.As(err, &t) && t.FaultTransient()
}

// journalEntry is one undoable step, with its old bytes inline: every
// journaled write (a call site, a prologue, a poke phase, an OSR slot
// move) is at most isa.MemCallSiteLen bytes. It is one of
//
//   - a text write: old[:n] holds the pre-write bytes at addr, prot the
//     page protection when hasProt;
//   - a call site's shadow (site != nil): old[:n] holds the site's
//     previous current bytes, patched its previous patched flag;
//   - any other logical state change (undo != nil).
type journalEntry struct {
	addr    uint64
	site    *siteState
	undo    func()
	old     [isa.MemCallSiteLen]byte
	n       uint8
	prot    mem.Prot
	hasProt bool
	patched bool
}

// txn journals one public runtime operation. Its entries are allocated
// once, at the first entry, with room for size of them.
type txn struct {
	entries []journalEntry
	size    int
}

// undosPerBinding bounds the logical undo entries one function or
// pointer switch registers in an operation: its variant binding, its
// metrics residency, and its deferred-queue slot.
const undosPerBinding = 3

// beginTxn opens a transaction for an operation that can touch ranges
// patch ranges (call sites and prologues) of bindings functions and
// pointer switches, or returns nil when one is already open: nested
// operations join the enclosing transaction, which owns the rollback
// decision. Each range journals its writes plus one shadow or prologue
// entry; only on-stack replacement's frame writes can outgrow the size.
func (rt *Runtime) beginTxn(ranges, bindings int) *txn {
	if rt.tx != nil {
		return nil
	}
	writes := 1
	if rt.Options.Mode == ModeTextPoke {
		writes = 3 // one entry per poke phase
	}
	rt.tx = &txn{size: ranges*(writes+1) + bindings*undosPerBinding}
	return rt.tx
}

// newEntry appends a zero entry to the open transaction's journal and
// returns it for the caller to fill in. The pointer is valid until the
// next entry is appended. Outside a transaction nothing rolls back, and
// the entry is a throwaway.
func (rt *Runtime) newEntry() *journalEntry {
	t := rt.tx
	if t == nil {
		return new(journalEntry)
	}
	if t.entries == nil {
		t.entries = make([]journalEntry, 0, t.size)
	}
	t.entries = append(t.entries, journalEntry{})
	return &t.entries[len(t.entries)-1]
}

// noteUndo registers a logical undo closure with the open transaction.
// Closures run in reverse registration order during rollback,
// interleaved correctly with byte restores.
func (rt *Runtime) noteUndo(fn func()) {
	if rt.tx != nil {
		rt.newEntry().undo = fn
	}
}

// noteSite journals a call site's shadow (current bytes and patched
// flag) before patchSite changes it.
func (rt *Runtime) noteSite(st *siteState) {
	if rt.tx != nil {
		e := rt.newEntry()
		e.site = st
		e.old, e.n = st.current, uint8(st.size)
		e.patched = st.patched
	}
}

// writeText performs one journaled text write, dispatching on the
// commit mode: in ModeTextPoke a multi-byte rewrite goes through the
// breakpoint protocol (pokeWrite, sync.go) so CPUs racing the write
// never decode a torn instruction; everything else writes directly.
func (rt *Runtime) writeText(addr uint64, old, data []byte) error {
	if rt.Options.Mode == ModeTextPoke && len(data) > 1 && len(old) == len(data) {
		return rt.pokeWrite(addr, old, data)
	}
	return rt.writeTextDirect(addr, old, data)
}

// writeTextDirect performs one journaled text write with bounded
// retry-with-backoff. old must hold the current content of the range
// (the caller has just read and verified it). On a transient fault the
// range is repaired to its journaled state and the write retried after
// charging backoff cycles; a persistent fault or exhausted retries
// return the error with the torn state still in place — the
// transaction's rollback repairs it.
func (rt *Runtime) writeTextDirect(addr uint64, old, data []byte) error {
	if len(old) > isa.MemCallSiteLen {
		return fmt.Errorf("core: journaled write of %d bytes at %#x exceeds %d", len(old), addr, isa.MemCallSiteLen)
	}
	e := rt.newEntry()
	e.addr = addr
	e.n = uint8(copy(e.old[:], old))
	e.prot, e.hasProt = rt.plat.ProtAt(addr)
	var err error
	for attempt := 0; attempt < maxPatchRetries; attempt++ {
		if attempt > 0 {
			rt.Stats.CommitRetries++
			if rt.Tracer != nil {
				rt.Tracer.Emit(trace.KindCommitRetry, addr, uint64(attempt), 0)
			}
			rt.repairEntry(e)
			rt.backoff(attempt)
		}
		if err = rt.plat.Patch(addr, data); err == nil {
			return nil
		}
		if !faultTransient(err) {
			return err
		}
	}
	return err
}

// backoff charges simulated cycles for one retry round. It only runs
// after a fault fired, so fault-free executions remain cycle-identical
// to a build without any of this machinery.
func (rt *Runtime) backoff(attempt int) {
	n := uint64(backoffBase) << (attempt - 1)
	if n > backoffCap {
		n = backoffCap
	}
	rt.plat.AdvanceCycles(n)
}

// repairEntry best-effort restores one journal entry: journaled bytes
// first, then the journaled page protection (a mid-patch fault can
// strand a page writable). Restores themselves go through the injected
// memory system and can fault; they are retried until the finite fault
// plan runs dry or the bound trips.
func (rt *Runtime) repairEntry(e *journalEntry) error {
	var errs []error
	var err error
	for try := 0; try < maxRestoreTries; try++ {
		if err = rt.plat.Restore(e.addr, e.old[:e.n]); err == nil {
			break
		}
	}
	if err != nil {
		errs = append(errs, fmt.Errorf("core: rollback of %#x: %w", e.addr, err))
	}
	if e.hasProt {
		for try := 0; try < maxRestoreTries; try++ {
			if err = rt.plat.SetProt(e.addr, uint64(e.n), e.prot); err == nil {
				break
			}
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("core: rollback of %#x protection: %w", e.addr, err))
		}
	}
	return errors.Join(errs...)
}

// verifyFlushes re-broadcasts the icache shootdown for every range the
// transaction touched until no hardware thread caches stale bytes —
// the acknowledge loop of a real shootdown protocol, and the defense
// against injected dropped-flush faults.
func (rt *Runtime) verifyFlushes(entries []journalEntry) {
	for i := range entries {
		if e := &entries[i]; e.site == nil && e.undo == nil { // a text write
			rt.flushAck(e.addr, uint64(e.n))
		}
	}
}

// endTxn closes a transaction. A nil txn means the operation joined an
// enclosing transaction, which owns commit/rollback — the error passes
// through untouched. On success the touched ranges get their
// shootdowns verified; on failure the journal is rolled back and the
// error wrapped in ErrCommitAborted.
func (rt *Runtime) endTxn(t *txn, opErr error) error {
	if t == nil {
		return opErr
	}
	rt.tx = nil
	if opErr == nil {
		rt.verifyFlushes(t.entries)
		return nil
	}
	return rt.abort(t, opErr)
}

// abort rolls the journal back newest-first, re-flushes every touched
// range, verifies the shootdowns landed, audits the resulting image,
// and wraps the cause in ErrCommitAborted.
func (rt *Runtime) abort(t *txn, cause error) error {
	rt.Stats.CommitAborts++
	var errs []error
	rolled := 0
	endPhase := rt.phase("rollback")
	for i := len(t.entries) - 1; i >= 0; i-- {
		e := &t.entries[i]
		switch {
		case e.undo != nil:
			e.undo()
			continue
		case e.site != nil:
			e.site.current = e.old
			e.site.patched = e.patched
			continue
		}
		if err := rt.repairEntry(e); err != nil {
			errs = append(errs, err)
		}
		rt.plat.FlushICache(e.addr, uint64(e.n))
		if rt.Tracer != nil {
			rt.Tracer.Emit(trace.KindRollback, e.addr, uint64(e.n), 0)
		}
		rolled++
	}
	rt.Stats.SitesRolledBack += rolled
	rt.verifyFlushes(t.entries)
	endPhase()
	if rt.Tracer != nil {
		rt.Tracer.Emit(trace.KindCommitAbort, 0, uint64(rolled), 0)
	}
	if err := rt.Audit(); err != nil {
		errs = append(errs, fmt.Errorf("core: post-rollback audit: %w", err))
	}
	// The flight recorder dumps here, after the abort's own events are
	// in the ring, so the dump's span tree covers the whole failure.
	rt.noteFailure("commit-abort")
	if len(errs) > 0 {
		return fmt.Errorf("%w: %w (rollback incomplete: %w)", ErrCommitAborted, cause, errors.Join(errs...))
	}
	return fmt.Errorf("%w: %w", ErrCommitAborted, cause)
}
