package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/trace"
)

// This file adds SMP-safe commit modes to the runtime library. The
// legacy contract (paper §2: "the caller decides when the program is
// in a patchable state") survives as ModeParked; the two new modes
// make commits safe while other CPUs execute:
//
//   - ModeStopMachine quiesces every CPU at an instruction boundary
//     outside all patchable ranges before any byte changes — the
//     kernel's stop_machine.
//   - ModeTextPoke rewrites multi-byte sites with the breakpoint
//     protocol (BRK first byte, tail, first byte; flush + acknowledge
//     between phases) so a racing CPU either decodes the old
//     instruction whole or traps resumably — the kernel's
//     text_poke_bp.
//
// Orthogonally, an activeness check refuses (or defers) rebinding a
// function whose currently-committed code is live on some CPU's stack
// — the stack check of kernel livepatch.

// CommitMode selects how commits synchronize with concurrently
// executing CPUs.
type CommitMode int

const (
	// ModeParked is the legacy contract: the caller guarantees no CPU
	// executes near patched text. No rendezvous, no poke protocol —
	// byte- and cycle-identical to the pre-SMP runtime.
	ModeParked CommitMode = iota
	// ModeStopMachine quiesces all CPUs outside the patch ranges for
	// the duration of each operation.
	ModeStopMachine
	// ModeTextPoke leaves CPUs running and rewrites text with the
	// breakpoint protocol.
	ModeTextPoke
)

// String names the mode (flag values of mvstress -mode).
func (m CommitMode) String() string {
	switch m {
	case ModeParked:
		return "parked"
	case ModeStopMachine:
		return "stop"
	case ModeTextPoke:
		return "poke"
	}
	return fmt.Sprintf("mode%d", int(m))
}

// OnActivePolicy decides what a commit does when the activeness check
// finds the function live on a CPU stack.
type OnActivePolicy int

const (
	// ActiveRefuse fails the operation with ErrFunctionActive (the
	// transaction rolls back anything already patched).
	ActiveRefuse OnActivePolicy = iota
	// ActiveDefer queues the operation; DrainDeferred applies it at the
	// next quiescent point.
	ActiveDefer
	// ActiveOSR performs on-stack replacement: inside the commit
	// rendezvous, every live frame of the old body is transferred to
	// the equivalent OSR point of the target body (PC, SP, spilled
	// slots, return addresses — all through the undo journal). When no
	// mapped point exists the operation falls back to ActiveDefer and
	// is counted in Stats.OSRFallbacks.
	ActiveOSR
)

// String names the policy (flag values of mvstress -onactive).
func (p OnActivePolicy) String() string {
	switch p {
	case ActiveRefuse:
		return "refuse"
	case ActiveDefer:
		return "defer"
	case ActiveOSR:
		return "osr"
	}
	return fmt.Sprintf("onactive%d", int(p))
}

// CommitOptions configures the concurrency behavior of every
// subsequent commit/revert operation.
type CommitOptions struct {
	Mode     CommitMode
	OnActive OnActivePolicy
}

// SetCommitOptions installs the commit concurrency options. The zero
// value (ModeParked, ActiveRefuse) restores legacy behavior.
func (rt *Runtime) SetCommitOptions(o CommitOptions) { rt.Options = o }

// ErrFunctionActive is returned (wrapped) when a commit or revert is
// refused because the function's currently-committed code is live on
// some CPU's stack and the policy is ActiveRefuse.
var ErrFunctionActive = errors.New("core: function is active on a CPU stack")

// runGuarded runs body under the configured synchronization: a
// stop-machine rendezvous in ModeStopMachine, plainly otherwise. Every
// transaction body (transact) goes through it.
func (rt *Runtime) runGuarded(body func() error) error {
	if rt.Options.Mode != ModeStopMachine {
		return body()
	}
	endPhase := rt.phase("stop-machine")
	lat, err := rt.plat.StopMachine(rt.ranges, body)
	rt.Stats.StopMachines++
	rt.noteRendezvous(lat, uint64(len(rt.ranges)))
	endPhase()
	return err
}

// noteRendezvous records one stop-machine rendezvous in the trace and
// the latency histogram.
func (rt *Runtime) noteRendezvous(latency, ranges uint64) {
	if rt.Tracer != nil {
		rt.Tracer.Emit(trace.KindRendezvous, 0, latency, ranges)
	}
	rt.metrics.observeRendezvous(latency)
}

// pokeWrite is the journaled breakpoint-protocol text write writeText
// dispatches to in ModeTextPoke. Each phase is journaled separately,
// so an abort at any point replays newest-first:
//
//	E3 undone -> BRK back over the first byte,
//	E2 undone -> original tail back,
//	E1 undone -> original first byte back,
//
// leaving the image byte-identical and BRK-free. Between phases the
// icache shootdown is verified (flushAck): a CPU whose flush was
// dropped must not carry its stale snapshot into the next phase, or a
// later refill could hand it a spliced old/new hybrid.
//
// Before phase 1 the machine is herded so no PC sits strictly inside
// the window, and any live return address interior to the window must
// be an instruction boundary of both the old and the new content —
// otherwise the poke is refused (the transaction aborts cleanly).
func (rt *Runtime) pokeWrite(addr uint64, old, data []byte) error {
	n := uint64(len(data))
	if err := rt.pokeGuard(addr, old, data); err != nil {
		return err
	}
	defer rt.phase("poke")()
	rt.Stats.TextPokes++
	phase := func(ph int, a uint64, oldB, newB []byte) error {
		if err := rt.writeTextDirect(a, oldB, newB); err != nil {
			return err
		}
		rt.plat.FlushICache(a, uint64(len(newB)))
		rt.flushAck(a, uint64(len(newB)))
		if rt.Tracer != nil {
			rt.Tracer.Emit(trace.KindPokePhase, addr, n, uint64(ph))
		}
		rt.plat.NotePokePhase(ph, addr, n)
		return nil
	}
	brk := rt.buf.brk[:]
	brk[0] = byte(isa.BRK)
	if err := phase(1, addr, old[:1], brk); err != nil {
		return err
	}
	if err := phase(2, addr+1, old[1:], data[1:]); err != nil {
		return err
	}
	return phase(3, addr, brk, data[:1])
}

// pokeGuard establishes the poke protocol's precondition: no CPU may
// be (or return) strictly inside the window at a point that is not an
// instruction boundary of both the old and the new content. PCs are
// herded out with a bounded rendezvous (the window's old content is
// straight-line, so a few steps always exit it); an interior return
// address that would land mid-instruction in the new content refuses
// the poke.
func (rt *Runtime) pokeGuard(addr uint64, old, data []byte) error {
	n := uint64(len(data))
	endPhase := rt.phase("herd")
	rt.buf.herd[0] = machine.Range{Addr: addr + 1, Len: n - 1}
	lat, err := rt.plat.StopMachine(rt.buf.herd[:], func() error { return nil })
	if err != nil {
		endPhase()
		return fmt.Errorf("core: herding CPUs out of poke window [%#x,%#x): %w", addr, addr+n, err)
	}
	rt.noteRendezvous(lat, 1)
	endPhase()
	live, complete := rt.plat.LiveCodeAddrs()
	if !complete {
		return fmt.Errorf("core: stack scan truncated; cannot prove poke window [%#x,%#x) free of live addresses",
			addr, addr+n)
	}
	for _, a := range live {
		if a > addr && a < addr+n && !(instBoundary(old, int(a-addr)) && instBoundary(data, int(a-addr))) {
			return fmt.Errorf("core: live code address %#x inside poke window [%#x,%#x) is not a common instruction boundary",
				a, addr, addr+n)
		}
	}
	return nil
}

// instBoundary reports whether an instruction of code begins at offset
// off, decoding from the start of code. Undecodable bytes end the walk
// and every offset past them counts as no boundary, which only ever
// makes the guard stricter.
func instBoundary(code []byte, off int) bool {
	at := 0
	for at < off {
		in, err := isa.Decode(code[at:])
		if err != nil {
			return false
		}
		at += in.Len
	}
	return at == off
}

// flushAck re-broadcasts the shootdown for one range until no hardware
// thread caches stale bytes — the per-phase acknowledge step of the
// poke protocol (text_poke_sync's IPI wait).
func (rt *Runtime) flushAck(addr, n uint64) {
	for try := 0; try < maxFlushVerify && rt.plat.ICacheStale(addr, n); try++ {
		rt.Stats.FlushRetries++
		if rt.Tracer != nil {
			rt.Tracer.Emit(trace.KindFlushRetry, addr, n, uint64(try+1))
		}
		rt.plat.FlushICache(addr, n)
	}
}

// bindStatus is the tri-state outcome of one function commit.
type bindStatus int

const (
	bindGeneric  bindStatus = iota // no variant matched; generic stays
	bindBound                      // a variant was installed
	bindDeferred                   // function active; operation queued
)

// opKind tells whether an operation commits or reverts; a deferred
// operation keeps it in the queue.
type opKind int

const (
	opCommit opKind = iota
	opRevert
)

// pendingOp is one queued deferred operation.
type pendingOp struct {
	fs   *funcState
	kind opKind
}

// isActive reports whether fs's currently-running code — the committed
// variant's body, or the generic body when none is committed — is live
// on any CPU (PC or stack return address). Always false in ModeParked
// (the legacy caller already guarantees quiescence).
func (rt *Runtime) isActive(fs *funcState) bool {
	if rt.Options.Mode == ModeParked {
		return false
	}
	lo, hi := fs.fd.Generic, fs.fd.Generic+uint64(fs.fd.Size)
	if v := fs.committed; v != nil {
		lo, hi = v.Addr, v.Addr+uint64(v.Size)
	}
	if hi == lo {
		return false
	}
	live, complete := rt.plat.LiveCodeAddrs()
	if !complete {
		// A truncated scan proves nothing inactive: conservatively
		// treat the function as live rather than patch under a frame
		// the bound hid.
		return true
	}
	for _, a := range live {
		if a >= lo && a < hi {
			return true
		}
	}
	return false
}

// deferOp queues (or re-tags) a deferred operation for fs. The queue
// mutation is undo-registered: if the enclosing transaction aborts,
// the queue returns to its pre-operation state. The journal replays
// newest-first, so an undo finds the queue as its change left it.
func (rt *Runtime) deferOp(fs *funcState, k opKind) {
	if i := rt.queued(fs); i >= 0 {
		prev := rt.deferred[i].kind
		rt.noteUndo(func() { rt.deferred[i].kind = prev })
		rt.deferred[i].kind = k
	} else {
		rt.noteUndo(func() { rt.deferred = rt.deferred[:len(rt.deferred)-1] })
		rt.deferred = append(rt.deferred, pendingOp{fs, k})
	}
	rt.Stats.DeferredPatches++
	if rt.Tracer != nil {
		op := uint64(1)
		if k == opRevert {
			op = 2
		}
		rt.Tracer.EmitName(trace.KindDeferred, fs.fd.Generic, op, uint64(len(rt.deferred)), fs.fd.Name)
	}
}

// queued returns the index of fs's operation in the deferred queue, or
// -1 when none is queued.
func (rt *Runtime) queued(fs *funcState) int {
	return slices.IndexFunc(rt.deferred, func(p pendingOp) bool { return p.fs == fs })
}

// DeferredCount returns how many functions have a queued deferred
// operation.
func (rt *Runtime) DeferredCount() int { return len(rt.deferred) }

// DrainDeferred applies every queued operation whose function is no
// longer active, each in its own transaction and through the same bind
// as a direct call, and returns how many were applied. Still-active
// functions stay queued. Call it at quiescent points (the chaos
// harness drains after parking its workers). Errors are joined; a
// failed operation goes back on the queue.
func (rt *Runtime) DrainDeferred() (int, error) {
	if len(rt.deferred) == 0 {
		return 0, nil
	}
	if reset := rt.beginOpSpan(); reset != nil {
		defer reset()
	}
	pend := slices.Clone(rt.deferred)
	done := 0
	if rt.Tracer != nil {
		rt.Tracer.Emit(trace.KindDrainBegin, 0, uint64(len(pend)), 0)
		defer func() {
			rt.Tracer.Emit(trace.KindDrainEnd, 0, uint64(done), uint64(len(rt.deferred)))
		}()
	}
	var errs []error
	for _, p := range pend {
		i := rt.queued(p.fs)
		if i < 0 || rt.isActive(p.fs) {
			continue // already handled by a later operation, or still live
		}
		// Dequeue before running: the operation may legitimately re-defer.
		k := rt.deferred[i].kind
		rt.deferred = slices.Delete(rt.deferred, i, i+1)
		res, err := rt.transact(k, []*funcState{p.fs}, nil)
		if err != nil {
			errs = append(errs, fmt.Errorf("core: draining deferred op for %q: %w", p.fs.fd.Name, err))
			// Re-queue outside any transaction; no stats bump, it was
			// already counted when first deferred.
			if rt.queued(p.fs) < 0 {
				rt.deferred = append(rt.deferred, pendingOp{p.fs, k})
			}
			continue
		}
		// A stop-machine rendezvous inside the drain can step a CPU into
		// the function, and bind then re-defers the operation; that one
		// was postponed again, not applied.
		if res.Deferred > 0 {
			continue
		}
		done++
		rt.Stats.DeferredDrained++
	}
	return done, errors.Join(errs...)
}

// checkActive runs the activeness policy for one function about to be
// rebound or reverted. target is the variant being committed (nil for
// a revert to generic). It returns (true, nil, nil) when the operation
// was deferred, a non-nil error when refused, and (false, plan, nil)
// when the operation may proceed — with a frame-transfer plan attached
// when ActiveOSR validated one (the caller applies it after patching,
// inside the same transaction).
func (rt *Runtime) checkActive(fs *funcState, k opKind, target *VariantDesc) (bool, *osrPlan, error) {
	if !rt.isActive(fs) {
		return false, nil, nil
	}
	switch rt.Options.OnActive {
	case ActiveDefer:
		rt.deferOp(fs, k)
		return true, nil, nil
	case ActiveOSR:
		plan, err := rt.osrPrepare(fs, target)
		if err == nil {
			return false, plan, nil
		}
		// No safe frame mapping: the documented ActiveOSR contract is
		// to fall back to the deferred queue, never to abort here (no
		// byte has been patched yet).
		rt.Stats.OSRFallbacks++
		rt.deferOp(fs, k)
		return true, nil, nil
	}
	rt.Stats.ActiveRefusals++
	return false, nil, fmt.Errorf("core: %q: %w", fs.fd.Name, ErrFunctionActive)
}

// purgeDeferred drops any queued deferred operation for fs. A commit
// or revert that lands (directly or via on-stack replacement) makes an
// older queued operation stale — leaving it queued would let a later
// DrainDeferred re-apply an outdated rebinding on top of the newer
// one. The queue mutation is undo-registered like deferOp's, so an
// aborted transaction restores the queue exactly.
func (rt *Runtime) purgeDeferred(fs *funcState) {
	i := rt.queued(fs)
	if i < 0 {
		return
	}
	p := rt.deferred[i]
	rt.noteUndo(func() { rt.deferred = slices.Insert(rt.deferred, i, p) })
	rt.deferred = slices.Delete(rt.deferred, i, i+1)
	if rt.Tracer != nil {
		rt.Tracer.EmitName(trace.KindDeferred, fs.fd.Generic, 0, uint64(len(rt.deferred)), fs.fd.Name)
	}
}
