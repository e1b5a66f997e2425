package core

import (
	"errors"
	"fmt"

	"repro/internal/isa"
)

// Runtime state export/import for deterministic machine snapshots.
//
// The runtime's durable state is surprisingly small: which variant
// each function is bound to, whether its generic prologue is
// redirected (and the saved pre-patch bytes), which pointer switches
// are committed to which targets, the deferred-operation queue, the
// operation counters and the number of public operations run.
// Everything else is either re-derived from the descriptor tables at
// construction, or re-read from restored memory at import: per-site
// "current" bytes are recovered from the snapshot's memory image
// itself, which cannot disagree with it.
//
// Export refuses to run inside an open transaction — a mid-commit
// snapshot would capture a state the runtime itself considers
// unobservable (the journal exists precisely to erase it).

// FuncBindingState is the exported binding of one multiversed function.
type FuncBindingState struct {
	Name          string
	Generic       uint64
	CommittedAddr uint64 // 0 = generic (no variant committed)
	PrologueOn    bool
	SavedPrologue [isa.CallSiteLen]byte
}

// FnPtrBindingState is the exported binding of one pointer switch.
type FnPtrBindingState struct {
	Addr      uint64 // switch-variable address
	Committed bool
	Target    uint64
}

// DeferredOpState is one queued deferred operation, in queue order.
type DeferredOpState struct {
	Name string
	Kind uint8 // 0 = commit, 1 = revert (opKind)
}

// RuntimeState is the complete serializable state of a Runtime.
type RuntimeState struct {
	Funcs    []FuncBindingState
	FnPtrs   []FnPtrBindingState
	Deferred []DeferredOpState
	Stats    RuntimeStats
	OpSeq    uint64
}

// ErrNotQuiesced reports that the runtime is inside an open commit or
// revert transaction, so its binding state is momentarily
// unobservable. The condition is transient by construction — every
// transaction either commits or rolls back — so callers (snapshot
// capture, fleet supervisors) should treat it as "retry once the
// current operation finishes", never as corruption.
var ErrNotQuiesced = errors.New("core: runtime is inside an open transaction (not commit-quiesced)")

// ExportState captures the runtime's durable state. It fails with
// ErrNotQuiesced when a transaction is open: commits are atomic, so
// there is no meaningful mid-commit state to snapshot.
func (rt *Runtime) ExportState() (RuntimeState, error) {
	if rt.tx != nil {
		return RuntimeState{}, fmt.Errorf("cannot snapshot runtime state: %w", ErrNotQuiesced)
	}
	var s RuntimeState
	s.Funcs = make([]FuncBindingState, 0, len(rt.funcs))
	for _, fs := range rt.funcs {
		fb := FuncBindingState{
			Name:          fs.fd.Name,
			Generic:       fs.fd.Generic,
			PrologueOn:    fs.prologueOn,
			SavedPrologue: fs.savedPrologue,
		}
		if fs.committed != nil {
			fb.CommittedAddr = fs.committed.Addr
		}
		s.Funcs = append(s.Funcs, fb)
	}
	for _, ps := range rt.ptrOrder {
		s.FnPtrs = append(s.FnPtrs, FnPtrBindingState{
			Addr:      ps.vd.Addr,
			Committed: ps.committed,
			Target:    ps.target,
		})
	}
	for _, p := range rt.deferred {
		s.Deferred = append(s.Deferred, DeferredOpState{Name: p.fs.fd.Name, Kind: uint8(p.kind)})
	}
	s.Stats = rt.Stats
	s.OpSeq = rt.opSeq
	return s, nil
}

// ImportState restores a previously exported runtime state. The
// runtime must have been constructed against the same image, and the
// state must list functions in image order and pointer switches in
// address order, as ExportState does: each record is matched by name
// and address against the runtime's at its index, and a mismatch is an
// error, not silent corruption. The platform's memory must already
// hold the snapshot's restored image: per-site current bytes and patch
// status are recovered by re-reading the call-site windows.
func (rt *Runtime) ImportState(s RuntimeState) error {
	if rt.tx != nil {
		return fmt.Errorf("cannot restore runtime state: %w", ErrNotQuiesced)
	}
	if len(s.Funcs) != len(rt.funcs) {
		return fmt.Errorf("core: snapshot has %d functions, image has %d", len(s.Funcs), len(rt.funcs))
	}
	if len(s.FnPtrs) != len(rt.ptrOrder) {
		return fmt.Errorf("core: snapshot has %d pointer switches, image has %d", len(s.FnPtrs), len(rt.ptrOrder))
	}
	for i, fb := range s.Funcs {
		fs := rt.funcs[i]
		if fb.Name != fs.fd.Name || fb.Generic != fs.fd.Generic {
			return fmt.Errorf("core: snapshot function %d is %q at %#x, image's is %q at %#x",
				i, fb.Name, fb.Generic, fs.fd.Name, fs.fd.Generic)
		}
		if fb.CommittedAddr == 0 {
			fs.committed = nil
		} else {
			var v *VariantDesc
			for i := range fs.fd.Variants {
				if fs.fd.Variants[i].Addr == fb.CommittedAddr {
					v = &fs.fd.Variants[i]
					break
				}
			}
			if v == nil {
				return fmt.Errorf("core: snapshot commits %q to unknown variant %#x", fb.Name, fb.CommittedAddr)
			}
			fs.committed = v
		}
		fs.prologueOn = fb.PrologueOn
		fs.savedPrologue = fb.SavedPrologue
	}
	for i, pb := range s.FnPtrs {
		ps := rt.ptrOrder[i]
		if pb.Addr != ps.vd.Addr {
			return fmt.Errorf("core: snapshot pointer switch %d is at %#x, image's at %#x", i, pb.Addr, ps.vd.Addr)
		}
		ps.committed = pb.Committed
		ps.target = pb.Target
	}
	// Call-site current bytes come from the (already restored) memory
	// image, which by construction agrees with the snapshot.
	for _, sites := range rt.sites {
		for _, st := range sites {
			window, err := readSiteWindow(rt.plat, st.desc.Addr)
			if err != nil {
				return fmt.Errorf("core: re-reading call site %#x: %w", st.desc.Addr, err)
			}
			copy(st.current[:], window[:st.size])
			st.patched = st.current != st.original
		}
	}
	rt.deferred = nil
	for _, d := range s.Deferred {
		fs, ok := rt.byName[d.Name]
		if !ok {
			return fmt.Errorf("core: snapshot defers operation on unknown function %q", d.Name)
		}
		if rt.queued(fs) >= 0 {
			return fmt.Errorf("core: snapshot defers %q twice", d.Name)
		}
		rt.deferred = append(rt.deferred, pendingOp{fs, opKind(d.Kind)})
	}
	rt.Stats = s.Stats
	rt.opSeq = s.OpSeq
	return nil
}
