package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/trace"
)

// Runtime is the multiverse run-time library (paper §4, Table 1): it
// decodes the descriptors of a loaded image and installs or removes
// function variants by patching call sites and generic prologues.
//
// Like the paper's library it performs no synchronization by default;
// the caller decides when the program is in a patchable state (§2).
// SetCommitOptions can opt into SMP-safe modes (stop-machine
// rendezvous or the BRK text-poke protocol, see sync.go) when other
// CPUs keep running during commits.
type Runtime struct {
	plat Platform
	desc *Descriptors

	varsByAddr map[uint64]*VarDesc
	funcs      []*funcState
	byGeneric  map[uint64]*funcState
	byName     map[string]*funcState
	fnptrs     map[uint64]*fnptrState // keyed by switch-variable address
	ptrOrder   []*fnptrState          // fnptrs in address order, for deterministic commits
	sites      map[uint64][]*siteState

	// ranges is every patch range (call-site windows and generic
	// prologues) sorted by address, computed at load and on AddModule:
	// PatchRanges copies it, and stop-machine rendezvous avoid it.
	ranges []machine.Range

	// tx is the open transaction, if any; see journal.go. Public
	// operations open one, nested helpers join it.
	tx *txn

	// buf holds the small buffers commits and audits pass through the
	// Platform interface, where a stack buffer would escape to the heap.
	buf buffers

	// Options selects the commit concurrency mode and the activeness
	// policy (sync.go); the zero value is the legacy parked contract.
	Options CommitOptions

	// deferred queues operations postponed because the target
	// function was active on a CPU stack (ActiveDefer), at most one per
	// function; DrainDeferred applies them at the next quiescent point.
	deferred []pendingOp

	// Stats accumulates patching work across all commits.
	Stats RuntimeStats

	// Tracer, when non-nil, records commit/revert spans, the switch
	// values that drove them, and every site/prologue patch.
	Tracer trace.Tracer

	// opSeq numbers public operations; beginOpSpan (span.go) stamps it
	// into every trace sink that carries commit-causality spans.
	opSeq uint64

	// flight, when non-nil (Observers.Flight), receives a failure dump
	// on commit abort and audit failure.
	flight *trace.Recorder

	// metrics, when non-nil (Observers.Metrics), observes commit
	// latency, sites-per-commit and per-function variant residency.
	// All its methods are nil-receiver safe, so the hooks below cost
	// one pointer comparison when detached.
	metrics *mvMetrics

	// DisableInlining turns off tiny-body call-site inlining; variants
	// are always installed as direct calls (ablation E9).
	DisableInlining bool
	// PrologueOnly skips call-site patching entirely and relies on the
	// generic-prologue jump alone — the configuration §7.4 calls "a
	// mere optimization" to go beyond (ablation E9).
	PrologueOnly bool
}

// RuntimeStats counts runtime-library activity. The patch/site
// counters record attempted work and are not decremented by rollback;
// the transactional counters below them tell how much of it was
// subsequently undone.
type RuntimeStats struct {
	Commits        int
	Reverts        int
	SitesPatched   int
	SitesInlined   int
	SitesReverted  int
	ProloguePatch  int
	GenericSignals int // commits that fell back to the generic variant

	CommitAborts    int // operations rolled back to the pre-commit image
	CommitRetries   int // text writes retried after a transient fault
	SitesRolledBack int // journal entries restored during aborts
	FlushRetries    int // icache shootdowns re-broadcast after verification

	// Concurrency counters (sync.go). Zero in ModeParked.
	StopMachines    int // stop-machine rendezvous run for guarded operations
	TextPokes       int // multi-byte text writes done via the BRK protocol
	DeferredPatches int // operations queued because the function was active
	DeferredDrained int // queued operations applied by DrainDeferred
	ActiveRefusals  int // operations refused with ErrFunctionActive

	// On-stack replacement counters (osr.go). Zero unless ActiveOSR.
	OSRTransfers int // live frames transferred into a new body
	OSRFallbacks int // ActiveOSR operations that fell back to the deferred queue
	OSRRollbacks int // frame transfers undone (or torn down) by rollback
}

// buffers are the runtime's reusable per-write buffers.
type buffers struct {
	read  [isa.MemCallSiteLen]byte // a site's or prologue's bytes before a write
	write [isa.MemCallSiteLen]byte // the bytes written there
	audit [isa.MemCallSiteLen]byte // a site's bytes under audit
	brk   [1]byte                  // the poke protocol's breakpoint byte
	herd  [1]machine.Range         // the poke window CPUs are herded out of
}

// siteState is one call site and the runtime's shadow of it: the
// first size bytes of original and current count, the rest stay zero.
type siteState struct {
	desc     CallSiteDesc
	size     int // 5 for direct CALL sites, 9 for CALLM pointer sites
	original [isa.MemCallSiteLen]byte
	current  [isa.MemCallSiteLen]byte
	patched  bool
}

type funcState struct {
	fd            *FuncDesc
	committed     *VariantDesc
	savedPrologue [isa.CallSiteLen]byte
	prologueOn    bool
}

type fnptrState struct {
	vd        *VarDesc
	committed bool
	target    uint64
}

// NewRuntime decodes the image's descriptors and snapshots every call
// site, verifying that each one holds the call instruction the
// compiler said it would.
func NewRuntime(img *link.Image, plat Platform) (*Runtime, error) {
	desc, err := DecodeDescriptors(img, plat)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		plat:       plat,
		desc:       desc,
		varsByAddr: make(map[uint64]*VarDesc),
		byGeneric:  make(map[uint64]*funcState),
		byName:     make(map[string]*funcState),
		fnptrs:     make(map[uint64]*fnptrState),
		sites:      make(map[uint64][]*siteState),
	}
	for i := range desc.Vars {
		v := &desc.Vars[i]
		rt.varsByAddr[v.Addr] = v
		if v.FnPtr {
			rt.fnptrs[v.Addr] = &fnptrState{vd: v}
		}
	}
	for i := range desc.Funcs {
		fs := &funcState{fd: &desc.Funcs[i]}
		rt.funcs = append(rt.funcs, fs)
		rt.byGeneric[fs.fd.Generic] = fs
		rt.byName[fs.fd.Name] = fs
	}
	for _, s := range desc.Sites {
		st, err := rt.loadSite(s)
		if err != nil {
			return nil, err
		}
		rt.sites[s.Callee] = append(rt.sites[s.Callee], st)
	}
	// Pointer switches live in a map keyed by address; commit them in
	// address order so every run patches (and injects faults) in the
	// same deterministic sequence.
	for _, ps := range rt.fnptrs {
		rt.ptrOrder = append(rt.ptrOrder, ps)
	}
	sort.Slice(rt.ptrOrder, func(i, j int) bool {
		return rt.ptrOrder[i].vd.Addr < rt.ptrOrder[j].vd.Addr
	})
	rt.indexRanges()
	return rt, nil
}

// indexRanges recomputes the sorted patch ranges: every call-site
// window plus every generic prologue.
func (rt *Runtime) indexRanges() {
	n := len(rt.funcs)
	for _, sites := range rt.sites {
		n += len(sites)
	}
	out := make([]machine.Range, 0, n)
	for _, sites := range rt.sites {
		for _, st := range sites {
			out = append(out, machine.Range{Addr: st.desc.Addr, Len: uint64(st.size)})
		}
	}
	for _, fs := range rt.funcs {
		out = append(out, machine.Range{Addr: fs.fd.Generic, Len: isa.CallSiteLen})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	rt.ranges = out
}

// loadSite reads a freshly decoded call site, verifies it, and
// snapshots its original bytes.
func (rt *Runtime) loadSite(s CallSiteDesc) (*siteState, error) {
	st := &siteState{desc: s}
	window, err := readSiteWindow(rt.plat, s.Addr)
	if err != nil {
		return nil, err
	}
	if err := rt.verifyOriginalSite(st, window); err != nil {
		return nil, err
	}
	copy(st.original[:], window[:st.size])
	st.current = st.original
	return st, nil
}

// verifyOriginalSite checks that a freshly decoded call site contains
// the call instruction the descriptor promises, and fixes the site's
// patch-unit size.
func (rt *Runtime) verifyOriginalSite(st *siteState, window []byte) error {
	in, err := isa.Decode(window)
	if err != nil {
		return fmt.Errorf("core: call site %#x holds undecodable bytes: %w", st.desc.Addr, err)
	}
	switch in.Op {
	case isa.CALL:
		st.size = isa.CallSiteLen
		target := st.desc.Addr + isa.CallSiteLen + uint64(in.Imm)
		if target != st.desc.Callee {
			return fmt.Errorf("core: call site %#x targets %#x, descriptor says %#x",
				st.desc.Addr, target, st.desc.Callee)
		}
	case isa.CLLM:
		st.size = isa.MemCallSiteLen
		if uint64(in.Imm) != st.desc.Callee {
			return fmt.Errorf("core: pointer call site %#x loads %#x, descriptor says %#x",
				st.desc.Addr, uint64(in.Imm), st.desc.Callee)
		}
		if _, ok := rt.fnptrs[st.desc.Callee]; !ok {
			return fmt.Errorf("core: indirect call site %#x references unknown switch %#x",
				st.desc.Addr, st.desc.Callee)
		}
	default:
		return fmt.Errorf("core: call site %#x holds %v, want a call", st.desc.Addr, in.Op)
	}
	return nil
}

// Funcs returns the decoded function descriptors.
func (rt *Runtime) Funcs() []FuncDesc { return rt.desc.Funcs }

// Vars returns the decoded variable descriptors.
func (rt *Runtime) Vars() []VarDesc { return rt.desc.Vars }

// Sites returns the number of recorded call sites for a callee
// (generic function address or switch-variable address).
func (rt *Runtime) Sites(callee uint64) int { return len(rt.sites[callee]) }

// PatchRange is one text range the runtime may rewrite.
type PatchRange = machine.Range

// PatchRanges returns a copy of every text range a commit or revert may
// patch, sorted by address: all call-site windows plus every generic
// prologue. A caller driving CPUs concurrently with runtime operations
// (§3.5's interrupt-window hazard) must keep their PCs out of these
// ranges while patching; the chaos harness steps CPUs to safety before
// each operation.
func (rt *Runtime) PatchRanges() []PatchRange {
	return append([]PatchRange(nil), rt.ranges...)
}

// FuncByName returns the generic address of a multiversed function.
func (rt *Runtime) FuncByName(name string) (uint64, bool) {
	fs, ok := rt.byName[name]
	if !ok {
		return 0, false
	}
	return fs.fd.Generic, true
}

// VarByName returns the address of a configuration switch.
func (rt *Runtime) VarByName(name string) (uint64, bool) {
	for _, v := range rt.desc.Vars {
		if v.Name == name {
			return v.Addr, true
		}
	}
	return 0, false
}

// readSwitch reads the current value of a configuration switch.
func (rt *Runtime) readSwitch(vd *VarDesc) (int64, error) {
	var buf [8]byte
	w := vd.Width
	if w <= 0 || w > 8 {
		return 0, fmt.Errorf("core: switch %q has width %d", vd.Name, w)
	}
	if err := rt.plat.Read(vd.Addr, buf[:w]); err != nil {
		return 0, err
	}
	var v uint64
	for i := w - 1; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	if vd.Signed {
		shift := uint(64 - 8*w)
		return int64(v<<shift) >> shift, nil
	}
	return int64(v), nil
}

// selectVariant picks the first variant whose guards all hold for the
// current switch values (paper §4).
func (rt *Runtime) selectVariant(fd *FuncDesc) (*VariantDesc, error) {
	for i := range fd.Variants {
		v := &fd.Variants[i]
		ok := true
		for _, g := range v.Guards {
			vd, found := rt.varsByAddr[g.VarAddr]
			if !found {
				return nil, fmt.Errorf("core: %q guard references unknown switch %#x", fd.Name, g.VarAddr)
			}
			val, err := rt.readSwitch(vd)
			if err != nil {
				return nil, err
			}
			if val < int64(g.Lo) || val > int64(g.Hi) {
				ok = false
				break
			}
		}
		if ok {
			return v, nil
		}
	}
	return nil, nil
}

// patchSite writes new bytes into a call site after verifying that it
// still contains exactly what the runtime last installed.
func (rt *Runtime) patchSite(st *siteState, newBytes []byte) error {
	cur := rt.buf.read[:st.size]
	if err := rt.plat.Read(st.desc.Addr, cur); err != nil {
		return err
	}
	if !bytes.Equal(cur, st.current[:st.size]) {
		return fmt.Errorf("core: call site %#x was modified behind the runtime's back (have %x, expect %x)",
			st.desc.Addr, cur, st.current[:st.size])
	}
	if len(newBytes) > st.size {
		return fmt.Errorf("core: patch of %d bytes exceeds %d-byte site %#x", len(newBytes), st.size, st.desc.Addr)
	}
	// Pad to the full patch unit so no stale instruction tail remains.
	padded := rt.buf.write[:st.size]
	if n := copy(padded, newBytes); n < st.size {
		isa.PutNop(padded[n:])
	}
	if err := rt.writeText(st.desc.Addr, cur, padded); err != nil {
		return err
	}
	rt.noteSite(st)
	copy(st.current[:], padded)
	st.patched = st.current != st.original
	rt.plat.FlushICache(st.desc.Addr, uint64(st.size))
	if rt.Tracer != nil {
		var restore uint64
		if !st.patched {
			restore = 1
		}
		rt.Tracer.Emit(trace.KindPatchSite, st.desc.Addr, uint64(st.size), restore)
	}
	return nil
}

// readSiteWindow reads the bytes of a call site; a site at the very
// end of the text mapping may be shorter than the widest patch unit,
// so a failed wide read falls back to the direct-call width.
func readSiteWindow(p Platform, addr uint64) ([]byte, error) {
	window := make([]byte, isa.MemCallSiteLen)
	if err := p.Read(addr, window); err == nil {
		return window, nil
	}
	window = window[:isa.CallSiteLen]
	if err := p.Read(addr, window); err != nil {
		return nil, fmt.Errorf("core: reading call site %#x: %w", addr, err)
	}
	return window, nil
}

// installAt points every call site in sites at target. A tiny
// straight-line body is inlined into the sites instead (paper §4).
func (rt *Runtime) installAt(sites []*siteState, target uint64, body []byte) error {
	var inlined []byte
	if payload, ok := inlinePayload(body); ok && !rt.DisableInlining {
		inlined = encodePatched(payload)
	}
	for _, st := range sites {
		if inlined != nil {
			if err := rt.patchSite(st, inlined); err != nil {
				return err
			}
			rt.Stats.SitesInlined++
			continue
		}
		rel, err := isa.CallRel(st.desc.Addr, target)
		if err != nil {
			return err
		}
		enc := isa.EncodeCall(rel)
		if err := rt.patchSite(st, enc[:]); err != nil {
			return err
		}
		rt.Stats.SitesPatched++
	}
	return nil
}

// revertSites restores the original call instructions of sites.
func (rt *Runtime) revertSites(sites []*siteState) error {
	for _, st := range sites {
		if !st.patched {
			continue
		}
		if err := rt.patchSite(st, st.original[:st.size]); err != nil {
			return err
		}
		rt.Stats.SitesReverted++
	}
	return nil
}

// allPatched reports whether every site in sites has been rewritten.
func allPatched(sites []*siteState) bool {
	for _, st := range sites {
		if !st.patched {
			return false
		}
	}
	return true
}

// patchPrologue redirects the generic function's entry to the variant,
// so calls the compiler could not see (function pointers, assembly)
// still reach the committed variant — the completeness argument of
// §7.4.
func (rt *Runtime) patchPrologue(fs *funcState, v *VariantDesc) error {
	if fs.fd.Size < isa.CallSiteLen {
		return fmt.Errorf("core: generic %q too small to patch (%d bytes)", fs.fd.Name, fs.fd.Size)
	}
	if !fs.prologueOn {
		if err := rt.plat.Read(fs.fd.Generic, fs.savedPrologue[:]); err != nil {
			return err
		}
	}
	rel := int64(v.Addr) - int64(fs.fd.Generic+5)
	if rel != int64(int32(rel)) {
		return fmt.Errorf("core: variant of %q out of jump range", fs.fd.Name)
	}
	cur, jmp := rt.buf.read[:isa.CallSiteLen], rt.buf.write[:isa.CallSiteLen]
	if err := rt.plat.Read(fs.fd.Generic, cur); err != nil {
		return err
	}
	enc := isa.EncodeJmp(int32(rel))
	copy(jmp, enc[:])
	if err := rt.writeText(fs.fd.Generic, cur, jmp); err != nil {
		return err
	}
	prevOn := fs.prologueOn
	rt.noteUndo(func() { fs.prologueOn = prevOn })
	rt.plat.FlushICache(fs.fd.Generic, isa.CallSiteLen)
	fs.prologueOn = true
	rt.Stats.ProloguePatch++
	if rt.Tracer != nil {
		rt.Tracer.EmitName(trace.KindProloguePatch, fs.fd.Generic, v.Addr, 0, fs.fd.Name)
	}
	return nil
}

func (rt *Runtime) restorePrologue(fs *funcState) error {
	if !fs.prologueOn {
		return nil
	}
	cur := rt.buf.read[:isa.CallSiteLen]
	if err := rt.plat.Read(fs.fd.Generic, cur); err != nil {
		return err
	}
	if err := rt.writeText(fs.fd.Generic, cur, fs.savedPrologue[:]); err != nil {
		return err
	}
	rt.noteUndo(func() { fs.prologueOn = true })
	rt.plat.FlushICache(fs.fd.Generic, isa.CallSiteLen)
	fs.prologueOn = false
	if rt.Tracer != nil {
		rt.Tracer.EmitName(trace.KindPrologueRestore, fs.fd.Generic, 0, 0, fs.fd.Name)
	}
	return nil
}

// funcTarget is the variant an operation of kind k binds fs to. A
// commit picks the variant matching the current switch values, or nil
// when none does: the generic stays, the situation Figure 3d signals
// to the user. A revert binds the generic.
func (rt *Runtime) funcTarget(fs *funcState, k opKind) (*VariantDesc, error) {
	if k == opRevert {
		return nil, nil
	}
	v, err := rt.selectVariant(fs.fd)
	if err == nil && v == nil {
		rt.Stats.GenericSignals++
	}
	return v, err
}

// bind binds fs to v, or to the generic when v is nil, under the
// activeness policy; k is the operation a deferral queues. It returns
// bindBound or bindGeneric for the binding now in place, or
// bindDeferred when the running body was live on a CPU stack and the
// operation was queued for DrainDeferred.
func (rt *Runtime) bind(fs *funcState, v *VariantDesc, k opKind) (bindStatus, error) {
	done := bindBound
	if v == nil {
		done = bindGeneric
	}
	if fs.committed == v && (v == nil || rt.PrologueOnly || allPatched(rt.sites[fs.fd.Generic])) {
		// Already bound right; a queued deferred operation is stale. A
		// site a module added since the commit still calls the generic,
		// so it makes the variant rebind.
		rt.purgeDeferred(fs)
		return done, nil
	}
	// Rebinding tears down live patches, which is only safe when the
	// running body is not executing, or when its frames can be
	// transferred to the new body.
	deferred, plan, err := rt.checkActive(fs, k, v)
	if err != nil {
		return bindGeneric, err
	}
	if deferred {
		return bindDeferred, nil
	}
	prev := fs.committed
	rt.metrics.noteBinding(fs.fd, v)
	rt.noteUndo(func() { rt.metrics.noteBinding(fs.fd, prev) })
	// Repoint call sites first, then the prologue; both are idempotent
	// with respect to the saved originals.
	sites := rt.sites[fs.fd.Generic]
	switch {
	case v == nil || rt.PrologueOnly:
		err = rt.revertSites(sites)
	case len(sites) > 0:
		body := make([]byte, v.Size)
		if err = rt.plat.Read(v.Addr, body); err == nil {
			err = rt.installAt(sites, v.Addr, body)
		}
	}
	if err != nil {
		return bindGeneric, err
	}
	if v != nil {
		err = rt.patchPrologue(fs, v)
	} else {
		err = rt.restorePrologue(fs)
	}
	if err != nil {
		return bindGeneric, err
	}
	if plan != nil {
		// The text now routes into the new body; move the live frames
		// over too, inside the same transaction.
		if err := rt.osrApply(plan); err != nil {
			return bindGeneric, err
		}
	}
	rt.noteUndo(func() { fs.committed = prev })
	fs.committed = v
	rt.purgeDeferred(fs)
	return done, nil
}

// ptrTarget is the target an operation of kind k binds a pointer
// switch to. A commit takes the pointer's current value; an unset
// pointer cannot be bound, so the indirect call stays and the commit
// signals. A revert restores the indirect call (target 0).
func (rt *Runtime) ptrTarget(ps *fnptrState, k opKind) (uint64, error) {
	if k == opRevert {
		return 0, nil
	}
	val, err := rt.readPointer(ps.vd.Addr)
	if err == nil && val == 0 {
		rt.Stats.GenericSignals++
	}
	return val, err
}

// bindPtr installs target into every call site of a function-pointer
// switch as a direct call (paper §4: "when such a function pointer is
// committed, we reuse the patching mechanism"), or restores the
// indirect calls when target is 0. Like the kernel's PV-Ops patcher, it
// inlines a trivial target body straight into the sites; the body
// length is unknown for plain pointers, so it reads a small window and
// lets the decoder find the RET.
func (rt *Runtime) bindPtr(ps *fnptrState, target uint64) error {
	sites := rt.sites[ps.vd.Addr]
	if !ps.committed && target == 0 || ps.committed && ps.target == target && allPatched(sites) {
		return nil // already bound right, unless a module added a site since
	}
	var err error
	if target == 0 {
		err = rt.revertSites(sites)
	} else {
		window := make([]byte, 64)
		if rt.plat.Read(target, window) != nil {
			window = nil // an unreadable target is called, not inlined
		}
		err = rt.installAt(sites, target, window)
	}
	if err != nil {
		return err
	}
	prevC, prevT := ps.committed, ps.target
	rt.noteUndo(func() { ps.committed, ps.target = prevC, prevT })
	ps.committed = target != 0
	if target != 0 {
		ps.target = target
	}
	return nil
}

func (rt *Runtime) readPointer(addr uint64) (uint64, error) {
	var buf [8]byte
	if err := rt.plat.Read(addr, buf[:]); err != nil {
		return 0, err
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	return v, nil
}

// CommitResult summarizes one commit operation.
type CommitResult struct {
	Committed int // functions / pointers bound to a variant
	Generic   int // functions left on their generic implementation
	Deferred  int // rebindings queued because the function was active
}

// tally counts one binding's outcome.
func (r *CommitResult) tally(st bindStatus) {
	switch st {
	case bindBound:
		r.Committed++
	case bindDeferred:
		r.Deferred++
	default:
		r.Generic++
	}
}

// emitSwitchValues records the current value of every configuration
// switch at the start of a commit span, so a trace shows *why* the
// runtime picked the variants it did.
func (rt *Runtime) emitSwitchValues() {
	for i := range rt.desc.Vars {
		vd := &rt.desc.Vars[i]
		if vd.FnPtr {
			if ptr, err := rt.readPointer(vd.Addr); err == nil {
				rt.Tracer.EmitName(trace.KindSwitchValue, vd.Addr, ptr, 1, vd.Name)
			}
			continue
		}
		if val, err := rt.readSwitch(vd); err == nil {
			rt.Tracer.EmitName(trace.KindSwitchValue, vd.Addr, uint64(val), 0, vd.Name)
		}
	}
}

// op is one public operation: a commit or a revert of the functions and
// pointer switches it selects. Its Begin/End events carry addr and
// name: 0 for Commit and Revert, the switch for the *Refs forms, the
// generic and its name for the *Func forms.
type op struct {
	kind   opKind
	addr   uint64
	name   string
	values bool // trace every switch value after Begin
	funcs  []*funcState
	ptrs   []*fnptrState
}

// Commit inspects all multiversed variables, selects optimized
// variants and installs them (Table 1: multiverse_commit).
//
// Commit is transactional: if any step fails, the process image is
// rolled back byte-identical to its pre-commit state and the error
// wraps ErrCommitAborted. A zero CommitResult is returned in that
// case — nothing stayed committed.
func (rt *Runtime) Commit() (CommitResult, error) {
	return rt.run(op{values: true, funcs: rt.funcs, ptrs: rt.ptrOrder})
}

// Revert restores the original process image everywhere
// (Table 1: multiverse_revert). Each function (and pointer switch)
// reverts in its own transaction: one failed revert rolls that
// function back and moves on to the next, so a single bad page cannot
// pin every other binding. The joined errors report every failure.
func (rt *Runtime) Revert() error {
	_, err := rt.run(op{kind: opRevert, funcs: rt.funcs, ptrs: rt.ptrOrder})
	return err
}

// CommitFunc commits a single function identified by its generic
// address (Table 1: multiverse_commit_func).
func (rt *Runtime) CommitFunc(generic uint64) (bool, error) {
	o, err := rt.funcOp(opCommit, generic)
	if err != nil {
		return false, err
	}
	res, err := rt.run(o)
	return res.Committed == 1, err
}

// RevertFunc reverts a single function (Table 1: multiverse_revert_func).
func (rt *Runtime) RevertFunc(generic uint64) error {
	o, err := rt.funcOp(opRevert, generic)
	if err != nil {
		return err
	}
	_, err = rt.run(o)
	return err
}

// CommitRefs commits every function that references the given switch
// (Table 1: multiverse_commit_refs).
func (rt *Runtime) CommitRefs(varAddr uint64) (CommitResult, error) {
	o, err := rt.refsOp(opCommit, varAddr)
	if err != nil {
		return CommitResult{}, err
	}
	return rt.run(o)
}

// RevertRefs reverts every function that references the given switch
// (Table 1: multiverse_revert_refs).
func (rt *Runtime) RevertRefs(varAddr uint64) error {
	o, err := rt.refsOp(opRevert, varAddr)
	if err != nil {
		return err
	}
	_, err = rt.run(o)
	return err
}

// funcOp selects one function by its generic address.
func (rt *Runtime) funcOp(k opKind, generic uint64) (op, error) {
	fs, ok := rt.byGeneric[generic]
	if !ok {
		return op{}, fmt.Errorf("core: %#x is not a multiversed function", generic)
	}
	return op{kind: k, addr: generic, name: fs.fd.Name, funcs: []*funcState{fs}}, nil
}

// refsOp selects a pointer switch, or every function that references a
// configuration switch.
func (rt *Runtime) refsOp(k opKind, varAddr uint64) (op, error) {
	o := op{kind: k, addr: varAddr, values: k == opCommit}
	if ps, ok := rt.fnptrs[varAddr]; ok {
		o.ptrs = []*fnptrState{ps}
		return o, nil
	}
	if _, known := rt.varsByAddr[varAddr]; !known {
		return op{}, fmt.Errorf("core: %#x is not a configuration switch", varAddr)
	}
	for _, fs := range rt.funcs {
		if refersTo(fs.fd, varAddr) {
			o.funcs = append(o.funcs, fs)
		}
	}
	return o, nil
}

// refersTo reports whether any variant of fd guards on the switch.
func refersTo(fd *FuncDesc, varAddr uint64) bool {
	for _, v := range fd.Variants {
		for _, g := range v.Guards {
			if g.VarAddr == varAddr {
				return true
			}
		}
	}
	return false
}

// run performs one public operation. A commit binds its whole selection
// in one transaction, all or nothing. A revert gives each function and
// pointer switch a transaction of its own and joins their errors.
func (rt *Runtime) run(o op) (CommitResult, error) {
	begin, end := trace.KindCommitBegin, trace.KindCommitEnd
	if o.kind == opRevert {
		begin, end = trace.KindRevertBegin, trace.KindRevertEnd
		rt.Stats.Reverts++
	} else {
		rt.Stats.Commits++
		if done := rt.metrics.beginCommit(rt); done != nil {
			defer done()
		}
	}
	// Open the causality span before the Begin event and close it after
	// the deferred End event (defers run newest-first), so both carry it.
	if reset := rt.beginOpSpan(); reset != nil {
		defer reset()
	}
	var res CommitResult
	if rt.Tracer != nil {
		rt.Tracer.EmitName(begin, o.addr, 0, 0, o.name)
		if o.values {
			rt.emitSwitchValues()
		}
		defer func() {
			rt.Tracer.EmitName(end, o.addr, uint64(res.Committed), uint64(res.Generic), o.name)
		}()
	}
	if o.kind == opCommit {
		var err error
		if res, err = rt.transact(opCommit, o.funcs, o.ptrs); err != nil {
			res = CommitResult{}
		}
		return res, err
	}
	var errs []error
	for i, fs := range o.funcs {
		if _, err := rt.transact(opRevert, o.funcs[i:i+1], nil); err != nil {
			errs = append(errs, fmt.Errorf("core: reverting %q: %w", fs.fd.Name, err))
		}
	}
	for i, ps := range o.ptrs {
		if _, err := rt.transact(opRevert, nil, o.ptrs[i:i+1]); err != nil {
			errs = append(errs, fmt.Errorf("core: reverting switch %q: %w", ps.vd.Name, err))
		}
	}
	return res, errors.Join(errs...)
}

// transact binds funcs and ptrs for an operation of kind k in one
// guarded transaction, its journal sized from the call sites and
// prologues they can touch, and tallies the outcomes.
func (rt *Runtime) transact(k opKind, funcs []*funcState, ptrs []*fnptrState) (CommitResult, error) {
	ranges := len(funcs) // one prologue each
	for _, fs := range funcs {
		ranges += len(rt.sites[fs.fd.Generic])
	}
	for _, ps := range ptrs {
		ranges += len(rt.sites[ps.vd.Addr])
	}
	var res CommitResult
	t := rt.beginTxn(ranges, len(funcs)+len(ptrs))
	err := rt.runGuarded(func() error {
		for _, fs := range funcs {
			v, err := rt.funcTarget(fs, k)
			if err != nil {
				return err
			}
			st, err := rt.bind(fs, v, k)
			if err != nil {
				return err
			}
			res.tally(st)
		}
		for _, ps := range ptrs {
			target, err := rt.ptrTarget(ps, k)
			if err != nil {
				return err
			}
			if err := rt.bindPtr(ps, target); err != nil {
				return err
			}
			if target != 0 {
				res.tally(bindBound)
			} else {
				res.tally(bindGeneric)
			}
		}
		return nil
	})
	return res, rt.endTxn(t, err)
}
