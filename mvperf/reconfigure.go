package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
)

type ropKind int

const (
	ropCommit ropKind = iota
	ropRevert
	ropCommitFunc
	ropRevertFunc
	ropCommitRefs
	ropRevertRefs
)

// ropSpans names each entry point's span and per-layer latency metric.
var ropSpans = [...]string{"core.commit", "core.revert", "core.commit_func", "core.revert_func", "core.commit_refs", "core.revert_refs"}

// rop is one runtime call of the reconfigure workload.
type rop struct {
	kind ropKind
	fn   int   // CommitFunc/RevertFunc target: 0 spin_lock, 1 spin_unlock
	smp  int64 // config_smp value written before the call; -1 leaves it
	mode core.CommitMode
}

var commitModes = []core.CommitMode{core.ModeParked, core.ModeStopMachine, core.ModeTextPoke}

// reconfigureSequence is one pass: every episode pattern once for each
// config_smp value and commit mode, in seeded order. Every episode
// starts and ends with both functions on their generic bodies, so all
// seeds run the same multiset of ops, each with the same work; the
// seed changes their order.
func reconfigureSequence(seed int64) []rop {
	r := newRNG(seed, streamReconfigure)
	var eps [][]rop
	for pattern := 0; pattern < 5; pattern++ {
		for v := int64(0); v < 2; v++ {
			for _, m := range commitModes {
				eps = append(eps, episode(pattern, v, m, r.intn(2)))
			}
		}
	}
	var seq []rop
	for _, j := range r.perm(len(eps)) {
		seq = append(seq, eps[j]...)
	}
	return seq
}

// episode builds one pattern with config_smp = v, commit mode m, and a
// as the function a per-function pattern binds first.
func episode(pattern int, v int64, m core.CommitMode, a int) []rop {
	o := func(k ropKind, fn int, smp int64) rop { return rop{kind: k, fn: fn, smp: smp, mode: m} }
	b := 1 - a
	switch pattern {
	case 0:
		return []rop{o(ropCommit, 0, v), o(ropRevert, 0, -1)}
	case 1:
		return []rop{o(ropCommitFunc, a, v), o(ropCommitFunc, b, -1), o(ropRevertFunc, a, -1), o(ropRevertFunc, b, -1)}
	case 2:
		return []rop{o(ropCommitRefs, 0, v), o(ropRevertRefs, 0, -1)}
	case 3: // flip config_smp between two whole-program commits
		return []rop{o(ropCommit, 0, v), o(ropCommit, 0, 1-v), o(ropRevert, 0, -1)}
	default: // a whole-program commit and revert over a partial binding
		return []rop{o(ropCommitFunc, a, v), o(ropCommit, 0, -1), o(ropRevertFunc, b, -1), o(ropRevert, 0, -1)}
	}
}

// sweepCalls is how many subsystem functions the guest sweep after each
// op calls through their patched sites.
const sweepCalls = 4

// reconfigureWorkload drives the commit and revert entry points over
// the E7 kernel. An op is one runtime call. The audit and the guest
// sweep that follow it run outside the op's latency; the sweep checks
// the lock word against a host model of which code each function runs.
type reconfigureWorkload struct {
	tr        *tracer
	seq       []rop
	m         *machine.Machine
	rt        *core.Runtime
	codeBytes int
	fns       [2]uint64 // generic spin_lock, spin_unlock
	smpVar    uint64
	lockWord  uint64
	subsys    []string
	model     smpModel
	refs      []ropRef
}

// smpModel is the host model of config_smp: the switch value, and the
// value each function is bound to (-1 while it runs its generic body,
// which reads the switch).
type smpModel struct {
	smp   int64
	bound [2]int64
}

func (s *smpModel) effective(fn int) int64 {
	if s.bound[fn] >= 0 {
		return s.bound[fn]
	}
	return s.smp
}

func (s *smpModel) apply(o rop) {
	switch o.kind {
	case ropCommit, ropCommitRefs:
		s.bound = [2]int64{s.smp, s.smp}
	case ropRevert, ropRevertRefs:
		s.bound = [2]int64{-1, -1}
	case ropCommitFunc:
		s.bound[o.fn] = s.smp
	case ropRevertFunc:
		s.bound[o.fn] = -1
	}
}

type ropRef struct{ work, cycles uint64 }

func (r *reconfigureWorkload) build(seed int64) error {
	r.seq = reconfigureSequence(seed)
	r.refs = make([]ropRef, len(r.seq))
	img, _, _, err := buildImage(r.tr, core.Source{Name: "bigkernel", Text: e7Kernel(paperCallSites)})
	if err != nil {
		return err
	}
	r.codeBytes = imageBytes(img)
	if r.m, r.rt, err = boot(r.tr, img); err != nil {
		return err
	}
	// A function bound to the SMP lock but the UP unlock leaves the lock
	// held; the sweep resets it, but a model bug would spin forever.
	r.m.MaxSteps = 1 << 22
	for i, name := range []string{"spin_lock", "spin_unlock"} {
		addr, ok := r.rt.FuncByName(name)
		if !ok {
			return fmt.Errorf("no multiversed function %q", name)
		}
		r.fns[i] = addr
	}
	var ok bool
	if r.smpVar, ok = r.rt.VarByName("config_smp"); !ok {
		return fmt.Errorf("no switch config_smp")
	}
	if r.lockWord, err = r.m.Symbol("lock_word"); err != nil {
		return err
	}
	for i := 0; i < (paperCallSites+1)/2; i++ {
		r.subsys = append(r.subsys, fmt.Sprintf("subsys_%d", i))
	}
	r.model = smpModel{bound: [2]int64{-1, -1}}
	return nil
}

func (r *reconfigureWorkload) passLen() int { return len(r.seq) }

func (r *reconfigureWorkload) op(i int) (opStat, error) {
	o := r.seq[i%len(r.seq)]
	if o.smp >= 0 {
		if err := setSwitch(r.m, r.rt, "config_smp", o.smp); err != nil {
			return opStat{}, err
		}
		r.model.smp = o.smp
	}
	r.rt.SetCommitOptions(core.CommitOptions{Mode: o.mode})
	stats, mem := r.rt.Stats, r.m.Mem.Stats
	start := time.Now()
	err := r.tr.do(ropSpans[o.kind], func() error { return r.call(o) })
	st := opStat{latency: time.Since(start)}
	if err != nil {
		return st, fmt.Errorf("%s (%v): %w", ropSpans[o.kind], o.mode, err)
	}
	r.model.apply(o)
	s, dm := r.rt.Stats, r.m.Mem.Stats.Sub(mem)
	sites := uint64(s.SitesPatched - stats.SitesPatched + s.SitesInlined - stats.SitesInlined +
		s.SitesReverted - stats.SitesReverted + s.ProloguePatch - stats.ProloguePatch)
	got := ropRef{
		work:   sites,
		cycles: dm.ProtectCalls*core.CostCommitProtect + dm.Flushes*core.CostCommitFlush + sites*core.CostCommitSite,
	}
	st.work = float64(got.work)
	if err := r.tr.do("core.audit", r.rt.Audit); err != nil {
		return st, fmt.Errorf("audit after %s: %w", ropSpans[o.kind], err)
	}
	if err := r.tr.do("machine.sweep", func() error { return r.sweep(i) }); err != nil {
		return st, fmt.Errorf("sweep after %s: %w", ropSpans[o.kind], err)
	}
	ref := &r.refs[i%len(r.seq)]
	if i < len(r.seq) {
		*ref = got
	} else if got != *ref {
		return st, fmt.Errorf("%s rewrote %d sites in %d modeled cycles, the reference pass %d in %d",
			ropSpans[o.kind], got.work, got.cycles, ref.work, ref.cycles)
	}
	return st, nil
}

func (r *reconfigureWorkload) call(o rop) error {
	var err error
	switch o.kind {
	case ropCommit:
		_, err = r.rt.Commit()
	case ropRevert:
		err = r.rt.Revert()
	case ropCommitFunc:
		_, err = r.rt.CommitFunc(r.fns[o.fn])
	case ropRevertFunc:
		err = r.rt.RevertFunc(r.fns[o.fn])
	case ropCommitRefs:
		_, err = r.rt.CommitRefs(r.smpVar)
	case ropRevertRefs:
		err = r.rt.RevertRefs(r.smpVar)
	}
	return err
}

// sweep calls a few subsystem functions through their patched call
// sites, then the generic spin_lock and spin_unlock through their
// patched prologues, and checks the lock word and preemption count
// against the host model after each call.
func (r *reconfigureWorkload) sweep(i int) error {
	lock, unlock := uint64(r.model.effective(0)), uint64(r.model.effective(1))
	// The functions depend on the op's place in the pass, so every pass
	// leaves the same code cached.
	pos := i % len(r.seq)
	for k := 0; k < sweepCalls; k++ {
		fn := r.subsys[(pos*sweepCalls+k*131)%len(r.subsys)]
		if err := r.reset(); err != nil {
			return err
		}
		if _, err := call(r.tr, r.m, fn); err != nil {
			return err
		}
		// Only an SMP lock paired with a UP unlock leaves the lock held.
		if err := r.expect(fn, lock&^unlock, 0); err != nil {
			return err
		}
	}
	if err := r.reset(); err != nil {
		return err
	}
	if _, err := call(r.tr, r.m, "spin_lock", r.lockWord); err != nil {
		return err
	}
	if err := r.expect("spin_lock", lock, 1); err != nil {
		return err
	}
	if _, err := call(r.tr, r.m, "spin_unlock", r.lockWord); err != nil {
		return err
	}
	return r.expect("spin_unlock", lock&^unlock, 0)
}

func (r *reconfigureWorkload) reset() error {
	if err := r.m.WriteGlobal("lock_word", 8, 0); err != nil {
		return err
	}
	return r.m.WriteGlobal("preempt_count", 8, 0)
}

func (r *reconfigureWorkload) expect(fn string, lock, preempt uint64) error {
	l, err := r.m.ReadGlobal("lock_word", 8)
	if err != nil {
		return err
	}
	p, err := r.m.ReadGlobal("preempt_count", 8)
	if err != nil {
		return err
	}
	if l != lock || p != preempt {
		return fmt.Errorf("after %s lock_word = %d, preempt_count = %d; the model of config_smp wants %d, %d", fn, l, p, lock, preempt)
	}
	return nil
}

func (r *reconfigureWorkload) simCyclesPerOp() float64 {
	cycles := make([]float64, len(r.refs))
	for i, ref := range r.refs {
		cycles[i] = float64(ref.cycles)
	}
	return geomean(cycles)
}

func (r *reconfigureWorkload) reference() string {
	var b strings.Builder
	for _, ref := range r.refs {
		fmt.Fprintf(&b, "%d/%d ", ref.work, ref.cycles)
	}
	return b.String()
}

func (r *reconfigureWorkload) layers(cum, fixed counts) {
	addMachine(cum, r.m)
	addRuntime(cum, r.rt)
	fixed["code_bytes"] = float64(r.codeBytes)
}
