package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/codegen"
	"repro/internal/isa"
	"repro/internal/machine"
)

// On-stack replacement (OSR): committing *into* an active function.
//
// The defer/refuse policies treat a function whose body is live on a
// CPU stack as unpatchable. ActiveOSR instead transfers every live
// frame of the old body to the equivalent point of the target body,
// inside the same transaction as the patch:
//
//   - the topmost frame (a CPU paused inside the body) is herded
//     forward to a loop OSR point whose label the target body also
//     carries, then its PC and SP are rewritten and its spilled slots
//     moved to the target's frame layout;
//   - a waiting frame (the body called out and awaits return) has its
//     on-stack return address rewritten to the matching call OSR point
//     of the target, plus the same slot moves.
//
// Every stack write goes through the undo journal (writeTextDirect)
// and every register rewrite registers an undo closure, so an abort
// anywhere mid-transfer restores a byte- and register-identical
// machine. When no safe mapping exists the operation falls back to the
// deferred queue — prepare runs before any byte is patched, so
// ineligibility defers cleanly instead of aborting.

// osrHerdMaxSteps bounds how many instructions one CPU may be stepped
// toward a mapped loop OSR point. Loop bodies re-reach their back-edge
// every iteration, so the bound only turns a wedged CPU into an error.
const osrHerdMaxSteps = 4096

// osrStackScanWords bounds the conservative cross-check scan; matches
// the machine-level activeness scan bound.
const osrStackScanWords = 8192

// osrMaxFrames bounds the saved-FP chain walk.
const osrMaxFrames = 4096

// osrPlan carries one validated frame-transfer plan from checkActive
// (before any patching) to osrApply (after the prologue patch, same
// transaction).
type osrPlan struct {
	fs      *funcState
	oldLo   uint64 // currently-running body (committed variant or generic)
	oldHi   uint64
	newBase uint64 // target body (variant being committed, or generic on revert)
	oldDesc *OSRFuncDesc
	newDesc *OSRFuncDesc

	herdCycles uint64 // cycles burned herding victims during prepare
}

// osrTransfer is one located live frame of the old body.
type osrTransfer struct {
	oc      machine.OSRCPU
	waiting bool
	wa      uint64 // waiting: stack address of the return-address word
	fp      uint64 // frame base (the FP value of the old function's frame)
	oldPt   *OSRPointDesc
	newPt   *OSRPointDesc
}

// osrPrepare validates that every live frame of fs's current body can
// be transferred to the target body (nil target = the generic), herding
// paused CPUs to mapped loop points on the way. It runs before any
// byte is patched: an error here means the operation falls back to the
// deferred queue, with the image untouched.
func (rt *Runtime) osrPrepare(fs *funcState, target *VariantDesc) (*osrPlan, error) {
	p := &osrPlan{fs: fs}
	p.oldLo, p.oldHi = fs.fd.Generic, fs.fd.Generic+fs.fd.Size
	if v := fs.committed; v != nil {
		p.oldLo, p.oldHi = v.Addr, v.Addr+v.Size
	}
	p.newBase = fs.fd.Generic
	if target != nil {
		p.newBase = target.Addr
	}
	p.oldDesc = rt.desc.OSR[p.oldLo]
	p.newDesc = rt.desc.OSR[p.newBase]
	if p.oldDesc == nil || p.newDesc == nil {
		return nil, fmt.Errorf("core: %q: missing OSR metadata", fs.fd.Name)
	}
	// Frame transfer needs a real frame on both sides: FP must base the
	// old frame (to find slots) and the new layout (to re-derive SP).
	if !p.oldDesc.HasFrame || !p.newDesc.HasFrame {
		return nil, fmt.Errorf("core: %q: frameless body cannot take a frame transfer", fs.fd.Name)
	}
	if p.oldDesc.NoScratch || p.newDesc.NoScratch {
		return nil, fmt.Errorf("core: %q: non-standard register discipline", fs.fd.Name)
	}
	// Every slot the target body reads must have a source in the old
	// frame (the cloner preserves Name#Seq keys across variants).
	for key := range p.newDesc.Slots {
		if _, ok := p.oldDesc.Slots[key]; !ok {
			return nil, fmt.Errorf("core: %q: target slot %q has no source in the running frame", fs.fd.Name, key)
		}
	}
	endPhase := rt.phase("osr-herd")
	lat, err := rt.osrHerdAll(p)
	p.herdCycles += lat
	endPhase()
	if err != nil {
		return nil, err
	}
	if _, err := rt.osrLocate(p); err != nil {
		return nil, err
	}
	return p, nil
}

// osrHerdAll steps every CPU paused inside the old body forward until
// it rests on a loop OSR point that maps into the target body (or it
// leaves the body, which needs no topmost transfer). Herding is plain
// forward execution, so it is safe even if the operation later defers
// or aborts. Returns the cycles burned stepping.
func (rt *Runtime) osrHerdAll(p *osrPlan) (uint64, error) {
	var lat uint64
	for _, oc := range rt.plat.OSRCPUs() {
		c := oc.CPU
		start := c.Cycles()
		for tries := 0; ; tries++ {
			if c.Halted() {
				break
			}
			pc := c.PC()
			if pc < p.oldLo || pc >= p.oldHi {
				break
			}
			if pt := p.oldDesc.PointAt(uint32(pc - p.oldLo)); pt != nil && pt.Kind == codegen.OSRPointLoop &&
				p.newDesc.Point(pt.Label, codegen.OSRPointLoop) != nil {
				break
			}
			if tries >= osrHerdMaxSteps {
				lat += c.Cycles() - start
				return lat, fmt.Errorf("core: %q: cpu %d reached no mapped OSR point after %d steps (pc=%#x)",
					p.fs.fd.Name, oc.Index, osrHerdMaxSteps, pc)
			}
			if err := c.Step(); err != nil {
				if faultTransient(err) {
					continue // spurious fault: nothing retired, retry
				}
				lat += c.Cycles() - start
				return lat, fmt.Errorf("core: %q: cpu %d while herding to an OSR point: %w",
					p.fs.fd.Name, oc.Index, err)
			}
		}
		lat += c.Cycles() - start
	}
	return lat, nil
}

// osrLocate finds every live frame of the old body and pairs it with
// its target OSR point. Topmost frames must already rest on a mapped
// loop point (osrHerdAll ran). Waiting frames are found by walking the
// saved-FP chain — [fp] holds the caller's FP, [fp+8] the return
// address into the caller — which, unlike the conservative scan, never
// mistakes spilled data for a return address. The conservative scan
// still runs as a cross-check: any old-body candidate it reports that
// the chain walk did not explain fails the plan (better to defer than
// to rewrite a frame the walk missed).
func (rt *Runtime) osrLocate(p *osrPlan) ([]osrTransfer, error) {
	var out []osrTransfer
	name := p.fs.fd.Name
	for _, oc := range rt.plat.OSRCPUs() {
		c := oc.CPU
		sp := c.Reg(isa.SP)
		found := make(map[uint64]bool)

		pc := c.PC()
		if pc >= p.oldLo && pc < p.oldHi {
			pt := p.oldDesc.PointAt(uint32(pc - p.oldLo))
			if pt == nil || pt.Kind != codegen.OSRPointLoop {
				return nil, fmt.Errorf("core: %q: cpu %d paused at %#x, not a loop OSR point", name, oc.Index, pc)
			}
			npt := p.newDesc.Point(pt.Label, codegen.OSRPointLoop)
			if npt == nil {
				return nil, fmt.Errorf("core: %q: loop label %d has no point in the target body", name, pt.Label)
			}
			fp := c.Reg(codegen.FP)
			// At a loop point the expression stack is empty, so SP sits
			// exactly one frame below FP.
			if fp != sp+uint64(p.oldDesc.FrameSize) {
				return nil, fmt.Errorf("core: %q: cpu %d frame geometry mismatch (fp=%#x sp=%#x frame=%d)",
					name, oc.Index, fp, sp, p.oldDesc.FrameSize)
			}
			out = append(out, osrTransfer{oc: oc, fp: fp, oldPt: pt, newPt: npt})
		}

		// Saved-FP chain walk for waiting frames.
		readWord := func(addr uint64) (uint64, error) {
			var b [8]byte
			if err := rt.plat.Read(addr, b[:]); err != nil {
				return 0, err
			}
			return binary.LittleEndian.Uint64(b[:]), nil
		}
		f := c.Reg(codegen.FP)
		for n := 0; n < osrMaxFrames; n++ {
			if f < sp || f+16 > oc.StackTop || f&7 != 0 {
				break
			}
			ra, err := readWord(f + 8)
			if err != nil || ra == oc.HaltAddr {
				break
			}
			caller, err := readWord(f)
			if err != nil {
				break
			}
			if ra >= p.oldLo && ra < p.oldHi {
				wa := f + 8
				pt := p.oldDesc.PointAt(uint32(ra - p.oldLo))
				if pt == nil || pt.Kind != codegen.OSRPointCall {
					return nil, fmt.Errorf("core: %q: cpu %d waits at %#x, not a call OSR point", name, oc.Index, ra)
				}
				if pt.RegMsk != 0 {
					return nil, fmt.Errorf("core: %q: call point %d holds live temporaries across the call", name, pt.Label)
				}
				npt := p.newDesc.Point(pt.Label, codegen.OSRPointCall)
				if npt == nil {
					return nil, fmt.Errorf("core: %q: call label %d has no point in the target body", name, pt.Label)
				}
				if npt.RegMsk != 0 {
					return nil, fmt.Errorf("core: %q: target call point %d holds live temporaries", name, pt.Label)
				}
				// A waiting frame resumes with SP = wa+8: the target
				// layout must fit inside the old one.
				if p.newDesc.FrameSize > p.oldDesc.FrameSize {
					return nil, fmt.Errorf("core: %q: target frame (%d bytes) outgrows the waiting frame (%d bytes)",
						name, p.newDesc.FrameSize, p.oldDesc.FrameSize)
				}
				// Cross-derive the frame base: the callee's saved-FP word
				// must agree with the call-site geometry (RegMsk==0 means
				// nothing was pushed between frame setup and the call).
				if caller != wa+8+uint64(p.oldDesc.FrameSize) {
					return nil, fmt.Errorf("core: %q: cpu %d waiting-frame base mismatch (saved fp %#x, derived %#x)",
						name, oc.Index, caller, wa+8+uint64(p.oldDesc.FrameSize))
				}
				found[wa] = true
				out = append(out, osrTransfer{oc: oc, waiting: true, wa: wa, fp: caller, oldPt: pt, newPt: npt})
			}
			if caller <= f {
				break
			}
			f = caller
		}

		// Cross-check: the conservative scan must not report an old-body
		// return address the chain walk did not explain.
		sites, complete := c.StackReturnSites(oc.StackTop, oc.HaltAddr, osrStackScanWords)
		if !complete {
			return nil, fmt.Errorf("core: %q: cpu %d stack scan truncated; cannot enumerate frames", name, oc.Index)
		}
		for _, s := range sites {
			if s.Value >= p.oldLo && s.Value < p.oldHi && !found[s.Addr] {
				return nil, fmt.Errorf("core: %q: cpu %d has an unexplained candidate return address %#x at %#x",
					name, oc.Index, s.Value, s.Addr)
			}
		}
	}
	return out, nil
}

// osrApply performs the frame transfers of a prepared plan. It runs
// after the patch (same transaction): victims may have drifted since
// prepare (poke-mode herding steps CPUs out of patch windows), so the
// frames are herded and located afresh. An error aborts the enclosing
// transaction, which restores every rewritten frame.
func (rt *Runtime) osrApply(p *osrPlan) error {
	endPhase := rt.phase("osr-transfer")
	defer endPhase()
	lat, err := rt.osrHerdAll(p)
	rt.metrics.observeOSR(p.herdCycles + lat)
	if err != nil {
		return err
	}
	xfers, err := rt.osrLocate(p)
	if err != nil {
		return err
	}
	for _, x := range xfers {
		if err := rt.osrTransferFrame(p, x); err != nil {
			return err
		}
	}
	return nil
}

// osrTransferFrame rewrites one frame: slot moves through the journal,
// then the control state (PC+SP for a topmost frame, the on-stack
// return address for a waiting one).
func (rt *Runtime) osrTransferFrame(p *osrPlan, x osrTransfer) error {
	name := p.fs.fd.Name
	// Any rollback from here on tears this frame back down.
	rt.noteUndo(func() { rt.Stats.OSRRollbacks++ })

	// Move slots in deterministic order, reading every source before
	// writing any destination — the two layouts overlap in the frame.
	keys := make([]string, 0, len(p.newDesc.Slots))
	for k := range p.newDesc.Slots {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type move struct {
		dst uint64
		val [8]byte
	}
	var moves []move
	for _, key := range keys {
		noff, ooff := p.newDesc.Slots[key], p.oldDesc.Slots[key]
		if noff == ooff {
			continue
		}
		var val [8]byte
		if err := rt.plat.Read(x.fp+uint64(int64(ooff)), val[:]); err != nil {
			return fmt.Errorf("core: %q: reading slot %q: %w", name, key, err)
		}
		moves = append(moves, move{dst: x.fp + uint64(int64(noff)), val: val})
	}
	for _, mv := range moves {
		var old [8]byte
		if err := rt.plat.Read(mv.dst, old[:]); err != nil {
			return fmt.Errorf("core: %q: reading slot destination %#x: %w", name, mv.dst, err)
		}
		if old == mv.val {
			continue
		}
		if err := rt.writeTextDirect(mv.dst, old[:], mv.val[:]); err != nil {
			return fmt.Errorf("core: %q: moving slot to %#x: %w", name, mv.dst, err)
		}
	}

	newAddr := p.newBase + uint64(x.newPt.Off)
	if x.waiting {
		var old, nb [8]byte
		if err := rt.plat.Read(x.wa, old[:]); err != nil {
			return fmt.Errorf("core: %q: reading return address at %#x: %w", name, x.wa, err)
		}
		binary.LittleEndian.PutUint64(nb[:], newAddr)
		if err := rt.writeTextDirect(x.wa, old[:], nb[:]); err != nil {
			return fmt.Errorf("core: %q: rewriting return address at %#x: %w", name, x.wa, err)
		}
	} else {
		c := x.oc.CPU
		oldPC, oldSP := c.PC(), c.Reg(isa.SP)
		rt.noteUndo(func() {
			c.SetPC(oldPC)
			c.SetReg(isa.SP, oldSP)
		})
		c.SetPC(newAddr)
		c.SetReg(isa.SP, x.fp-uint64(p.newDesc.FrameSize))
	}
	rt.Stats.OSRTransfers++
	return nil
}
