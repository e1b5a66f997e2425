package core

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Audit walks the descriptor tables and checks that the live text
// image is exactly what the runtime believes it installed — the
// "fsck for the process image" counterpart of the transactional
// commit layer. It verifies:
//
//   - every call site's memory matches the runtime's shadow copy
//     (no torn rel32, no third-party modification),
//   - every patched direct call targets the callee's generic, one of
//     its variants, or — for pointer sites — the committed pointer
//     target, and inlined payloads decode as straight-line code,
//   - pages holding sites, prologues and variants are executable and
//     not writable (no stranded protection flip),
//   - every committed function has its prologue redirected to exactly
//     the committed variant, and every uncommitted one has its
//     original prologue bytes in place.
//
// Audit never mutates state and is safe to call at any patchable
// point: after a commit, after a rollback (endTxn calls it), from
// mvrun -audit, or between chaos operations. It returns nil when the
// image is consistent, or every violation joined into one error.
func (rt *Runtime) Audit() error {
	var errs []error
	for _, fs := range rt.funcs {
		if sites := rt.sites[fs.fd.Generic]; len(sites) > 0 {
			targets := rt.siteTargets(fs)
			for _, st := range sites {
				if err := rt.auditSite(st, targets); err != nil {
					errs = append(errs, err)
				}
			}
		}
		if err := rt.auditPrologue(fs); err != nil {
			errs = append(errs, err)
		}
		for i := range fs.fd.Variants {
			if err := rt.auditProt("variant", fs.fd.Variants[i].Addr); err != nil {
				errs = append(errs, err)
			}
		}
	}
	for _, ps := range rt.ptrOrder {
		var targets map[uint64]bool
		if ps.committed {
			targets = map[uint64]bool{ps.target: true}
		}
		for _, st := range rt.sites[ps.vd.Addr] {
			if err := rt.auditSite(st, targets); err != nil {
				errs = append(errs, err)
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		// An inconsistent image is a flight-dump moment: the ring holds
		// the operations that led here.
		rt.noteFailure("audit-failure")
		return err
	}
	return nil
}

// siteTargets is the set of addresses a direct call installed at one
// of fs's sites may legally target.
func (rt *Runtime) siteTargets(fs *funcState) map[uint64]bool {
	t := map[uint64]bool{fs.fd.Generic: true}
	for i := range fs.fd.Variants {
		t[fs.fd.Variants[i].Addr] = true
	}
	return t
}

// auditSite checks one call site against the runtime's shadow state.
func (rt *Runtime) auditSite(st *siteState, targets map[uint64]bool) error {
	buf := rt.buf.audit[:st.size]
	if err := rt.plat.Read(st.desc.Addr, buf); err != nil {
		return fmt.Errorf("core: audit: reading site %#x: %w", st.desc.Addr, err)
	}
	if !bytes.Equal(buf, st.current[:st.size]) {
		return fmt.Errorf("core: audit: site %#x holds %x, runtime expects %x (torn or tampered write)",
			st.desc.Addr, buf, st.current[:st.size])
	}
	if st.patched != (st.current != st.original) {
		return fmt.Errorf("core: audit: site %#x patched flag %v disagrees with its bytes",
			st.desc.Addr, st.patched)
	}
	if err := rt.auditProt("site", st.desc.Addr); err != nil {
		return err
	}
	return rt.auditSiteCode(st, buf, targets)
}

// auditSiteCode decodes the installed bytes: the site must hold a
// single call (with a legal target), the pristine original, or a
// straight-line inlined payload padded with NOPs.
func (rt *Runtime) auditSiteCode(st *siteState, buf []byte, targets map[uint64]bool) error {
	if bytes.Equal(buf, st.original[:st.size]) {
		return nil // pristine sites were verified against the descriptor at load
	}
	in, err := isa.Decode(buf)
	if err != nil {
		return fmt.Errorf("core: audit: site %#x holds undecodable bytes %x: %w", st.desc.Addr, buf, err)
	}
	if in.Op == isa.CALL {
		target := st.desc.Addr + isa.CallSiteLen + uint64(in.Imm)
		if !targets[target] {
			return fmt.Errorf("core: audit: site %#x calls %#x, not a variant, generic or committed pointer target",
				st.desc.Addr, target)
		}
		// The tail of a wide (pointer) site must be pure padding.
		return auditPadding(st.desc.Addr, buf[in.Len:])
	}
	// Anything else must be an inlined payload: straight-line
	// instructions, then NOP padding to the end of the patch unit.
	n := 0
	for n < len(buf) {
		in, err := isa.Decode(buf[n:])
		if err != nil {
			return fmt.Errorf("core: audit: site %#x inline payload undecodable at +%d: %w", st.desc.Addr, n, err)
		}
		switch in.Op {
		case isa.BRK:
			// The text-poke protocol plants BRK transiently; a completed
			// (or rolled-back) operation must never leave one behind.
			return fmt.Errorf("core: audit: site %#x holds a residual BRK byte at +%d", st.desc.Addr, n)
		case isa.CALL, isa.CLLR, isa.CLLM, isa.JMP, isa.JCC, isa.RET, isa.HLT:
			return fmt.Errorf("core: audit: site %#x inline payload contains control flow (%v)", st.desc.Addr, in.Op)
		}
		if usesSP(in) {
			return fmt.Errorf("core: audit: site %#x inline payload touches SP", st.desc.Addr)
		}
		n += in.Len
	}
	return nil
}

// auditPadding requires buf to decode as NOPs only.
func auditPadding(site uint64, buf []byte) error {
	n := 0
	for n < len(buf) {
		in, err := isa.Decode(buf[n:])
		if err != nil {
			return fmt.Errorf("core: audit: site %#x padding undecodable at +%d: %w", site, n, err)
		}
		if in.Op == isa.BRK {
			return fmt.Errorf("core: audit: site %#x padding holds a residual BRK byte at +%d", site, n)
		}
		if in.Op != isa.NOP && in.Op != isa.NOPN {
			return fmt.Errorf("core: audit: site %#x padding holds %v, want nop", site, in.Op)
		}
		n += in.Len
	}
	return nil
}

// auditPrologue checks the generic entry of one function: committed
// functions must jump to exactly their committed variant; uncommitted
// ones must not have a lingering redirect.
func (rt *Runtime) auditPrologue(fs *funcState) error {
	if fs.committed == nil && !fs.prologueOn {
		return rt.auditProt("generic", fs.fd.Generic)
	}
	if (fs.committed == nil) != !fs.prologueOn {
		return fmt.Errorf("core: audit: %q committed/prologue state inconsistent (committed=%v prologue=%v)",
			fs.fd.Name, fs.committed != nil, fs.prologueOn)
	}
	var buf [isa.CallSiteLen]byte
	if err := rt.plat.Read(fs.fd.Generic, buf[:]); err != nil {
		return fmt.Errorf("core: audit: reading prologue of %q: %w", fs.fd.Name, err)
	}
	in, err := isa.Decode(buf[:])
	if err != nil {
		return fmt.Errorf("core: audit: prologue of %q undecodable: %w", fs.fd.Name, err)
	}
	if in.Op != isa.JMP {
		return fmt.Errorf("core: audit: prologue of %q holds %v, want jmp to the committed variant",
			fs.fd.Name, in.Op)
	}
	target := fs.fd.Generic + isa.CallSiteLen + uint64(in.Imm)
	if target != fs.committed.Addr {
		return fmt.Errorf("core: audit: prologue of %q jumps to %#x, committed variant is %#x",
			fs.fd.Name, target, fs.committed.Addr)
	}
	return rt.auditProt("generic", fs.fd.Generic)
}

// auditProt checks that the page holding a text address is executable
// and not writable — a stranded RW page means a protection flip never
// got undone.
func (rt *Runtime) auditProt(what string, addr uint64) error {
	prot, mapped := rt.plat.ProtAt(addr)
	if !mapped {
		return fmt.Errorf("core: audit: %s %#x is unmapped", what, addr)
	}
	if prot&mem.Exec == 0 {
		return fmt.Errorf("core: audit: %s %#x page is not executable (%v)", what, addr, prot)
	}
	if prot&mem.Write != 0 {
		return fmt.Errorf("core: audit: %s %#x page is writable (%v) — stranded protection flip", what, addr, prot)
	}
	return nil
}
