package kernelsim

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/link"
)

// This file models the kernel's alternative()/alternative_smp() macro
// family (paper §1.1): single instructions or calls are located by
// hand-maintained metadata and overwritten with NOPs (or replacement
// instructions) at boot, e.g. to disable SMAP on processors without
// it. Multiverse's claim (§6, §9) is that it can replace these
// special-purpose mechanisms without a performance compromise —
// experiment E10 makes that comparison directly.

// AltKernel selects the mechanism guarding the SMAP-style feature.
type AltKernel int

// The compared mechanisms.
const (
	// AltMacro is the existing mechanism: the feature code is always
	// compiled in; boot-time patching NOPs it out when the CPU lacks
	// the feature. The patch sites come from hand-maintained metadata
	// (here: an ad-hoc text scan, standing in for the inline-asm
	// section tricks the paper criticizes).
	AltMacro AltKernel = iota
	// AltMultiverse guards the same code with a multiverse switch.
	AltMultiverse
)

func (k AltKernel) String() string {
	if k == AltMultiverse {
		return "multiverse"
	}
	return "alternative macro"
}

// altCommon is the guarded feature: a SMAP-style access check on the
// user-copy path.
const altCommon = `
	long smap_events;
	ulong kbuf[8];
`

func altSources(k AltKernel) string {
	switch k {
	case AltMacro:
		// The feature body is unconditional; patching removes the call.
		return altCommon + benchSource + `
			void smap_assert(void) { smap_events++; }
			void copy_from_user(long i) {
				smap_assert();
				kbuf[i & 7] = (ulong)i;
			}
			ulong bench_copy(ulong iters) {
				ulong t0 = __rdtsc();
				for (ulong i = 0; i < iters; i++) {
					copy_from_user((long)i);
				}
				ulong t1 = __rdtsc();
				return t1 - t0;
			}
		`
	case AltMultiverse:
		return altCommon + benchSource + `
			multiverse int cpu_has_smap;
			multiverse void smap_assert(void) {
				if (cpu_has_smap) { smap_events++; }
			}
			void copy_from_user(long i) {
				smap_assert();
				kbuf[i & 7] = (ulong)i;
			}
			ulong bench_copy(ulong iters) {
				ulong t0 = __rdtsc();
				for (ulong i = 0; i < iters; i++) {
					copy_from_user((long)i);
				}
				ulong t1 = __rdtsc();
				return t1 - t0;
			}
		`
	}
	panic("kernelsim: unknown alt kernel")
}

// AltSystem is one booted kernel with its feature configuration.
type AltSystem struct {
	Kernel AltKernel
	sys    *core.System
	// Sites found by the ad-hoc scan (AltMacro only).
	Sites []uint64
}

// findCallSites scans the text segment for direct calls to target —
// the stand-in for the alternative mechanism's hand-maintained patch
// metadata. It deliberately lives outside the compiler: this is the
// ad-hoc, architecture-specific bookkeeping the paper argues against.
func findCallSites(img *link.Image, target uint64) []uint64 {
	var sites []uint64
	text := img.Segments[0]
	off := 0
	for off < len(text.Data) {
		in, err := isa.Decode(text.Data[off:])
		if err != nil {
			off++
			continue
		}
		if in.Op == isa.CALL {
			addr := text.Addr + uint64(off)
			if addr+uint64(in.Len)+uint64(in.Imm) == target {
				sites = append(sites, addr)
			}
		}
		off += in.Len
	}
	return sites
}

// BuildAlt boots one kernel with the SMAP feature present or absent.
func BuildAlt(k AltKernel, hasFeature bool, obs ...core.Observers) (*AltSystem, error) {
	sys, err := core.BuildSystem(core.GenOptions{}, core.Observed(obs),
		core.Source{Name: "smap", Text: altSources(k)})
	if err != nil {
		return nil, err
	}
	a := &AltSystem{Kernel: k, sys: sys}
	switch k {
	case AltMacro:
		target, err := sys.Machine.Symbol("smap_assert")
		if err != nil {
			return nil, err
		}
		a.Sites = findCallSites(sys.Machine.Image, target)
		if len(a.Sites) == 0 {
			return nil, fmt.Errorf("kernelsim: alternative scan found no patch sites")
		}
		if !hasFeature {
			// Boot-time NOP patching, alternative() style.
			plat := &core.KernelPlatform{UserPlatform: core.UserPlatform{M: sys.Machine}}
			for _, site := range a.Sites {
				if err := plat.Patch(site, isa.EncodeNop(isa.CallSiteLen)); err != nil {
					return nil, err
				}
				plat.FlushICache(site, isa.CallSiteLen)
			}
		}
	case AltMultiverse:
		v := int64(0)
		if hasFeature {
			v = 1
		}
		if err := sys.SetSwitch("cpu_has_smap", v); err != nil {
			return nil, err
		}
		if _, err := sys.RT.Commit(); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// System exposes the underlying system.
func (a *AltSystem) System() *core.System { return a.sys }

// Measure returns cycles per copy_from_user call.
func (a *AltSystem) Measure(opts MeasureOpts) (bench.Result, error) {
	return run(a.sys, "bench_copy", opts)
}

// Events reads the feature-path counter.
func (a *AltSystem) Events() (uint64, error) {
	return a.sys.Machine.ReadGlobal("smap_events", 8)
}
