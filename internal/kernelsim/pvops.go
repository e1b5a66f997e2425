package kernelsim

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cpu"
)

// PVKernel identifies one of the three kernel builds of §6.1's
// paravirtual-operations experiment (Figure 4, right).
type PVKernel int

// The three kernel variants.
const (
	// PVCurrent models the kernel's existing PV-Ops mechanism:
	// function-pointer dispatch with the custom no-scratch calling
	// convention, patched to direct calls (natives inlined) at boot.
	PVCurrent PVKernel = iota
	// PVMultiverse replaces the mechanism with a multiversed function
	// over an environment switch, compiled with the standard calling
	// convention.
	PVMultiverse
	// PVDisabled is the kernel with paravirtualization support
	// compiled out: sti/cli are emitted inline. It only runs on bare
	// metal.
	PVDisabled
)

// String names the kernel like the figure legend.
func (k PVKernel) String() string {
	switch k {
	case PVCurrent:
		return "PV-Op Patching [current]"
	case PVMultiverse:
		return "PV-Op Patching [multiverse]"
	case PVDisabled:
		return "PV-OP Disabled [ifdef]"
	}
	return "?"
}

// PVEnv selects the execution environment.
type PVEnv int

// Environments of the PV-Ops benchmark.
const (
	EnvNative PVEnv = iota // bare metal
	EnvXen                 // paravirtualized guest
)

func (e PVEnv) String() string {
	if e == EnvXen {
		return "XEN (guest)"
	}
	return "Native"
}

// xenWork is the body of the Xen irq-enable/disable implementation: it
// inspects the shared vcpu info page before issuing the hypercall,
// which is what makes the function clobber several registers — the
// traffic the custom calling convention then has to save and restore.
const xenWork = `
	ulong a = vcpu_flags[0];
	ulong b = vcpu_flags[1];
	ulong c = a ^ b;
	ulong d = a & b;
	vcpu_flags[2] = c + d;
`

// pvSources builds one PV kernel flavor.
func pvSources(k PVKernel) string {
	common := `
		ulong vcpu_flags[4];
	` + benchSource
	benchLoop := `
		ulong bench_pv(ulong iters) {
			ulong t0 = __rdtsc();
			for (ulong i = 0; i < iters; i++) {
				irq_enable();
				irq_disable();
			}
			ulong t1 = __rdtsc();
			return t1 - t0;
		}
	`
	switch k {
	case PVCurrent:
		return common + `
			noscratch void native_irq_enable(void) { __sti(); }
			noscratch void native_irq_disable(void) { __cli(); }
			noscratch void xen_irq_enable(void) {` + xenWork + `__hcall(1); }
			noscratch void xen_irq_disable(void) {` + xenWork + `__hcall(2); }
			multiverse void (*pv_irq_enable)(void);
			multiverse void (*pv_irq_disable)(void);
			ulong bench_pv(ulong iters) {
				ulong t0 = __rdtsc();
				for (ulong i = 0; i < iters; i++) {
					pv_irq_enable();
					pv_irq_disable();
				}
				ulong t1 = __rdtsc();
				return t1 - t0;
			}
		`
	case PVMultiverse:
		return common + `
			multiverse int pv_env;
			multiverse void irq_enable(void) {
				if (pv_env) {` + xenWork + `__hcall(1); } else { __sti(); }
			}
			multiverse void irq_disable(void) {
				if (pv_env) {` + xenWork + `__hcall(2); } else { __cli(); }
			}
		` + benchLoop
	case PVDisabled:
		// Paravirt compiled out: the native operations are static
		// inlines, so they sit directly in the instruction stream.
		return common + `
			ulong bench_pv(ulong iters) {
				ulong t0 = __rdtsc();
				for (ulong i = 0; i < iters; i++) {
					__sti();
					__cli();
				}
				ulong t1 = __rdtsc();
				return t1 - t0;
			}
		`
	}
	panic("kernelsim: unknown pv kernel")
}

// PVSystem is one booted PV-Ops kernel in one environment.
type PVSystem struct {
	Kernel PVKernel
	Env    PVEnv
	Xen    *Xen
	sys    *core.System
}

// BuildPV compiles one PV kernel and boots it in the given
// environment, performing the boot-time patching each mechanism does.
func BuildPV(k PVKernel, env PVEnv, obs ...core.Observers) (*PVSystem, error) {
	if k == PVDisabled && env == EnvXen {
		return nil, fmt.Errorf("kernelsim: a kernel without paravirt support cannot run as a Xen PV guest")
	}
	sys, err := core.BuildSystem(core.GenOptions{}, core.Observed(obs),
		core.Source{Name: "pvops", Text: pvSources(k)})
	if err != nil {
		return nil, err
	}
	p := &PVSystem{Kernel: k, Env: env, sys: sys}
	if env == EnvXen {
		p.Xen = &Xen{}
		sys.Machine.CPU.SetHypervisor(p.Xen)
		sys.Machine.CPU.SetMode(cpu.Guest)
	} else if k == PVMultiverse || k == PVCurrent {
		// Hypercalls exist in the binary (the unselected paths); give
		// the CPU a hypervisor so an accidental execution is loud in
		// tests rather than an opaque fault.
		p.Xen = &Xen{}
		sys.Machine.CPU.SetHypervisor(p.Xen)
	}

	// Boot-time patching.
	switch k {
	case PVCurrent:
		impl := map[PVEnv][2]string{
			EnvNative: {"native_irq_enable", "native_irq_disable"},
			EnvXen:    {"xen_irq_enable", "xen_irq_disable"},
		}[env]
		if err := sys.SetFnPtr("pv_irq_enable", impl[0]); err != nil {
			return nil, err
		}
		if err := sys.SetFnPtr("pv_irq_disable", impl[1]); err != nil {
			return nil, err
		}
		if _, err := sys.RT.Commit(); err != nil {
			return nil, err
		}
	case PVMultiverse:
		v := int64(0)
		if env == EnvXen {
			v = 1
		}
		if err := sys.SetSwitch("pv_env", v); err != nil {
			return nil, err
		}
		if _, err := sys.RT.Commit(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Runtime exposes the multiverse runtime.
func (p *PVSystem) Runtime() *core.Runtime { return p.sys.RT }

// System returns the underlying built system.
func (p *PVSystem) System() *core.System { return p.sys }

// Measure returns cycles per sti+cli pair.
func (p *PVSystem) Measure(opts MeasureOpts) (bench.Result, error) {
	return run(p.sys, "bench_pv", opts)
}
