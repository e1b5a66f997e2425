package kernelsim

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
)

// SpinKernel identifies one of the four kernel builds of §6.1's
// spinlock experiment (Figure 4, left).
type SpinKernel int

// The four kernel variants.
const (
	// SpinMainline is the unmodified SMP-capable kernel without lock
	// elision, as shipped by all major distributions.
	SpinMainline SpinKernel = iota
	// SpinIf adds lock elision through a control-flow branch on a
	// run-time variable.
	SpinIf
	// SpinMultiverse adds lock elision through multiverse.
	SpinMultiverse
	// SpinStaticUP is the mainline kernel configured without SMP
	// capability: static lock elision, spinlock bodies inlined away.
	SpinStaticUP
)

// String names the kernel like the figure legend.
func (k SpinKernel) String() string {
	switch k {
	case SpinMainline:
		return "No Lock Elision"
	case SpinIf:
		return "Lock Elision [if]"
	case SpinMultiverse:
		return "Lock Elision [multiverse]"
	case SpinStaticUP:
		return "Lock Elision [ifdef Off]"
	}
	return "?"
}

// spinCommon models the parts of the Linux spinlock that exist in
// every configuration: the preemption counter is always maintained;
// only the actual lock-word operation is subject to elision.
const spinCommon = `
	ulong lock_word;
	long preempt_count;
`

// spinSources builds one kernel flavor. The UP-only kernel's spinlock
// collapses to inline preempt accounting (spinlock_up.h makes them
// static inlines), so its benchmark loop carries the inlined body;
// every SMP-capable kernel calls out-of-line lock functions, like
// Linux does.
func spinSources(k SpinKernel) string {
	lockBody := `
		while (__xchg(l, 1)) {
			while (*l) { __pause(); }
		}`
	unlockBody := `*l = 0;`
	wrap := func(attr, lock, unlock string) string {
		return spinCommon + benchSource + fmt.Sprintf(`
			%[1]svoid spin_lock(ulong* l) {
				preempt_count++;
				%[2]s
			}
			%[1]svoid spin_unlock(ulong* l) {
				%[3]s
				preempt_count--;
			}
			ulong bench_spin(ulong iters) {
				ulong t0 = __rdtsc();
				for (ulong i = 0; i < iters; i++) {
					spin_lock(&lock_word);
					spin_unlock(&lock_word);
				}
				ulong t1 = __rdtsc();
				return t1 - t0;
			}
		`, attr, lock, unlock)
	}
	switch k {
	case SpinMainline:
		return wrap("", lockBody, unlockBody)
	case SpinIf:
		return "int config_smp;\n" +
			wrap("", "if (config_smp) {"+lockBody+"}", "if (config_smp) { "+unlockBody+" }")
	case SpinMultiverse:
		return "multiverse int config_smp;\n" +
			wrap("multiverse ", "if (config_smp) {"+lockBody+"}", "if (config_smp) { "+unlockBody+" }")
	case SpinStaticUP:
		return spinCommon + benchSource + `
			ulong bench_spin(ulong iters) {
				ulong t0 = __rdtsc();
				for (ulong i = 0; i < iters; i++) {
					preempt_count++;
					preempt_count--;
				}
				ulong t1 = __rdtsc();
				return t1 - t0;
			}
		`
	}
	panic("kernelsim: unknown spin kernel")
}

// SpinSystem is one booted spinlock kernel.
type SpinSystem struct {
	Kernel SpinKernel
	sys    *core.System
}

// BuildSpin compiles and boots one spinlock kernel.
func BuildSpin(k SpinKernel, obs ...core.Observers) (*SpinSystem, error) {
	sys, err := core.BuildSystem(core.GenOptions{}, core.Observed(obs),
		core.Source{Name: "spin", Text: spinSources(k)})
	if err != nil {
		return nil, err
	}
	return &SpinSystem{Kernel: k, sys: sys}, nil
}

// SetSMP switches the kernel between unicore and multicore operation,
// the hotplug scenario of §1 (for the multiverse kernel this performs
// the commit). The mainline kernel has no switch — it always takes the
// lock — and the static UP kernel cannot do SMP at all.
func (s *SpinSystem) SetSMP(on bool) error {
	switch s.Kernel {
	case SpinMainline:
		return nil // compiled-in SMP: nothing to configure
	case SpinStaticUP:
		if on {
			return fmt.Errorf("kernelsim: the UP-only kernel cannot enter SMP mode")
		}
		return nil
	}
	v := uint64(0)
	if on {
		v = 1
	}
	if s.Kernel == SpinIf {
		// A plain global, not a multiverse switch: ordinary store.
		return s.sys.Machine.WriteGlobal("config_smp", 4, v)
	}
	if err := s.sys.SetSwitch("config_smp", int64(v)); err != nil {
		return err
	}
	if _, err := s.sys.RT.Commit(); err != nil {
		return err
	}
	return nil
}

// Runtime exposes the multiverse runtime (nil-safe only for the
// multiverse kernel).
func (s *SpinSystem) Runtime() *core.Runtime { return s.sys.RT }

// System returns the underlying built system.
func (s *SpinSystem) System() *core.System { return s.sys }

// Measure returns cycles per lock+unlock pair.
func (s *SpinSystem) Measure(opts MeasureOpts) (bench.Result, error) {
	return run(s.sys, "bench_spin", opts)
}

// LockWord reads the lock word, for correctness checks.
func (s *SpinSystem) LockWord() (uint64, error) {
	return s.sys.Machine.ReadGlobal("lock_word", 8)
}

// PreemptCount reads the preemption counter.
func (s *SpinSystem) PreemptCount() (int64, error) {
	v, err := s.sys.Machine.ReadGlobal("preempt_count", 8)
	return int64(v), err
}
