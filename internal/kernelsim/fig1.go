package kernelsim

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
)

// Fig1Binding selects the variability mechanism of Figure 1.
type Fig1Binding int

// Figure 1's three implementations of spin_irq_lock.
const (
	Fig1Static     Fig1Binding = iota // A: #ifdef CONFIG_SMP, inline
	Fig1Dynamic                       // B: if (config_smp), global variable
	Fig1Multiverse                    // C: multiverse attribute + commit
)

// String names the binding like the paper's table.
func (b Fig1Binding) String() string {
	switch b {
	case Fig1Static:
		return "A static (#ifdef)"
	case Fig1Dynamic:
		return "B dynamic (if)"
	case Fig1Multiverse:
		return "C multiverse"
	}
	return "?"
}

// fig1Common is the lock machinery shared by all three bindings: the
// interrupt disable and the SMP lock acquisition of Figure 1.
const fig1Common = `
	ulong lock_word;
	void irq_disable(void) { __cli(); }
	void spin_acquire(ulong* l) {
		while (__xchg(l, 1)) {
			while (*l) { __pause(); }
		}
	}
	void lock_release(void) { lock_word = 0; __sti(); }
`

// fig1Sources returns the MVC program for one binding. The static
// binding is compiled per SMP value (that is the point of #ifdef), and
// since the paper's spin_irq_lock is declared inline, its body sits
// directly in the benchmark loop.
func fig1Sources(b Fig1Binding, staticSMP bool) string {
	switch b {
	case Fig1Static:
		body := "irq_disable();"
		if staticSMP {
			body = "irq_disable(); spin_acquire(&lock_word);"
		}
		return fig1Common + benchSource + fmt.Sprintf(`
			ulong bench_fig1(ulong iters) {
				ulong t0 = __rdtsc();
				for (ulong i = 0; i < iters; i++) {
					%s
					lock_release();
				}
				ulong t1 = __rdtsc();
				return t1 - t0;
			}
		`, body)
	case Fig1Dynamic, Fig1Multiverse:
		attr := ""
		if b == Fig1Multiverse {
			attr = "multiverse "
		}
		return fig1Common + benchSource + fmt.Sprintf(`
			%[1]sint config_smp;
			%[1]svoid spin_irq_lock(ulong* l) {
				if (config_smp) {
					irq_disable();
					spin_acquire(l);
				} else {
					irq_disable();
				}
			}
			ulong bench_fig1(ulong iters) {
				ulong t0 = __rdtsc();
				for (ulong i = 0; i < iters; i++) {
					spin_irq_lock(&lock_word);
					lock_release();
				}
				ulong t1 = __rdtsc();
				return t1 - t0;
			}
		`, attr)
	}
	panic("kernelsim: unknown binding")
}

// Fig1System is one built Figure 1 configuration.
type Fig1System struct {
	Binding Fig1Binding
	SMP     bool
	sys     *core.System
}

// BuildFig1 compiles and configures one cell of the Figure 1 table.
func BuildFig1(b Fig1Binding, smp bool, obs ...core.Observers) (*Fig1System, error) {
	src := fig1Sources(b, smp)
	sys, err := core.BuildSystem(core.GenOptions{}, core.Observed(obs),
		core.Source{Name: "fig1", Text: src})
	if err != nil {
		return nil, err
	}
	f := &Fig1System{Binding: b, SMP: smp, sys: sys}
	switch b {
	case Fig1Dynamic:
		v := uint64(0)
		if smp {
			v = 1
		}
		// A plain global, not a multiverse switch: ordinary store.
		if err := sys.Machine.WriteGlobal("config_smp", 4, v); err != nil {
			return nil, err
		}
	case Fig1Multiverse:
		v := int64(0)
		if smp {
			v = 1
		}
		if err := sys.SetSwitch("config_smp", v); err != nil {
			return nil, err
		}
		if _, err := sys.RT.Commit(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// System exposes the underlying machine/runtime pair, so harnesses
// (difftests, chaos) can attach injectors or drive commits directly.
func (f *Fig1System) System() *core.System { return f.sys }

// Measure returns the spin_irq_lock cost in cycles (lock_release is
// part of the loop for all bindings and cancels in comparisons; the
// Figure 1 shape is driven entirely by the lock side).
func (f *Fig1System) Measure(opts MeasureOpts) (bench.Result, error) {
	return run(f.sys, "bench_fig1", opts)
}

// MeasureColdBTB measures the same loop with the branch predictor
// flushed before every sample — the "real kernel execution paths"
// situation §1 describes, where the induced branch has a high chance
// to be mispredicted (experiment E8).
func (f *Fig1System) MeasureColdBTB(opts MeasureOpts) (bench.Result, error) {
	for i := 0; i < opts.Warmup; i++ {
		if _, err := measurePair(f.sys, "bench_fig1", 1); err != nil {
			return bench.Result{}, err
		}
	}
	var firstErr error
	res := bench.Measure(opts.Samples, func() float64 {
		f.sys.Machine.CPU.FlushPredictor()
		v, err := measurePair(f.sys, "bench_fig1", 1)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	})
	return res, firstErr
}
