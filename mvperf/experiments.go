package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/grepsim"
	"repro/internal/kernelsim"
	"repro/internal/machine"
	"repro/internal/muslsim"
	"repro/internal/pysim"
)

// Sample counts per Measure. Every Measure takes two warm-up samples
// before its own; (samples+2)*iters is a multiple of 8192, so the musl
// FILE buffer and the cPython arena wrap at the same point in every
// pass and each pass repeats the reference pass exactly. An op retires
// from a few hundred thousand to a few million simulated instructions.
const (
	expIters       = 128
	expSamples     = 126
	expColdSamples = 8190 // one iteration per sample
	expGrepSamples = 1    // one sample greps the whole corpus
)

// cell is one table cell of E1–E6 and E8–E10: a Measure on a built
// system and the check of the guest state it leaves.
type cell struct {
	exp     int
	label   string
	m       *machine.Machine // nil when the system hides its machine (E5)
	measure func() (bench.Result, error)
	check   func() error // nil when the cell's guest state has nothing to check
}

// experimentsWorkload runs one cell's Measure per op, in seeded order.
type experimentsWorkload struct {
	tr       *tracer
	cells    []*cell
	machines []*machine.Machine // each once
	pairs    []func() error     // build-agreement checks, run after every pass
	refs     []cellRef
}

type cellRef struct {
	mean  float64
	insts uint64
}

func kopts() kernelsim.MeasureOpts {
	return kernelsim.MeasureOpts{Samples: expSamples, Iters: expIters, Warmup: 2}
}

func (e *experimentsWorkload) add(exp int, label string, sys *core.System, measure func() (bench.Result, error), check func() error) {
	c := &cell{exp: exp, label: fmt.Sprintf("E%d %s", exp, label), measure: measure, check: check}
	if sys != nil {
		c.m = sys.Machine
		known := false
		for _, m := range e.machines {
			known = known || m == c.m
		}
		if !known {
			e.machines = append(e.machines, c.m)
		}
	}
	e.cells = append(e.cells, c)
}

// built wraps a builder call in a span.
func built[T any](tr *tracer, f func() (T, error)) (T, error) {
	var v T
	err := tr.do("sim.build", func() (err error) { v, err = f(); return })
	return v, err
}

// zero checks that the named 8-byte globals are back to 0.
func zero(m *machine.Machine, names ...string) func() error {
	return func() error {
		for _, n := range names {
			v, err := m.ReadGlobal(n, 8)
			if err != nil {
				return err
			}
			if v != 0 {
				return fmt.Errorf("%s = %d, want 0", n, v)
			}
		}
		return nil
	}
}

func (e *experimentsWorkload) build(seed int64) error {
	for _, f := range []func() error{e.fig1, e.spin, e.pvops, e.musl, e.grep, e.python, e.btb, e.ablation, e.alternative} {
		if err := f(); err != nil {
			return err
		}
	}
	order := newRNG(seed, streamExperiments).perm(len(e.cells))
	cells := make([]*cell, len(e.cells))
	for i, j := range order {
		cells[i] = e.cells[j]
	}
	e.cells = cells
	e.refs = make([]cellRef, len(cells))
	return nil
}

// E1 / Figure 1: the spin_irq_lock bindings, UP and SMP.
func (e *experimentsWorkload) fig1() error {
	for _, b := range []kernelsim.Fig1Binding{kernelsim.Fig1Static, kernelsim.Fig1Dynamic, kernelsim.Fig1Multiverse} {
		for _, smp := range []bool{false, true} {
			f, err := built(e.tr, func() (*kernelsim.Fig1System, error) { return kernelsim.BuildFig1(b, smp) })
			if err != nil {
				return err
			}
			sys := f.System()
			e.add(1, fmt.Sprintf("%v smp=%v", b, smp), sys, func() (bench.Result, error) { return f.Measure(kopts()) },
				zero(sys.Machine, "lock_word"))
		}
	}
	return nil
}

// E2 / Figure 4 left: the four spinlock kernels, unicore and multicore.
func (e *experimentsWorkload) spin() error {
	for _, k := range []kernelsim.SpinKernel{kernelsim.SpinMainline, kernelsim.SpinIf, kernelsim.SpinMultiverse, kernelsim.SpinStaticUP} {
		for _, smp := range []bool{false, true} {
			if k == kernelsim.SpinStaticUP && smp {
				continue // the UP-only kernel cannot enter SMP mode
			}
			s, err := built(e.tr, func() (*kernelsim.SpinSystem, error) {
				s, err := kernelsim.BuildSpin(k)
				if err == nil {
					err = s.SetSMP(smp)
				}
				return s, err
			})
			if err != nil {
				return err
			}
			sys := s.System()
			e.add(2, fmt.Sprintf("%v smp=%v", k, smp), sys, func() (bench.Result, error) { return s.Measure(kopts()) },
				zero(sys.Machine, "lock_word", "preempt_count"))
		}
	}
	return nil
}

// E3 / Figure 4 right: PV-Ops natively and as a Xen guest. A native
// kernel must never make a hypercall; a guest's sti/cli must.
func (e *experimentsWorkload) pvops() error {
	for _, k := range []kernelsim.PVKernel{kernelsim.PVCurrent, kernelsim.PVMultiverse, kernelsim.PVDisabled} {
		for _, env := range []kernelsim.PVEnv{kernelsim.EnvNative, kernelsim.EnvXen} {
			if k == kernelsim.PVDisabled && env == kernelsim.EnvXen {
				continue // no paravirt support, no Xen guest
			}
			p, err := built(e.tr, func() (*kernelsim.PVSystem, error) { return kernelsim.BuildPV(k, env) })
			if err != nil {
				return err
			}
			var last uint64
			check := func() error {
				if p.Xen == nil {
					return nil
				}
				n := p.Xen.Hypercalls
				if env == kernelsim.EnvNative && n != 0 {
					return fmt.Errorf("native kernel made %d hypercalls", n)
				}
				if env == kernelsim.EnvXen && n <= last {
					return fmt.Errorf("Xen guest made no hypercalls")
				}
				last = n
				return nil
			}
			e.add(3, fmt.Sprintf("%v %v", k, env), p.System(), func() (bench.Result, error) { return p.Measure(kopts()) }, check)
		}
	}
	return nil
}

// E4 / Figure 5: musl, single- and multi-threaded. After every pass the
// plain and multiverse builds must hold the same libc state.
func (e *experimentsWorkload) musl() error {
	for _, multi := range []bool{false, true} {
		var pair [2]*muslsim.Musl
		for bi, b := range []muslsim.Build{muslsim.Plain, muslsim.Multiverse} {
			m, err := built(e.tr, func() (*muslsim.Musl, error) {
				m, err := muslsim.BuildMusl(b)
				if err == nil {
					err = m.SetThreads(multi)
				}
				if err == nil {
					// One malloc/free pair fills the free list, so the
					// reference pass already takes the steady path.
					_, err = m.Measure(muslsim.FnMalloc0, 0, 1)
				}
				return m, err
			})
			if err != nil {
				return err
			}
			pair[bi] = m
			for _, f := range muslsim.Funcs() {
				e.add(4, fmt.Sprintf("%v %v multi=%v", f, b, multi), m.System(),
					func() (bench.Result, error) { return m.Measure(f, expSamples, expIters) }, nil)
			}
		}
		e.pairs = append(e.pairs, func() error {
			for _, g := range []string{"rand_state", "heap_off", "fpos", "flushed_bytes"} {
				a, err := pair[0].System().Machine.ReadGlobal(g, 8)
				if err != nil {
					return err
				}
				b, err := pair[1].System().Machine.ReadGlobal(g, 8)
				if err != nil {
					return err
				}
				if a != b {
					return fmt.Errorf("E4 multi=%v: %s is %d plain, %d multiverse", multi, g, a, b)
				}
			}
			return nil
		})
	}
	return nil
}

// E5: grep, whose matches must equal the host reference on the same
// corpus in both builds. grepsim does not expose the machine, so E5's
// instructions are not part of work_per_s.
func (e *experimentsWorkload) grep() error {
	want := grepsim.ReferenceMatches(grepsim.Corpus(grepsim.CorpusSize))
	var greps []*grepsim.Grep
	for _, b := range []grepsim.Build{grepsim.Plain, grepsim.Multiverse} {
		g, err := built(e.tr, func() (*grepsim.Grep, error) {
			g, err := grepsim.BuildGrep(b)
			if err == nil {
				err = g.SetMode(false)
			}
			return g, err
		})
		if err != nil {
			return err
		}
		greps = append(greps, g)
		e.add(5, b.String(), nil, func() (bench.Result, error) { return g.Measure(expGrepSamples) }, nil)
	}
	e.pairs = append(e.pairs, func() error {
		for i, g := range greps {
			n, err := g.Matches()
			if err != nil {
				return err
			}
			if n != want {
				return fmt.Errorf("E5 build %d found %d matches, the host reference %d", i, n, want)
			}
		}
		return nil
	})
	return nil
}

// E6: cPython allocation with the collector disabled; neither build may
// collect.
func (e *experimentsWorkload) python() error {
	var pys []*pysim.Python
	for _, b := range []pysim.Build{pysim.Plain, pysim.Multiverse} {
		p, err := built(e.tr, func() (*pysim.Python, error) {
			p, err := pysim.BuildPython(b)
			if err == nil {
				err = p.SetGCEnabled(false)
			}
			if err == nil {
				// Moving the arena off its start makes every pass,
				// the reference pass included, wrap it twice.
				_, err = p.Measure(0, 1)
			}
			return p, err
		})
		if err != nil {
			return err
		}
		pys = append(pys, p)
		e.add(6, b.String(), p.System(), func() (bench.Result, error) { return p.Measure(expSamples, expIters) }, nil)
	}
	e.pairs = append(e.pairs, func() error {
		for _, p := range pys {
			n, err := p.Collections()
			if err != nil {
				return err
			}
			if n != 0 {
				return fmt.Errorf("E6 collected %d times with the collector disabled", n)
			}
		}
		return nil
	})
	return nil
}

// E8: the BTB ablation, warm and cold predictor, UP.
func (e *experimentsWorkload) btb() error {
	for _, b := range []kernelsim.Fig1Binding{kernelsim.Fig1Dynamic, kernelsim.Fig1Multiverse} {
		f, err := built(e.tr, func() (*kernelsim.Fig1System, error) { return kernelsim.BuildFig1(b, false) })
		if err != nil {
			return err
		}
		sys := f.System()
		check := zero(sys.Machine, "lock_word")
		e.add(8, b.String()+" warm", sys, func() (bench.Result, error) { return f.Measure(kopts()) }, check)
		e.add(8, b.String()+" cold", sys, func() (bench.Result, error) {
			return f.MeasureColdBTB(kernelsim.MeasureOpts{Samples: expColdSamples, Iters: 1, Warmup: 2})
		}, check)
	}
	return nil
}

// E9: the mechanism ablation on the multiverse spinlock kernel.
func (e *experimentsWorkload) ablation() error {
	configs := []struct {
		label     string
		configure func(rt *core.Runtime)
	}{
		{"full", func(rt *core.Runtime) {}},
		{"no-inlining", func(rt *core.Runtime) { rt.DisableInlining = true }},
		{"prologue-only", func(rt *core.Runtime) { rt.PrologueOnly = true }},
	}
	for _, cfg := range configs {
		s, err := built(e.tr, func() (*kernelsim.SpinSystem, error) {
			s, err := kernelsim.BuildSpin(kernelsim.SpinMultiverse)
			if err != nil {
				return nil, err
			}
			cfg.configure(s.Runtime())
			return s, s.SetSMP(false)
		})
		if err != nil {
			return err
		}
		sys := s.System()
		e.add(9, cfg.label, sys, func() (bench.Result, error) { return s.Measure(kopts()) },
			zero(sys.Machine, "lock_word", "preempt_count"))
	}
	return nil
}

// E10: alternative() macros against multiverse. With the feature off
// neither build may count an event; with it on both must count the
// same events.
func (e *experimentsWorkload) alternative() error {
	for _, feature := range []bool{false, true} {
		var alts []*kernelsim.AltSystem
		for _, k := range []kernelsim.AltKernel{kernelsim.AltMacro, kernelsim.AltMultiverse} {
			a, err := built(e.tr, func() (*kernelsim.AltSystem, error) { return kernelsim.BuildAlt(k, feature) })
			if err != nil {
				return err
			}
			alts = append(alts, a)
			e.add(10, fmt.Sprintf("%v feature=%v", k, feature), a.System(),
				func() (bench.Result, error) { return a.Measure(kopts()) }, nil)
		}
		e.pairs = append(e.pairs, func() error {
			var n [2]uint64
			for i, a := range alts {
				var err error
				if n[i], err = a.Events(); err != nil {
					return err
				}
			}
			if n[0] != n[1] || (n[0] == 0) == feature {
				return fmt.Errorf("E10 feature=%v: %d events with alternative(), %d with multiverse", feature, n[0], n[1])
			}
			return nil
		})
	}
	return nil
}

func (e *experimentsWorkload) passLen() int { return len(e.cells) }

func (e *experimentsWorkload) op(i int) (opStat, error) {
	n := len(e.cells)
	c := e.cells[i%n]
	insts := func() uint64 {
		if c.m == nil {
			return 0
		}
		return c.m.TotalStats().Instructions
	}
	before := insts()
	var res bench.Result
	start := time.Now()
	err := e.tr.do("sim.measure", func() (err error) { res, err = c.measure(); return })
	st := opStat{latency: time.Since(start)}
	ran := insts() - before
	st.work = float64(ran)
	if err == nil && c.check != nil {
		err = c.check()
	}
	if err != nil {
		return st, fmt.Errorf("%s: %w", c.label, err)
	}
	ref := &e.refs[i%n]
	if i < n {
		ref.mean, ref.insts = res.Mean, ran
	} else if res.Mean != ref.mean || ran != ref.insts {
		return st, fmt.Errorf("%s: %v cycles/op over %d instructions, the reference pass had %v over %d",
			c.label, res.Mean, ran, ref.mean, ref.insts)
	}
	if i%n == n-1 {
		for _, pair := range e.pairs {
			if err := pair(); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

func (e *experimentsWorkload) simCyclesPerOp() float64 {
	means := make([]float64, len(e.refs))
	for i, r := range e.refs {
		means[i] = r.mean
	}
	return geomean(means)
}

func (e *experimentsWorkload) reference() string {
	var b strings.Builder
	for i, r := range e.refs {
		fmt.Fprintf(&b, "%s: %s %d\n", e.cells[i].label, strconv.FormatFloat(r.mean, 'g', -1, 64), r.insts)
	}
	return b.String()
}

func (e *experimentsWorkload) layers(cum, fixed counts) {
	for _, m := range e.machines {
		addMachine(cum, m)
		fixed["code_bytes"] += float64(imageBytes(m.Image))
	}
	byExp := map[int][]float64{}
	for i, c := range e.cells {
		byExp[c.exp] = append(byExp[c.exp], e.refs[i].mean)
	}
	for exp, means := range byExp {
		fixed[fmt.Sprintf("sim.e%d_cycles", exp)] = geomean(means)
	}
}
