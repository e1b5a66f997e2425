// Package pysim reproduces the cPython case study (§6.2.1): the
// garbage collector's boolean enable flag is only written through
// gc.enable()/gc.disable() and influences the object-allocation path
// (_PyObject_GC_Alloc), making it a multiverse candidate. The paper
// could not obtain stable measurements for this workload; the
// deterministic simulator does, so the harness reports the measured
// effect alongside that caveat.
package pysim

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
)

// Build selects plain (dynamic gc check) or multiversed cPython.
type Build int

// The two interpreter builds.
const (
	Plain Build = iota
	Multiverse
)

func (b Build) String() string {
	if b == Multiverse {
		return "w/ Multiverse"
	}
	return "w/o Multiverse"
}

func pySource(b Build) string {
	attr := ""
	if b == Multiverse {
		attr = "multiverse "
	}
	return fmt.Sprintf(`
	%[1]sint gc_enabled;
	char arena[262144];
	ulong arena_off;
	long gc_count;
	long gc_threshold = 700;
	long collections;

	// gc_collect models a generation-0 collection: walk the young
	// objects and reset the counter.
	void gc_collect(void) {
		long live = 0;
		for (ulong i = 0; i < arena_off; i += 32) {
			ulong* hdr = (ulong*)(arena + i);
			if (*hdr) { live++; }
		}
		collections++;
		gc_count = 0;
	}

	// py_gc_alloc is _PyObject_GC_Alloc: allocate an object and do the
	// GC bookkeeping when the collector is enabled.
	%[1]schar* py_gc_alloc(ulong size) {
		ulong need = (size + 31) & ~(ulong)31;
		if (arena_off + need > 262144) {
			arena_off = 0; // wrap: the benchmark reuses the arena
		}
		char* obj = arena + arena_off;
		arena_off += need;
		ulong* hdr = (ulong*)obj;
		*hdr = 1;
		if (gc_enabled) {
			gc_count++;
			if (gc_count > gc_threshold) {
				gc_collect();
			}
		}
		return obj;
	}

	ulong bench_baseline(ulong iters) {
		ulong t0 = __rdtsc();
		for (ulong i = 0; i < iters; i++) { }
		ulong t1 = __rdtsc();
		return t1 - t0;
	}
	ulong bench_alloc(ulong iters) {
		ulong t0 = __rdtsc();
		for (ulong i = 0; i < iters; i++) { py_gc_alloc(24); }
		ulong t1 = __rdtsc();
		return t1 - t0;
	}
	`, attr)
}

// Python is one built interpreter.
type Python struct {
	Build Build
	sys   *core.System
}

// BuildPython compiles one flavor.
func BuildPython(b Build, obs ...core.Observers) (*Python, error) {
	sys, err := core.BuildSystem(core.GenOptions{}, core.Observed(obs),
		core.Source{Name: "cpython", Text: pySource(b)})
	if err != nil {
		return nil, err
	}
	return &Python{Build: b, sys: sys}, nil
}

// System exposes the underlying system.
func (p *Python) System() *core.System { return p.sys }

// SetGCEnabled models gc.enable()/gc.disable(); the multiversed build
// commits after the API call.
func (p *Python) SetGCEnabled(on bool) error {
	v := uint64(0)
	if on {
		v = 1
	}
	if p.Build == Plain {
		return p.sys.Machine.WriteGlobal("gc_enabled", 4, v)
	}
	if err := p.sys.SetSwitch("gc_enabled", int64(v)); err != nil {
		return err
	}
	_, err := p.sys.RT.Commit()
	return err
}

// Collections reports how many gen-0 collections ran.
func (p *Python) Collections() (uint64, error) {
	return p.sys.Machine.ReadGlobal("collections", 8)
}

// Measure returns cycles per object allocation.
func (p *Python) Measure(samples int, iters uint64) (bench.Result, error) {
	one := func() (float64, error) {
		total, err := p.sys.Machine.CallNamed("bench_alloc", iters)
		if err != nil {
			return 0, err
		}
		base, err := p.sys.Machine.CallNamed("bench_baseline", iters)
		if err != nil {
			return 0, err
		}
		if total < base {
			return 0, nil
		}
		return float64(total-base) / float64(iters), nil
	}
	for i := 0; i < 2; i++ {
		if _, err := one(); err != nil {
			return bench.Result{}, err
		}
	}
	var firstErr error
	res := bench.Measure(samples, func() float64 {
		v, err := one()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	})
	return res, firstErr
}
