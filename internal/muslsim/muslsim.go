// Package muslsim reproduces the musl C library case study (§6.2.2,
// Figure 5): the owner-less __lock() and the stdio __lockfile() are
// extended to skip locking while only one thread runs, keyed on musl's
// existing threads_minus_1 variable. The multiversed build marks that
// variable as a configuration switch and the lock functions as
// variation points; the plain build evaluates the check dynamically on
// every invocation, like unmodified musl.
//
// Three libc functions are benchmarked exactly as in the paper:
// random(), malloc(0)/malloc(1) (the specification's special case gets
// its own column), and fputc() into a buffered FILE.
package muslsim

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
)

// Build selects the libc flavor.
type Build int

// The two builds of Figure 5.
const (
	Plain      Build = iota // unmodified musl: dynamic threads_minus_1 checks
	Multiverse              // multiversed locks, committed per thread count
)

func (b Build) String() string {
	if b == Multiverse {
		return "w/ Multiverse"
	}
	return "w/o Multiverse"
}

// muslSource builds the mini-libc. The attribute placeholder makes the
// same code compile as either flavor, mirroring how small the paper's
// musl patch is (67 lines, 10 files).
func muslSource(b Build) string {
	attr := ""
	if b == Multiverse {
		attr = "multiverse "
	}
	return fmt.Sprintf(`
	%[1]sint threads_minus_1;

	// ---- locking (musl __lock / __unlock, owner-less) ----
	%[1]svoid __lock(ulong* l) {
		if (threads_minus_1) {
			while (__xchg(l, 1)) {
				while (*l) { __pause(); }
			}
		}
	}
	%[1]svoid __unlock(ulong* l) {
		if (threads_minus_1) { *l = 0; }
	}
	// stdio FILE locking (__lockfile / __unlockfile)
	%[1]svoid __lockfile(ulong* l) {
		if (threads_minus_1) {
			while (__xchg(l, 1)) {
				while (*l) { __pause(); }
			}
		}
	}
	%[1]svoid __unlockfile(ulong* l) {
		if (threads_minus_1) { *l = 0; }
	}

	// ---- random(): musl's 64-bit LCG behind the lib lock ----
	ulong rand_state;
	ulong rand_lock;
	long random_(void) {
		__lock(&rand_lock);
		rand_state = rand_state * 6364136223846793005 + 1442695040888963407;
		long r = (long)(rand_state >> 33);
		__unlock(&rand_lock);
		return r;
	}
	void srandom_(ulong seed) { rand_state = seed; }

	// ---- malloc/free: size-class bins with a 16-byte header ----
	char heap[262144];
	ulong heap_off;
	ulong bins[16];
	ulong malloc_lock;

	char* malloc_(ulong n) {
		__lock(&malloc_lock);
		ulong sz = n;
		if (sz == 0) { sz = 1; }
		ulong c = (sz + 15) / 16;
		char* p;
		if (bins[c]) {
			p = (char*)bins[c];
			ulong* q = (ulong*)p;
			bins[c] = *q;
		} else {
			p = heap + heap_off;
			heap_off += c * 16 + 16;
		}
		ulong* hdr = (ulong*)p;
		*hdr = c;
		__unlock(&malloc_lock);
		return p + 16;
	}
	void free_(char* p) {
		if (p == (char*)0) { return; }
		char* base = p - 16;
		ulong* hdr = (ulong*)base;
		ulong c = *hdr;
		__lock(&malloc_lock);
		ulong* q = (ulong*)base;
		*q = bins[c];
		bins[c] = (ulong)base;
		__unlock(&malloc_lock);
	}

	// ---- mem helpers + calloc/realloc on top of malloc ----
	void memset_(char* p, int v, ulong n) {
		for (ulong i = 0; i < n; i++) { p[i] = (char)v; }
	}
	void memcpy_(char* d, char* s, ulong n) {
		for (ulong i = 0; i < n; i++) { d[i] = s[i]; }
	}
	char* calloc_(ulong nmemb, ulong size) {
		ulong total = nmemb * size;
		char* p = malloc_(total);
		if (p) { memset_(p, 0, total); }
		return p;
	}
	char* realloc_(char* p, ulong n) {
		if (p == (char*)0) { return malloc_(n); }
		char* base = p - 16;
		ulong* hdr = (ulong*)base;
		ulong oldc = *hdr;
		ulong want = n;
		if (want == 0) { want = 1; }
		ulong newc = (want + 15) / 16;
		if (newc <= oldc) { return p; }
		char* q = malloc_(n);
		memcpy_(q, p, oldc * 16);
		free_(p);
		return q;
	}

	// ---- fputc into a buffered FILE ----
	char fbuf[4096];
	ulong fpos;
	ulong file_lock;
	ulong flushed_bytes;
	int fputc_(int c) {
		__lockfile(&file_lock);
		fbuf[fpos] = (char)c;
		fpos++;
		if (fpos == 4096) {
			flushed_bytes += fpos;
			fpos = 0;
			__outb(2, 1); // the write(2) "syscall"
		}
		__unlockfile(&file_lock);
		return c;
	}

	// ---- benchmark loops (10 M invocations in the paper) ----
	ulong bench_baseline(ulong iters) {
		ulong t0 = __rdtsc();
		for (ulong i = 0; i < iters; i++) { }
		ulong t1 = __rdtsc();
		return t1 - t0;
	}
	ulong bench_random(ulong iters) {
		ulong t0 = __rdtsc();
		for (ulong i = 0; i < iters; i++) { random_(); }
		ulong t1 = __rdtsc();
		return t1 - t0;
	}
	ulong bench_malloc(ulong iters, ulong n) {
		ulong t0 = __rdtsc();
		for (ulong i = 0; i < iters; i++) {
			char* p = malloc_(n);
			free_(p);
		}
		ulong t1 = __rdtsc();
		return t1 - t0;
	}
	ulong bench_fputc(ulong iters) {
		ulong t0 = __rdtsc();
		for (ulong i = 0; i < iters; i++) { fputc_('a'); }
		ulong t1 = __rdtsc();
		return t1 - t0;
	}
	`, attr)
}

// Musl is one built libc.
type Musl struct {
	Build Build
	sys   *core.System
}

// BuildMusl compiles one flavor.
func BuildMusl(b Build, obs ...core.Observers) (*Musl, error) {
	sys, err := core.BuildSystem(core.GenOptions{}, core.Observed(obs),
		core.Source{Name: "musl", Text: muslSource(b)})
	if err != nil {
		return nil, err
	}
	return &Musl{Build: b, sys: sys}, nil
}

// System exposes the underlying system.
func (m *Musl) System() *core.System { return m.sys }

// SetThreads switches between the single- and multi-threaded mode
// (threads_minus_1 ∈ {0, 1}); the multiversed build commits, like the
// paper's pthread_create/exit hook calling multiverse_commit().
func (m *Musl) SetThreads(multi bool) error {
	v := uint64(0)
	if multi {
		v = 1
	}
	if m.Build == Plain {
		return m.sys.Machine.WriteGlobal("threads_minus_1", 4, v)
	}
	if err := m.sys.SetSwitch("threads_minus_1", int64(v)); err != nil {
		return err
	}
	_, err := m.sys.RT.Commit()
	return err
}

// Func identifies one benchmarked libc function.
type Func int

// The benchmarked functions of Figure 5.
const (
	FnRandom Func = iota
	FnMalloc0
	FnMalloc1
	FnFputc
)

func (f Func) String() string {
	switch f {
	case FnRandom:
		return "random()"
	case FnMalloc0:
		return "malloc(0)"
	case FnMalloc1:
		return "malloc(1)"
	case FnFputc:
		return "fputc('a')"
	}
	return "?"
}

// Funcs lists all benchmarked functions in figure order.
func Funcs() []Func { return []Func{FnRandom, FnMalloc0, FnMalloc1, FnFputc} }

// Measure returns cycles per invocation of the given function.
func (m *Musl) Measure(f Func, samples int, iters uint64) (bench.Result, error) {
	one := func() (float64, error) {
		var total, base uint64
		var err error
		switch f {
		case FnRandom:
			total, err = m.sys.Machine.CallNamed("bench_random", iters)
		case FnMalloc0:
			total, err = m.sys.Machine.CallNamed("bench_malloc", iters, 0)
		case FnMalloc1:
			total, err = m.sys.Machine.CallNamed("bench_malloc", iters, 1)
		case FnFputc:
			total, err = m.sys.Machine.CallNamed("bench_fputc", iters)
		}
		if err != nil {
			return 0, err
		}
		base, err = m.sys.Machine.CallNamed("bench_baseline", iters)
		if err != nil {
			return 0, err
		}
		if total < base {
			return 0, nil
		}
		return float64(total-base) / float64(iters), nil
	}
	// Warmup.
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

// CyclesToMilliseconds scales a per-op cycle count to the paper's
// metric: accumulated milliseconds for 10 million invocations on a
// 3 GHz part.
func CyclesToMilliseconds(cyclesPerOp float64) float64 {
	const invocations = 10_000_000
	const hz = 3e9
	return cyclesPerOp * invocations / hz * 1000
}

// FputcBandwidthMiBs converts a per-fputc cycle count into the paper's
// output-bandwidth metric (one byte per invocation, 3 GHz).
func FputcBandwidthMiBs(cyclesPerOp float64) float64 {
	const hz = 3e9
	bytesPerSecond := hz / cyclesPerOp
	return bytesPerSecond / (1 << 20)
}

// BranchStats returns the total branches executed by the machine so
// far; the paper attributes the musl speedup to "call-site inlining
// and the thereby reduced number of branches (−40 % for malloc(1))".
func (m *Musl) BranchStats() uint64 {
	return m.sys.Machine.CPU.Stats().Branches
}
