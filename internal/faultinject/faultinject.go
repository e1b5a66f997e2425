// Package faultinject provides a seeded, deterministic fault injector
// for the simulated multiverse stack.
//
// The paper's runtime library rewrites a live text segment (§3.5:
// protection flips, icache shootdowns, interrupt-window hazards), and
// every one of those steps can fail on a real machine: mprotect
// returns EPERM, an interrupt lands mid-write and leaves a torn rel32,
// a shootdown IPI is lost, a spurious fault hits an instruction fetch.
// None of the simulated layers could provoke such failures, so the
// crash-consistency machinery in core had nothing to push against.
// This package closes that gap in the same spirit as WASM-MUTATE's
// adversarial binary perturbation: a Plan is a finite set of fault
// points, keyed by deterministic operation counts (per kind, per
// hardware thread) or simulated cycles, that the mem and cpu hot paths
// consult through nil-checkable hooks (mem.Injector, cpu.Injector —
// the same pattern as trace.Tracer, so the uninjected fast paths stay
// untouched).
//
// Every fault point fires exactly once. That makes retry loops
// provably terminating: a bounded retry against a finite plan either
// exhausts the plan's faults for that operation or gives up with the
// image rolled back, which is exactly the property the chaos harness
// (internal/chaos, cmd/mvstress) asserts seed by seed.
package faultinject

import (
	"fmt"
	"math/rand"

	"repro/internal/machine"
	"repro/internal/mem"
)

// Kind classifies an injected fault.
type Kind uint8

// The injectable fault kinds.
const (
	// KindProtect fails a mem.Protect call before it mutates any page
	// — the mprotect EPERM/EAGAIN of a user-mode patching runtime.
	KindProtect Kind = iota
	// KindWriteTear interrupts a multi-byte text write after Tear
	// bytes, leaving a torn call-site (a partial rel32) in memory.
	KindWriteTear
	// KindDropFlush silently drops an icache invalidation on one
	// hardware thread — a lost SMP shootdown IPI.
	KindDropFlush
	// KindFetchFault raises a spurious fault on an instruction fetch;
	// the PC does not advance, so re-stepping retries the fetch.
	KindFetchFault
	// KindPokeStep interposes on a text-poke protocol phase: when it
	// fires, the plan invokes OnPokeStep, which a chaos harness points
	// at "step the victim CPUs now" — landing guest execution exactly
	// between two phases of the breakpoint protocol, where a torn
	// instruction would be fetchable if the protocol were wrong.
	KindPokeStep
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindProtect:
		return "protect"
	case KindWriteTear:
		return "write-tear"
	case KindDropFlush:
		return "drop-flush"
	case KindFetchFault:
		return "fetch-fault"
	case KindPokeStep:
		return "poke-step"
	}
	return "unknown"
}

// Point is one armed fault. Protect and write-tear points count
// text-segment operations machine-wide; drop-flush points count flush
// deliveries per hardware thread; fetch faults fire at the first fetch
// at or after Cycle on their thread.
type Point struct {
	Kind Kind
	// Op is the zero-based index of the matching operation the point
	// fires on (per kind; per CPU for KindDropFlush).
	Op uint64
	// CPU binds KindDropFlush and KindFetchFault to one hardware
	// thread (the machine's CPU index).
	CPU int
	// Cycle arms KindFetchFault: the fault fires at the first fetch on
	// CPU at or after this simulated cycle.
	Cycle uint64
	// Transient marks the fault retryable: the same operation, retried,
	// succeeds (the point has fired and is disarmed). Non-transient
	// faults model hard failures the commit must abort on.
	Transient bool
	// Tear is the number of bytes a KindWriteTear write lands before
	// faulting (clamped to the write length).
	Tear int
	// Window scopes a KindDropFlush point to text-poke windows: the
	// point only matches while a BRK byte is planted (between phases 1
	// and 3). Losing the shootdown exactly there is the hardest case
	// for the protocol's per-phase acknowledge loop.
	Window bool
}

// Fault is the error an armed point produces when it fires.
type Fault struct {
	Point Point
	Addr  uint64
	inner error // the wrapped *mem.Fault of a fetch fault
}

// Error implements the error interface.
func (f *Fault) Error() string {
	kind := "injected " + f.Point.Kind.String()
	if f.Point.Transient {
		kind += " (transient)"
	}
	return fmt.Sprintf("faultinject: %s fault at %#x", kind, f.Addr)
}

// Unwrap exposes the underlying *mem.Fault of a fetch fault, so
// errors.As sees the architectural fault metadata through every layer.
func (f *Fault) Unwrap() error { return f.inner }

// FaultTransient reports whether retrying the faulted operation may
// succeed. The crash-consistency layer in core discovers it through an
// errors.As interface probe, keeping core free of a faultinject
// dependency.
func (f *Fault) FaultTransient() bool { return f.Point.Transient }

// Stats counts what a plan actually injected.
type Stats struct {
	Protect    uint64
	WriteTears uint64
	DropFlush  uint64
	FetchFault uint64
	PokeSteps  uint64
}

// Total returns the number of faults fired.
func (s Stats) Total() uint64 {
	return s.Protect + s.WriteTears + s.DropFlush + s.FetchFault + s.PokeSteps
}

type textRange struct{ lo, hi uint64 }

// Plan is a finite, deterministic set of armed fault points. It
// implements mem.Injector, cpu.Injector and machine.Injector. A Plan
// is not safe for concurrent use; the simulator interleaves CPUs on
// one goroutine, matching that model.
type Plan struct {
	points []Point
	fired  []bool
	ops    map[opKey]uint64
	text   []textRange

	// fetchPoints counts the KindFetchFault points, so FetchArmed and
	// FetchFault return at once for a plan without any.
	fetchPoints int

	// pokeOpen tracks whether a text-poke breakpoint window is open
	// (between protocol phases 1 and 3); Window-scoped drop-flush
	// points only match while it is.
	pokeOpen bool

	// OnPokeStep, when non-nil, is invoked each time a KindPokeStep
	// point fires, with the just-completed phase and the poked range.
	// The chaos harness points it at its victim-CPU stepper so guest
	// execution lands between protocol phases.
	OnPokeStep func(phase int, addr, n uint64)

	// Stats counts fired faults by kind.
	Stats Stats
}

// opKey identifies one deterministic operation counter: mem-side kinds
// use cpu == -1, CPU-bound kinds count per hardware thread.
type opKey struct {
	kind Kind
	cpu  int
}

// Exact returns a plan firing exactly the given points.
func Exact(points ...Point) *Plan {
	p := &Plan{
		points: append([]Point(nil), points...),
		fired:  make([]bool, len(points)),
		ops:    make(map[opKey]uint64),
	}
	for _, pt := range points {
		if pt.Kind == KindFetchFault {
			p.fetchPoints++
		}
	}
	return p
}

// Opts bounds the seeded plan generator.
type Opts struct {
	// Points is the number of fault points to arm (default 4).
	Points int
	// CPUs is how many hardware threads CPU-bound faults may target
	// (default 1).
	CPUs int
	// MaxOp bounds the operation index of protect/tear/flush points
	// (default 24): points beyond the run's operation count simply
	// never fire, which is fine — a chaos seed need not use its whole
	// plan.
	MaxOp uint64
	// MaxCycle bounds the arming cycle of fetch faults (default 1e6).
	MaxCycle uint64
	// Kinds restricts the generated kinds (default: the four legacy
	// kinds, so pre-existing seeds keep producing identical plans).
	Kinds []Kind
	// Poke adds the text-poke fault kinds to the default set:
	// KindPokeStep points, plus Window-scoped drop-flush points that
	// only fire inside a BRK window. Ignored when Kinds is set.
	Poke bool
}

// New generates a deterministic plan from a seed: the same seed and
// options always arm the same points.
func New(seed int64, o Opts) *Plan {
	if o.Points <= 0 {
		o.Points = 4
	}
	if o.CPUs <= 0 {
		o.CPUs = 1
	}
	if o.MaxOp == 0 {
		o.MaxOp = 24
	}
	if o.MaxCycle == 0 {
		o.MaxCycle = 1_000_000
	}
	kinds := o.Kinds
	if len(kinds) == 0 {
		kinds = []Kind{KindProtect, KindWriteTear, KindDropFlush, KindFetchFault}
		if o.Poke {
			kinds = append(kinds, KindPokeStep)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	points := make([]Point, o.Points)
	for i := range points {
		pt := Point{
			Kind:      kinds[rng.Intn(len(kinds))],
			Op:        uint64(rng.Int63n(int64(o.MaxOp))),
			CPU:       rng.Intn(o.CPUs),
			Transient: rng.Intn(2) == 0,
		}
		switch pt.Kind {
		case KindWriteTear:
			pt.Tear = 1 + rng.Intn(4) // always short of a full rel32
		case KindFetchFault:
			pt.Cycle = uint64(rng.Int63n(int64(o.MaxCycle)))
			pt.Transient = true // spurious by definition: a retry fetches fine
		case KindDropFlush:
			pt.Transient = true // re-issuing the flush delivers it
			if o.Poke {
				pt.Window = rng.Intn(2) == 0
			}
		case KindPokeStep:
			pt.Transient = true // interleaving steps is not a failure
		}
		points[i] = pt
	}
	return Exact(points...)
}

// Points returns the plan's armed points (fired or not).
func (p *Plan) Points() []Point { return append([]Point(nil), p.points...) }

// Remaining returns how many points have not fired yet.
func (p *Plan) Remaining() int {
	n := 0
	for _, f := range p.fired {
		if !f {
			n++
		}
	}
	return n
}

// Attach wires the plan into a machine: the memory system, every
// hardware thread (current and future), and the text ranges write
// tears are scoped to (injecting tears into guest data stores would
// perturb program semantics rather than the patching runtime).
func (p *Plan) Attach(m *machine.Machine) {
	p.text = p.text[:0]
	for _, seg := range m.Image.Segments {
		if seg.Prot&mem.Exec != 0 {
			p.text = append(p.text, textRange{seg.Addr, seg.Addr + uint64(len(seg.Data))})
		}
	}
	m.SetInjector(p)
}

// Detach removes any injector from the machine, restoring the
// hook-free fast paths.
func Detach(m *machine.Machine) { m.SetInjector(nil) }

func (p *Plan) inText(addr uint64) bool {
	for _, r := range p.text {
		if addr >= r.lo && addr < r.hi {
			return true
		}
	}
	return false
}

// bump returns the current operation index for the key and advances it.
func (p *Plan) bump(k Kind, cpu int) uint64 {
	key := opKey{k, cpu}
	n := p.ops[key]
	p.ops[key] = n + 1
	return n
}

// take fires and disarms the first matching unfired point.
func (p *Plan) take(match func(pt Point) bool) (Point, bool) {
	for i, pt := range p.points {
		if !p.fired[i] && match(pt) {
			p.fired[i] = true
			return pt, true
		}
	}
	return Point{}, false
}

// ProtectFault implements mem.Injector.
func (p *Plan) ProtectFault(addr, length uint64, prot mem.Prot) error {
	n := p.bump(KindProtect, -1)
	pt, ok := p.take(func(pt Point) bool { return pt.Kind == KindProtect && pt.Op == n })
	if !ok {
		return nil
	}
	p.Stats.Protect++
	return &Fault{Point: pt, Addr: addr}
}

// WriteTear implements mem.Injector. Only text-segment writes are
// considered: those are exactly the patching runtime's stores (guest
// code cannot write executable pages), so guest data stores never
// consume operation counts and determinism survives workload changes.
func (p *Plan) WriteTear(addr uint64, n int) (int, error) {
	if !p.inText(addr) {
		return 0, nil
	}
	op := p.bump(KindWriteTear, -1)
	pt, ok := p.take(func(pt Point) bool { return pt.Kind == KindWriteTear && pt.Op == op })
	if !ok {
		return 0, nil
	}
	p.Stats.WriteTears++
	tear := pt.Tear
	if tear >= n {
		tear = n - 1 // a "tear" that lands everything is not a tear
		if tear < 0 {
			tear = 0
		}
	}
	return tear, &Fault{Point: pt, Addr: addr}
}

// DropFlush implements cpu.Injector. Window-scoped points only match
// while a text-poke breakpoint window is open.
func (p *Plan) DropFlush(cpu int, addr, n uint64) bool {
	op := p.bump(KindDropFlush, cpu)
	_, ok := p.take(func(pt Point) bool {
		return pt.Kind == KindDropFlush && pt.CPU == cpu && pt.Op == op &&
			(!pt.Window || p.pokeOpen)
	})
	if ok {
		p.Stats.DropFlush++
	}
	return ok
}

// PokePhase implements machine.PokePhaser: it tracks the open BRK
// window for Window-scoped drop-flush points and fires any armed
// KindPokeStep point, handing control to OnPokeStep so the harness can
// interleave victim-CPU steps between protocol phases.
func (p *Plan) PokePhase(phase int, addr, n uint64) {
	switch phase {
	case 1:
		p.pokeOpen = true
	case 3:
		p.pokeOpen = false
	}
	op := p.bump(KindPokeStep, -1)
	_, ok := p.take(func(pt Point) bool { return pt.Kind == KindPokeStep && pt.Op == op })
	if !ok {
		return
	}
	p.Stats.PokeSteps++
	if p.OnPokeStep != nil {
		p.OnPokeStep(phase, addr, n)
	}
}

// FetchArmed implements cpu.Injector: it reports whether an unfired
// KindFetchFault point is bound to cpu. A CPU without one runs
// superblocks, since FetchFault could not fail any of its fetches.
func (p *Plan) FetchArmed(cpu int) bool {
	if p.fetchPoints == 0 {
		return false
	}
	for i, pt := range p.points {
		if !p.fired[i] && pt.Kind == KindFetchFault && pt.CPU == cpu {
			return true
		}
	}
	return false
}

// FetchFault implements cpu.Injector.
func (p *Plan) FetchFault(cpu int, pc, cycles uint64) error {
	if p.fetchPoints == 0 {
		return nil
	}
	pt, ok := p.take(func(pt Point) bool {
		return pt.Kind == KindFetchFault && pt.CPU == cpu && cycles >= pt.Cycle
	})
	if !ok {
		return nil
	}
	p.Stats.FetchFault++
	return &Fault{
		Point: pt,
		Addr:  pc,
		inner: &mem.Fault{Addr: pc, Kind: mem.AccessExec, Prot: mem.RX, Mapped: true},
	}
}

// Plan satisfies the union injector interface (and with it the mem-
// and cpu-side hooks it embeds), plus the poke-phase observer the
// machine probes for during text pokes.
var (
	_ machine.Injector   = (*Plan)(nil)
	_ machine.PokePhaser = (*Plan)(nil)
)
