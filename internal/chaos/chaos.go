// Package chaos drives seeded chaos runs against the multiverse
// runtime: random sequences of commits, reverts and switch flips on a
// real workload (the paper's E1 spinlock kernel or E4 mini-musl),
// with a deterministic fault plan injected into the memory and CPU
// layers, asserting after every operation that the crash-consistency
// guarantees hold:
//
//   - an operation either completes or fails with ErrCommitAborted
//     and a text image byte-identical to its pre-operation snapshot,
//   - core.Runtime.Audit passes at every patchable point,
//   - the workload's semantics survive: E1's preempt_count and
//     lock_word return to zero around every benchmark run, E4's
//     random()/fputc() match a host-side model of musl's LCG and
//     stream position,
//   - after the fault plan is exhausted, a final revert restores the
//     boot-time text image bit for bit.
//
// Runs are deterministic per (seed, Config): the fault plan, the
// operation sequence and the SMP interleaving all derive from the one
// seed, so a failing seed printed by cmd/mvstress reproduces exactly.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/faultinject"
	"repro/internal/kernelsim"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/muslsim"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// Config shapes one chaos run.
type Config struct {
	// Workload is "e1" (spinlock kernel, lock elision via multiverse)
	// or "e4" (mini-musl, thread-count specialized locks).
	Workload string
	// Steps is the number of runtime operations to perform (default 40).
	Steps int
	// Faults is the number of armed fault points (default 6).
	Faults int
	// SMP adds a second hardware thread that executes workload code
	// between runtime operations, exercising cross-CPU shootdowns.
	SMP bool
	// Concurrent switches Run to the cross-modifying-commit property
	// run (concurrent.go): runtime operations land mid-execution,
	// between interleave quanta of running workload CPUs, under
	// ModeStopMachine or ModeTextPoke with activeness deferral. SMP is
	// ignored in this mode; use CPUs.
	Concurrent bool
	// CPUs is the hardware thread count in concurrent mode (1 or 2;
	// default 1).
	CPUs int `json:",omitempty"`
	// Mode selects the concurrent commit mode: "stop" (stop-machine
	// rendezvous) or "poke" (BRK text-poke protocol). Default "stop".
	Mode string `json:",omitempty"`
	// OnActive selects the concurrent activeness policy: "defer"
	// (queue operations against active functions for DrainDeferred) or
	// "osr" (transfer live frames to the target body inside the commit,
	// falling back to defer only when no mapping exists). Default
	// "defer".
	OnActive string `json:",omitempty"`
	// Quanta pins the per-CPU interleave quanta in concurrent mode;
	// when empty they derive from the seed. Result records the
	// effective value so failing-seed artifacts capture the schedule.
	Quanta []int `json:",omitempty"`
	// Sabotage, when > 0, corrupts one text byte behind the runtime's
	// back after that many operations, guaranteeing an audit violation.
	// It exists to test the failure path itself — that a violated run
	// produces a flight-recorder dump in its Result and artifacts.
	Sabotage int `json:",omitempty"`
}

// Result summarizes one run.
type Result struct {
	Seed        int64
	Ops         int    // runtime operations performed
	Aborts      int    // operations that rolled back (ErrCommitAborted)
	Retries     int    // transparent patch retries inside commits
	FlushFixes  int    // dropped shootdowns caught and re-broadcast
	FaultsFired uint64 // fault points that actually fired
	Checks      int    // semantic model checks that passed
	Quanta      []int  `json:",omitempty"` // effective per-CPU interleave quanta (concurrent mode)
	Traps       uint64 // BRK traps taken by workload CPUs inside poke windows
	Deferred    int    // rebindings deferred by the activeness check

	// On-stack replacement counters (OnActive "osr").
	OSRTransfers int `json:",omitempty"` // live frames transferred into new bodies
	OSRFallbacks int `json:",omitempty"` // OSR commits that fell back to deferral
	OSRRollbacks int `json:",omitempty"` // frame transfers undone by aborts

	// FlightDump is the flight recorder's view of the failure: the last
	// commit-lifecycle and fault events before the violated invariant.
	// Nil for passing runs.
	FlightDump *trace.FlightDump `json:",omitempty"`

	// Replay pins a snapshot-based reproduction of non-concurrent runs:
	// the machine+runtime snapshot taken at the quiesced boundary of
	// the most recent operation, plus the host coordinates (rng draws,
	// fault-plan progress, semantic-model state) needed to resume from
	// exactly there. For a failed run that is the op preceding the
	// violation — ReplaySnapshot picks it up. Nil in concurrent mode.
	Replay *ReplayInfo `json:",omitempty"`
}

// maxCallSteps bounds any single guest call during chaos runs.
const maxCallSteps = 5_000_000

// Run executes one seeded chaos run and returns its summary, or an
// error describing the first violated invariant. The Result counters
// are filled in even for failed runs, so failure reports carry the
// fault and retry activity up to the violation. Non-concurrent runs
// additionally keep a replay pin — a machine snapshot taken at the
// quiesced boundary of the most recent operation plus the host-side
// coordinates the snapshot cannot see — so a failing run's Result can
// reproduce from the op preceding the violation (ReplaySnapshot)
// without re-executing the prefix.
func Run(seed int64, cfg Config) (Result, error) {
	if cfg.Steps <= 0 {
		cfg.Steps = 40
	}
	if cfg.Faults <= 0 {
		cfg.Faults = 6
	}
	if cfg.Concurrent {
		return runConcurrent(seed, cfg)
	}
	r, err := newRunner(seed, cfg)
	if err != nil {
		return Result{Seed: seed}, err
	}
	r.capture = r.captureReplay
	return r.run(0)
}

// runner is the non-concurrent chaos engine, factored so a fresh run
// (Run, from op 0) and a snapshot-based replay (ReplaySnapshot, from
// the failing op) execute the identical per-operation body — the
// reproduction guarantee is "same code, different starting point".
type runner struct {
	seed int64
	cfg  Config
	w    workload
	m    *machine.Machine
	rt   *core.Runtime
	src  *countingSource
	rng  *rand.Rand
	plan *faultinject.Plan
	rec  *trace.Recorder

	second        *cpu.CPU
	secondaryBusy bool // StartCall issued and not yet drained to halt

	pristine map[uint64][]byte
	res      Result

	// capture, when non-nil, runs at every quiesced op boundary (each
	// loop top and once before the final revert): Run points it at
	// captureReplay to keep the failure artifact's snapshot fresh.
	capture func(op int) error
}

func newRunner(seed int64, cfg Config) (*runner, error) {
	r := &runner{seed: seed, cfg: cfg, res: Result{Seed: seed}}
	w, err := buildWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	r.w = w
	sys := w.system()
	r.m, r.rt = sys.Machine, sys.RT
	r.m.MaxSteps = maxCallSteps

	// The always-on flight recorder: when any property is violated,
	// the Result carries the last commit-lifecycle events as the
	// failure's causal record (mvstress attaches it to artifacts).
	r.rec = trace.NewRecorder(0)
	core.Observers{Flight: r.rec}.Attach(r.m, r.rt)

	r.pristine, err = snapshotExec(r.m)
	if err != nil {
		return nil, err
	}
	ncpu := 1
	if cfg.SMP {
		ncpu = 2
		r.second, err = r.m.AddCPU()
		if err != nil {
			return nil, err
		}
	}
	r.src = newCountingSource(seed, 0)
	r.rng = rand.New(r.src)
	r.plan = faultinject.New(seed, faultinject.Opts{
		Points:   cfg.Faults,
		CPUs:     ncpu,
		MaxOp:    uint64(4 * cfg.Steps),
		MaxCycle: 2_000_000,
	})
	r.plan.Attach(r.m)
	return r, nil
}

// run executes operations [startOp, Steps) plus the final-revert
// section, then fills in the Result counters and, on failure, the
// flight dump.
func (r *runner) run(startOp int) (Result, error) {
	err := r.body(startOp)
	faultinject.Detach(r.m)
	r.res.Retries = r.rt.Stats.CommitRetries
	r.res.FlushFixes = r.rt.Stats.FlushRetries
	r.res.FaultsFired = r.plan.Stats.Total()
	if pin := r.res.Replay; pin != nil {
		var derr error
		if pin.Digest, derr = snapshot.Digest(pin.Snap); derr != nil && err == nil {
			err = fmt.Errorf("chaos: replay pin at op %d: %w", pin.Op, derr)
		}
	}
	if err != nil {
		d := r.rec.Dump("chaos property violation")
		r.res.FlightDump = &d
	}
	return r.res, err
}

func (r *runner) body(startOp int) error {
	for op := startOp; op < r.cfg.Steps; op++ {
		if err := r.quiesce(op); err != nil {
			return err
		}
		if r.capture != nil {
			if err := r.capture(op); err != nil {
				return err
			}
		}
		if err := r.doOp(op); err != nil {
			return err
		}
	}
	// Drain the secondary and require the final revert to restore the
	// boot image bit for bit.
	if err := r.quiesce(r.cfg.Steps); err != nil {
		return err
	}
	if r.capture != nil {
		if err := r.capture(r.cfg.Steps); err != nil {
			return err
		}
	}
	return r.finish()
}

// quiesce drains the secondary CPU and (before an operation) asserts
// no PC sits inside a patch window — runtime operations and replay
// snapshots both happen only at patchable points.
func (r *runner) quiesce(op int) error {
	if r.secondaryBusy && !r.second.Halted() {
		if err := stepToHalt(r.second, maxCallSteps); err != nil {
			if op >= r.cfg.Steps {
				return fmt.Errorf("seed %d: draining secondary: %w", r.seed, err)
			}
			return fmt.Errorf("seed %d op %d: quiescing secondary: %w", r.seed, op, err)
		}
	}
	r.secondaryBusy = false
	if op >= r.cfg.Steps {
		return nil
	}
	if err := assertOutsidePatchRanges(r.m, r.rt); err != nil {
		return fmt.Errorf("seed %d op %d: %w", r.seed, op, err)
	}
	return nil
}

// captureReplay refreshes the Result's replay pin: a full machine+
// runtime snapshot at this quiesced boundary plus the host-side
// coordinates a snapshot cannot carry — the rng draw count, the fault
// plan's progress and the workload's semantic model. Only the latest
// pin is kept, so on failure it names the op preceding the violation.
// Each pin is captured into the container of the pin it replaces: the
// runner holds the only reference to it until Run returns, and run
// digests only the pin it returns.
func (r *runner) captureReplay(op int) error {
	var buf []byte
	if r.res.Replay != nil {
		buf = r.res.Replay.Snap
	}
	data, err := snapshot.Capture(buf, r.m, r.rt)
	if err != nil {
		return fmt.Errorf("chaos: replay capture at op %d: %w", op, err)
	}
	r.res.Replay = &ReplayInfo{
		Op:       op,
		RngDraws: r.src.draws,
		Plan:     r.plan.Export(),
		Model:    r.w.exportModel(),
		Snap:     data,
	}
	return nil
}

// doOp performs one randomized runtime operation and every invariant
// check attached to it.
func (r *runner) doOp(op int) error {
	seed, m, rt, rng := r.seed, r.m, r.rt, r.rng
	pre, err := snapshotExec(m)
	if err != nil {
		return err
	}
	abortsBefore := rt.Stats.CommitAborts

	atomic, opErr := mutate(r.w, rng, rt)
	r.res.Ops++
	if opErr != nil {
		if !errors.Is(opErr, core.ErrCommitAborted) {
			return fmt.Errorf("seed %d op %d: operation failed without aborting cleanly: %w", seed, op, opErr)
		}
		r.res.Aborts++
		// Single-transaction ops promise all-or-nothing; Revert
		// promises only per-function atomicity plus a green audit,
		// which the Audit below enforces.
		if atomic {
			if err := assertExecEqual(m, pre); err != nil {
				return fmt.Errorf("seed %d op %d: aborted operation left a modified image: %w", seed, op, err)
			}
		} else {
			// A partial revert is per-function consistent but not
			// cross-function consistent: spin_lock may stay bound to
			// the real SMP variant while spin_unlock already reverted
			// to the elided one, which leaks the lock word on the
			// next acquire/release pair. Before running workload code
			// the harness does what an operator would: retry the
			// revert until it goes through (the fault plan is finite,
			// so it must).
			if err := retryAborted("revert", rt.Revert); err != nil {
				return fmt.Errorf("seed %d op %d: recovering from partial revert: %w", seed, op, err)
			}
		}
	} else if rt.Stats.CommitAborts != abortsBefore {
		// Revert aggregates per-function transactions; a partial
		// failure surfaces as an error, so a silent abort is a bug.
		return fmt.Errorf("seed %d op %d: abort recorded but no error returned", seed, op)
	}
	if r.cfg.Sabotage > 0 && op+1 == r.cfg.Sabotage {
		if err := sabotageText(m, rt); err != nil {
			return fmt.Errorf("seed %d op %d: sabotage: %w", seed, op, err)
		}
	}
	if err := rt.Audit(); err != nil {
		return fmt.Errorf("seed %d op %d: audit: %w", seed, op, err)
	}

	// Interleave: restart the secondary on workload code and let it
	// run a random partial quantum against the (possibly re-bound)
	// text.
	if r.second != nil && rng.Intn(2) == 0 {
		if err := r.w.startSecondary(m, r.second, rng); err != nil {
			return fmt.Errorf("seed %d op %d: starting secondary: %w", seed, op, err)
		}
		r.secondaryBusy = true
		if err := stepSome(r.second, rng.Intn(400)); err != nil {
			return fmt.Errorf("seed %d op %d: stepping secondary: %w", seed, op, err)
		}
	}

	// Periodic semantic checks on the primary CPU. The secondary
	// must be drained first: on E1 it may be parked mid-critical-
	// section holding lock_word, and the primary's run-to-completion
	// bench would spin forever against a CPU nobody is stepping.
	if op%5 == 4 {
		if r.secondaryBusy && !r.second.Halted() {
			if err := stepToHalt(r.second, maxCallSteps); err != nil {
				return fmt.Errorf("seed %d op %d: draining secondary before check: %w", seed, op, err)
			}
		}
		r.secondaryBusy = false
		if err := r.w.check(m, rng); err != nil {
			return fmt.Errorf("seed %d op %d: semantic check: %w", seed, op, err)
		}
		r.res.Checks++
	}
	return nil
}

// finish is the end-of-run section: detach faults, revert everything,
// and require the boot-time image and workload semantics back intact.
func (r *runner) finish() error {
	seed, m, rt := r.seed, r.m, r.rt
	faultinject.Detach(m)
	if err := rt.Revert(); err != nil {
		return fmt.Errorf("seed %d: final revert: %w", seed, err)
	}
	if err := rt.Audit(); err != nil {
		return fmt.Errorf("seed %d: final audit: %w", seed, err)
	}
	if err := assertExecEqual(m, r.pristine); err != nil {
		return fmt.Errorf("seed %d: final revert is not byte-identical to the boot image: %w", seed, err)
	}
	if err := r.w.check(m, r.rng); err != nil {
		return fmt.Errorf("seed %d: final semantic check: %w", seed, err)
	}
	r.res.Checks++
	return nil
}

// workload abstracts the two chaos targets.
type workload interface {
	system() *core.System
	// switchName names the configuration switch mutate flips.
	switchName() string
	// startSecondary points an idle secondary CPU at workload code.
	startSecondary(m *machine.Machine, c *cpu.CPU, rng *rand.Rand) error
	// check runs the workload on the primary CPU and compares the
	// observable state against a host-side model.
	check(m *machine.Machine, rng *rand.Rand) error
	// startWorker points an idle CPU at this workload's concurrent
	// worker loop for hardware thread idx, updating any host-side
	// model that tracks the call's completed effects (concurrent
	// workers always run to halt before the next check reads state).
	startWorker(m *machine.Machine, c *cpu.CPU, idx int, rng *rand.Rand) error
	// rescue normalizes cross-function protocol state (lock words,
	// preemption counters) that a mid-critical-section rebinding can
	// legally corrupt: stack activeness defers patches to functions a
	// CPU is inside, but it cannot see that a lock acquired through a
	// real variant is still waiting for its matching unlock when the
	// unlock function itself is idle and gets rebound to the elided
	// variant. The concurrent harness plays the operator and resets
	// those protocol words at quiescent points before semantic checks.
	rescue(m *machine.Machine) error
	// exportModel / importModel carry the host-side semantic model
	// that lives outside the simulated machine (E4's LCG mirror and
	// stream-position counters; E1 keeps none), so a snapshot-based
	// replay resumes with the exact model the original run had — even
	// when the pending violation is a guest/model divergence a resync
	// from guest globals would paper over.
	exportModel() []uint64
	importModel([]uint64)
}

func buildWorkload(name string) (workload, error) {
	switch name {
	case "", "e1":
		ks, err := kernelsim.BuildSpin(kernelsim.SpinMultiverse)
		if err != nil {
			return nil, err
		}
		return &e1Workload{ks: ks}, nil
	case "e4":
		ms, err := muslsim.BuildMusl(muslsim.Multiverse)
		if err != nil {
			return nil, err
		}
		return &e4Workload{ms: ms}, nil
	}
	return nil, fmt.Errorf("chaos: unknown workload %q (want e1 or e4)", name)
}

// mutate performs one random runtime operation on w's switch (switch
// flip + commit, revert, refs-scoped commit, ...). atomic reports
// whether the operation ran as a single transaction, i.e. whether an
// abort guarantees a byte-identical image (Revert deliberately keeps
// per-function progress past failures, so it is not whole-image
// atomic).
func mutate(w workload, rng *rand.Rand, rt *core.Runtime) (atomic bool, err error) {
	sys, name := w.system(), w.switchName()
	switch rng.Intn(4) {
	case 0: // flip the switch and commit everything
		if err := sys.SetSwitch(name, int64(rng.Intn(2))); err != nil {
			return true, err
		}
		_, err := rt.Commit()
		return true, err
	case 1: // revert everything (per-function transactions)
		return false, rt.Revert()
	case 2: // refs-scoped commit on the switch
		addr, ok := rt.VarByName(name)
		if !ok {
			return true, fmt.Errorf("chaos: no %s switch", name)
		}
		if err := sys.SetSwitch(name, int64(rng.Intn(2))); err != nil {
			return true, err
		}
		_, err := rt.CommitRefs(addr)
		return true, err
	default: // commit without changing anything (idempotence)
		_, err := rt.Commit()
		return true, err
	}
}

// --- E1: spinlock kernel -------------------------------------------------

type e1Workload struct {
	ks *kernelsim.SpinSystem
}

func (w *e1Workload) system() *core.System { return w.ks.System() }

func (w *e1Workload) switchName() string { return "config_smp" }

func (w *e1Workload) startSecondary(m *machine.Machine, c *cpu.CPU, rng *rand.Rand) error {
	return m.StartCall(c, "bench_spin", uint64(10+rng.Intn(40)))
}

// startWorker runs the contended lock/unlock loop on every hardware
// thread — with the real SMP variant bound, both CPUs fight over
// lock_word, which is exactly the traffic a cross-modifying commit
// must survive.
func (w *e1Workload) startWorker(m *machine.Machine, c *cpu.CPU, idx int, rng *rand.Rand) error {
	return m.StartCall(c, "bench_spin", uint64(5+rng.Intn(30)))
}

// rescue force-releases lock_word and rebalances preempt_count: a
// rebinding that lands between a real spin_lock and its matching
// spin_unlock leaks the word (the elided unlock never stores 0), and
// two CPUs running the non-atomic preempt_count++/-- race lose
// updates. Both are protocol-level effects of mixed bindings, not
// text-integrity violations, so the harness resets them at quiescent
// points the way an operator would.
func (w *e1Workload) rescue(m *machine.Machine) error {
	if err := m.WriteGlobal("lock_word", 8, 0); err != nil {
		return err
	}
	return m.WriteGlobal("preempt_count", 8, 0)
}

// E1's invariants are all guest-visible; there is no host-side model.
func (w *e1Workload) exportModel() []uint64 { return nil }
func (w *e1Workload) importModel([]uint64)  {}

// check runs the lock/unlock loop to completion and asserts the
// always-true invariants of every consistent binding: the preemption
// counter balances back to zero and the lock word ends released.
func (w *e1Workload) check(m *machine.Machine, rng *rand.Rand) error {
	if _, err := callResumed(m, "bench_spin", uint64(20+rng.Intn(30))); err != nil {
		return err
	}
	lw, err := w.ks.LockWord()
	if err != nil {
		return err
	}
	if lw != 0 {
		return fmt.Errorf("chaos: lock_word = %d after bench_spin, want 0 (leaked lock)", lw)
	}
	pc, err := w.ks.PreemptCount()
	if err != nil {
		return err
	}
	if pc != 0 {
		return fmt.Errorf("chaos: preempt_count = %d after bench_spin, want 0", pc)
	}
	return nil
}

// --- E4: mini-musl --------------------------------------------------------

type e4Workload struct {
	ms *muslsim.Musl

	randState uint64 // host-side model of musl's LCG
	fpos      uint64 // host-side model of the stdio stream position
	flushed   uint64
}

func (w *e4Workload) system() *core.System { return w.ms.System() }

func (w *e4Workload) switchName() string { return "threads_minus_1" }

// startSecondary runs the lock-free baseline loop: the chaos driver
// re-binds lock elision between operations, and only the primary's
// run-to-completion calls are guaranteed to see one consistent
// binding per critical section.
func (w *e4Workload) startSecondary(m *machine.Machine, c *cpu.CPU, rng *rand.Rand) error {
	return m.StartCall(c, "bench_baseline", uint64(50+rng.Intn(200)))
}

// startWorker gives each hardware thread a disjoint slice of libc so
// the host models stay exact under interleaving: thread 0 draws from
// the LCG (check reseeds it, so partial progress is absorbed), thread
// 1 drives the buffered stream, whose position model advances here —
// the call always completes before the next check reads the globals.
func (w *e4Workload) startWorker(m *machine.Machine, c *cpu.CPU, idx int, rng *rand.Rand) error {
	if idx == 0 {
		return m.StartCall(c, "bench_random", uint64(10+rng.Intn(50)))
	}
	k := uint64(50 + rng.Intn(300))
	if err := m.StartCall(c, "bench_fputc", k); err != nil {
		return err
	}
	for i := uint64(0); i < k; i++ {
		w.fpos++
		if w.fpos == 4096 {
			w.flushed += w.fpos
			w.fpos = 0
		}
	}
	return nil
}

// rescue force-releases the three musl lock words that a rebinding
// between a real __lock and its matching elided __unlock can leak.
func (w *e4Workload) rescue(m *machine.Machine) error {
	for _, g := range []string{"rand_lock", "file_lock", "malloc_lock"} {
		if err := m.WriteGlobal(g, 8, 0); err != nil {
			return err
		}
	}
	return nil
}

func (w *e4Workload) exportModel() []uint64 {
	return []uint64{w.randState, w.fpos, w.flushed}
}

func (w *e4Workload) importModel(m []uint64) {
	if len(m) == 3 {
		w.randState, w.fpos, w.flushed = m[0], m[1], m[2]
	}
}

const (
	lcgMul = 6364136223846793005
	lcgAdd = 1442695040888963407
)

// check replays musl semantics against host-side models: the LCG
// behind random_() and the buffered stream position behind fputc_().
func (w *e4Workload) check(m *machine.Machine, rng *rand.Rand) error {
	// Reseed and advance the LCG a known number of steps.
	seed := rng.Uint64()
	if _, err := callResumed(m, "srandom_", seed); err != nil {
		return err
	}
	w.randState = seed
	n := uint64(10 + rng.Intn(30))
	if _, err := callResumed(m, "bench_random", n); err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		w.randState = w.randState*lcgMul + lcgAdd
	}
	got, err := m.ReadGlobal("rand_state", 8)
	if err != nil {
		return err
	}
	if got != w.randState {
		return fmt.Errorf("chaos: rand_state = %#x, model says %#x after %d draws", got, w.randState, n)
	}
	// One direct draw returns the model's next output.
	w.randState = w.randState*lcgMul + lcgAdd
	r, err := callResumed(m, "random_")
	if err != nil {
		return err
	}
	if want := w.randState >> 33; r != want {
		return fmt.Errorf("chaos: random_() = %d, model says %d", r, want)
	}

	// Stream position model for the buffered fputc.
	k := uint64(100 + rng.Intn(400))
	if _, err := callResumed(m, "bench_fputc", k); err != nil {
		return err
	}
	for i := uint64(0); i < k; i++ {
		w.fpos++
		if w.fpos == 4096 {
			w.flushed += w.fpos
			w.fpos = 0
		}
	}
	fpos, err := m.ReadGlobal("fpos", 8)
	if err != nil {
		return err
	}
	flushed, err := m.ReadGlobal("flushed_bytes", 8)
	if err != nil {
		return err
	}
	if fpos != w.fpos || flushed != w.flushed {
		return fmt.Errorf("chaos: stream state fpos=%d flushed=%d, model says fpos=%d flushed=%d",
			fpos, flushed, w.fpos, w.flushed)
	}

	// Exercise malloc/free and require the lock released afterwards.
	if _, err := callResumed(m, "bench_malloc", 20, 16); err != nil {
		return err
	}
	if lock, err := m.ReadGlobal("malloc_lock", 8); err != nil {
		return err
	} else if lock != 0 {
		return fmt.Errorf("chaos: malloc_lock = %d after bench_malloc, want 0 (leaked lock)", lock)
	}
	return nil
}

// --- shared helpers -------------------------------------------------------

// sabotageText corrupts one byte of a runtime-managed text range
// behind the runtime's back (WriteForce bypasses page protection), so
// the next Audit must report a torn-or-tampered site. Used by the
// Sabotage config to exercise the violation path end to end.
func sabotageText(m *machine.Machine, rt *core.Runtime) error {
	ranges := rt.PatchRanges()
	if len(ranges) == 0 {
		return fmt.Errorf("chaos: no patch ranges to sabotage")
	}
	addr := ranges[0].Addr
	var b [1]byte
	if err := m.Mem.Read(addr, b[:]); err != nil {
		return err
	}
	b[0] ^= 0xff
	return m.Mem.WriteForce(addr, b[:])
}

// callResumed invokes a guest function on the primary CPU, transparently
// re-stepping across injected spurious fetch faults (the PC holds, so
// resuming the run retries the same fetch).
func callResumed(m *machine.Machine, name string, args ...uint64) (uint64, error) {
	c := m.CPU
	if err := m.StartCall(c, name, args...); err != nil {
		return 0, err
	}
	for {
		if _, err := c.Run(m.MaxSteps); err != nil {
			if isInjectedFetchFault(err) {
				continue
			}
			return 0, err
		}
		return c.Reg(0), nil
	}
}

// stepToHalt drives a CPU until it halts, riding out injected fetch
// faults.
func stepToHalt(c *cpu.CPU, limit int) error {
	for i := 0; i < limit && !c.Halted(); i++ {
		if err := c.Step(); err != nil && !isInjectedFetchFault(err) {
			return err
		}
	}
	if !c.Halted() {
		return fmt.Errorf("chaos: CPU did not halt within %d steps", limit)
	}
	return nil
}

// stepSome executes up to n instructions (stopping early at halt).
func stepSome(c *cpu.CPU, n int) error {
	for i := 0; i < n && !c.Halted(); i++ {
		if err := c.Step(); err != nil && !isInjectedFetchFault(err) {
			return err
		}
	}
	return nil
}

// retryAborted retries op until it completes without error; what
// names the operation in the error reported when it never does. Each
// aborted attempt consumes at least one armed fault point and plans
// are finite, so the loop terminates; the bound is a backstop against
// runtime regressions that fail persistently without faults. An error
// other than ErrCommitAborted returns at once.
func retryAborted(what string, op func() error) error {
	var err error
	for i := 0; i < 64; i++ {
		if err = op(); err == nil {
			return nil
		}
		if !errors.Is(err, core.ErrCommitAborted) {
			return err
		}
	}
	return fmt.Errorf("chaos: %s still failing after 64 attempts: %w", what, err)
}

// isInjectedFetchFault reports whether err is (or wraps) a spurious
// injected instruction-fetch fault — transient by definition: the PC
// does not advance, so re-running the CPU retries the fetch.
func isInjectedFetchFault(err error) bool {
	var inj *faultinject.Fault
	return errors.As(err, &inj) && inj.Point.Kind == faultinject.KindFetchFault
}

// assertOutsidePatchRanges checks no running CPU's PC sits inside a
// text range the runtime may rewrite — the paper's interrupt-window
// hazard. At chaos op boundaries every CPU is quiesced, so a
// violation means the harness (not the runtime) is broken.
func assertOutsidePatchRanges(m *machine.Machine, rt *core.Runtime) error {
	ranges := rt.PatchRanges()
	for i, c := range m.CPUs() {
		if c.Halted() && i > 0 {
			continue
		}
		pc := c.PC()
		for _, r := range ranges {
			if pc >= r.Addr && pc < r.Addr+r.Len {
				return fmt.Errorf("chaos: cpu %d PC %#x inside patch window [%#x,%#x)", i, pc, r.Addr, r.Addr+r.Len)
			}
		}
	}
	return nil
}

// snapshotExec copies every executable mapping.
func snapshotExec(m *machine.Machine) (map[uint64][]byte, error) {
	snap := make(map[uint64][]byte)
	for _, r := range m.Mem.Regions() {
		if r.Prot&mem.Exec == 0 {
			continue
		}
		buf := make([]byte, r.Len)
		if err := m.Mem.Read(r.Addr, buf); err != nil {
			return nil, err
		}
		snap[r.Addr] = buf
	}
	return snap, nil
}

// assertExecEqual compares the current executable mappings against a
// snapshot, reporting the first differing byte.
func assertExecEqual(m *machine.Machine, snap map[uint64][]byte) error {
	for addr, want := range snap {
		got := make([]byte, len(want))
		if err := m.Mem.Read(addr, got); err != nil {
			return err
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("text byte at %#x: got %#x, want %#x", addr+uint64(i), got[i], want[i])
			}
		}
	}
	return nil
}
