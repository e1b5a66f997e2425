package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/faultinject"
	"repro/internal/trace"
)

// runConcurrent is the cross-modifying-commit property run: unlike the
// quiesced Run loop, runtime operations land while workload CPUs are
// mid-function, parked at arbitrary instruction boundaries between
// seeded interleave quanta. The runtime — not the harness — is
// responsible for making that safe, via the stop-machine rendezvous
// (Mode "stop") or the BRK text-poke protocol plus activeness
// deferral (Mode "poke"). The properties checked:
//
//   - no CPU ever fetches a torn instruction: every step either
//     decodes a whole (old or new) instruction or traps on a BRK, and
//     a BRK trap is only ever observed inside an open poke window,
//   - aborted operations leave a byte-identical, BRK-free image,
//   - core.Runtime.Audit stays green after every operation,
//   - rebindings deferred by the stack-activeness check drain once
//     the CPUs quiesce, and the workload's semantic models hold at
//     every quiescent point,
//   - the final revert restores the boot-time image bit for bit.
//
// Per-CPU quanta derive from the seed (or cfg.Quanta pins them), so a
// failing seed replays the exact schedule.
func runConcurrent(seed int64, cfg Config) (res Result, err error) {
	res = Result{Seed: seed}
	if cfg.CPUs <= 0 {
		cfg.CPUs = 1
	}
	if cfg.Mode == "" {
		cfg.Mode = "stop"
	}
	var mode core.CommitMode
	switch cfg.Mode {
	case "stop":
		mode = core.ModeStopMachine
	case "poke":
		mode = core.ModeTextPoke
	default:
		return res, fmt.Errorf("chaos: unknown concurrent mode %q (want stop or poke)", cfg.Mode)
	}
	onActive := core.ActiveDefer
	switch cfg.OnActive {
	case "", "defer":
	case "osr":
		onActive = core.ActiveOSR
	default:
		return res, fmt.Errorf("chaos: unknown onactive policy %q (want defer or osr)", cfg.OnActive)
	}

	w, err := buildWorkload(cfg.Workload)
	if err != nil {
		return res, err
	}
	sys := w.system()
	m, rt := sys.Machine, sys.RT
	m.MaxSteps = maxCallSteps

	// Flight recorder: failed runs carry their last commit-lifecycle
	// events (see Run).
	rec := trace.NewRecorder(0)
	core.Observers{Flight: rec}.Attach(m, rt)
	defer func() {
		if err != nil {
			d := rec.Dump("chaos property violation")
			res.FlightDump = &d
		}
	}()

	pristine, err := snapshotExec(m)
	if err != nil {
		return res, err
	}

	cpus := []*cpu.CPU{m.CPU}
	if cfg.CPUs >= 2 {
		second, err := m.AddCPU()
		if err != nil {
			return res, err
		}
		cpus = append(cpus, second)
	}

	// Quanta derive from the seed; cfg.Quanta overrides the values but
	// the draws still happen, so a pinned replay sees the same rng
	// stream as the run that recorded them.
	rng := rand.New(rand.NewSource(seed))
	quanta := make([]int, len(cpus))
	for i := range quanta {
		quanta[i] = 1 + rng.Intn(97)
	}
	if len(cfg.Quanta) == len(cpus) {
		copy(quanta, cfg.Quanta)
	}
	res.Quanta = quanta

	rt.SetCommitOptions(core.CommitOptions{Mode: mode, OnActive: onActive})

	// pokeOpen tracks whether a BRK window is currently planted; a trap
	// observed while it is false is a torn or residual BRK — the
	// central property violation. hookErr carries violations detected
	// while stepping victims from inside the poke hooks (where we
	// cannot return an error) out to the operation loop.
	pokeOpen := false
	var hookErr error

	// stepCPU advances one workload CPU up to n instructions, riding
	// out injected fetch faults (the PC holds, so the next step
	// retries) and parking trapped CPUs on the BRK pause loop.
	stepCPU := func(i int, c *cpu.CPU, n int) error {
		for k := 0; k < n && !c.Halted(); k++ {
			err := c.Step()
			if err == nil {
				continue
			}
			if IsInjectedFetchFault(err) {
				continue
			}
			if tf := cpu.AsTrap(err); tf != nil {
				res.Traps++
				if !pokeOpen {
					return fmt.Errorf("chaos: cpu %d trapped on BRK at %#x outside any poke window (torn or residual poke)", i, tf.PC)
				}
				c.PauseSpin()
				return nil // parked at the site until the poke completes
			}
			return fmt.Errorf("chaos: cpu %d at %#x: %w", i, c.PC(), err)
		}
		return nil
	}

	// Victim stepping between poke phases: the hook lands guest
	// execution inside the open BRK window, which is where torn
	// fetches would hide. A second stream keeps hook-consumed
	// randomness from shifting the operation schedule.
	vrng := rand.New(rand.NewSource(seed ^ 0x5ee5eed5eed))
	stepVictims := func(burst func() int) {
		if hookErr != nil {
			return
		}
		for i, c := range cpus {
			if err := stepCPU(i, c, burst()); err != nil {
				hookErr = err
				return
			}
		}
	}
	m.PokeHook = func(phase int, addr, n uint64) {
		switch phase {
		case 1:
			pokeOpen = true
		case 3:
			pokeOpen = false
			return
		}
		stepVictims(func() int { return 1 + vrng.Intn(8) })
	}
	defer func() { m.PokeHook = nil }()

	plan := faultinject.New(seed, faultinject.Opts{
		Points:   cfg.Faults,
		CPUs:     len(cpus),
		MaxOp:    uint64(4 * cfg.Steps),
		MaxCycle: 2_000_000,
		Poke:     mode == core.ModeTextPoke,
	})
	// Injected poke-step points pile extra victim execution onto
	// randomly chosen phases, beyond the hook's deterministic bursts.
	plan.OnPokeStep = func(phase int, addr, n uint64) {
		stepVictims(func() int { return 1 + vrng.Intn(16) })
	}
	plan.Attach(m)
	defer faultinject.Detach(m)
	defer func() {
		res.Retries = rt.Stats.CommitRetries
		res.FlushFixes = rt.Stats.FlushRetries
		res.FaultsFired = plan.Stats.Total()
		res.Deferred = rt.Stats.DeferredPatches
		res.OSRTransfers = rt.Stats.OSRTransfers
		res.OSRFallbacks = rt.Stats.OSRFallbacks
		res.OSRRollbacks = rt.Stats.OSRRollbacks
	}()

	// drainDeferred retries DrainDeferred across injected aborts; the
	// plan is finite, so a bounded retry loop must converge.
	drainDeferred := func() error {
		return retryAborted("deferred drain", func() error { _, err := rt.DrainDeferred(); return err })
	}

	// drainCPU runs one worker to halt in chunks, rescuing protocol
	// state between chunks: a commit whose activeness check deferred
	// spin_lock (the CPU was inside it) while rebinding spin_unlock
	// leaves a mixed pair, and the worker then leaks the lock word on
	// every iteration — each rescue buys it at least one more
	// iteration, so the chunk count bounds the bench length, not the
	// total step budget.
	drainCPU := func(i int, c *cpu.CPU) error {
		for chunk := 0; chunk < 1024 && !c.Halted(); chunk++ {
			if err := w.rescue(m); err != nil {
				return err
			}
			for k := 0; k < 10_000 && !c.Halted(); k++ {
				err := c.Step()
				if err == nil {
					continue
				}
				if IsInjectedFetchFault(err) {
					continue
				}
				if tf := cpu.AsTrap(err); tf != nil {
					res.Traps++
					return fmt.Errorf("chaos: cpu %d trapped on BRK at %#x while draining — residual poke", i, tf.PC)
				}
				return fmt.Errorf("chaos: draining cpu %d at %#x: %w", i, c.PC(), err)
			}
		}
		if !c.Halted() {
			return fmt.Errorf("chaos: cpu %d never halted while draining (livelocked workload)", i)
		}
		return nil
	}

	// quiesce runs every CPU to halt, applies the deferred queue,
	// re-commits the current configuration and re-normalizes protocol
	// state (racy non-atomic counters, leaked lock words) before a
	// semantic check.
	quiesce := func() error {
		for i, c := range cpus {
			if c.Halted() {
				continue
			}
			if err := drainCPU(i, c); err != nil {
				return err
			}
		}
		if err := drainDeferred(); err != nil {
			return err
		}
		if n := rt.DeferredCount(); n != 0 {
			return fmt.Errorf("chaos: %d deferred ops still queued with all CPUs halted", n)
		}
		// Re-commit plays the operator's retry: an aborted commit leaves
		// the switch ahead of the bindings, and the deferred drain then
		// upgrades only the functions that happened to be queued — each
		// per-function operation is correct in isolation (deferred
		// patches apply against the latest configuration, as in kernel
		// livepatch), but only a fresh whole-image commit restores the
		// cross-function consistency the semantic checks assume.
		if err := retryAborted("re-commit", func() error { _, err := rt.Commit(); return err }); err != nil {
			return err
		}
		if err := rt.Audit(); err != nil {
			return fmt.Errorf("chaos: audit after deferred drain: %w", err)
		}
		return w.rescue(m)
	}

	started := make([]bool, len(cpus))
	for op := 0; op < cfg.Steps; op++ {
		// (Re)start any worker that has not run yet or ran to
		// completion, then advance the interleaving so the operation
		// below lands mid-execution. (A fresh CPU is not halted, so
		// first starts are tracked explicitly.)
		for i, c := range cpus {
			if !started[i] || c.Halted() {
				started[i] = true
				if err := w.startWorker(m, c, i, rng); err != nil {
					return res, fmt.Errorf("seed %d op %d: starting worker %d: %w", seed, op, i, err)
				}
			}
		}
		for r := 1 + rng.Intn(4); r > 0; r-- {
			for i, c := range cpus {
				if err := stepCPU(i, c, quanta[i]); err != nil {
					return res, fmt.Errorf("seed %d op %d: %w", seed, op, err)
				}
			}
		}

		pre, err := snapshotExec(m)
		if err != nil {
			return res, err
		}
		abortsBefore := rt.Stats.CommitAborts

		atomic, opErr := mutate(w, rng, rt)
		res.Ops++
		if hookErr != nil {
			return res, fmt.Errorf("seed %d op %d: %w", seed, op, hookErr)
		}
		if opErr != nil {
			if !errors.Is(opErr, core.ErrCommitAborted) {
				return res, fmt.Errorf("seed %d op %d: operation failed without aborting cleanly: %w", seed, op, opErr)
			}
			res.Aborts++
			if atomic {
				// The rollback must also have removed any planted BRK:
				// byte-identity against the pre-operation snapshot covers it.
				if err := assertExecEqual(m, pre); err != nil {
					return res, fmt.Errorf("seed %d op %d: aborted operation left a modified image: %w", seed, op, err)
				}
			} else if err := retryAborted("revert", rt.Revert); err != nil {
				return res, fmt.Errorf("seed %d op %d: recovering from partial revert: %w", seed, op, err)
			}
		} else if rt.Stats.CommitAborts != abortsBefore {
			return res, fmt.Errorf("seed %d op %d: abort recorded but no error returned", seed, op)
		}
		if cfg.Sabotage > 0 && op+1 == cfg.Sabotage {
			if err := sabotageText(m, rt); err != nil {
				return res, fmt.Errorf("seed %d op %d: sabotage: %w", seed, op, err)
			}
		}
		if err := rt.Audit(); err != nil {
			return res, fmt.Errorf("seed %d op %d: audit: %w", seed, op, err)
		}

		if op%5 == 4 {
			if err := quiesce(); err != nil {
				return res, fmt.Errorf("seed %d op %d: %w", seed, op, err)
			}
			if err := w.check(m, rng); err != nil {
				return res, fmt.Errorf("seed %d op %d: semantic check: %w", seed, op, err)
			}
			res.Checks++
		}
	}

	// Final teardown: quiesce with the plan still armed (a trap here
	// is a residual BRK), then detach, drain anything the last ops
	// deferred, and require the revert to restore the boot image.
	if err := quiesce(); err != nil {
		return res, fmt.Errorf("seed %d: %w", seed, err)
	}
	faultinject.Detach(m)
	if err := drainDeferred(); err != nil {
		return res, fmt.Errorf("seed %d: %w", seed, err)
	}
	if n := rt.DeferredCount(); n != 0 {
		return res, fmt.Errorf("seed %d: %d deferred ops still queued with all CPUs halted", seed, n)
	}
	if err := rt.Revert(); err != nil {
		return res, fmt.Errorf("seed %d: final revert: %w", seed, err)
	}
	if err := rt.Audit(); err != nil {
		return res, fmt.Errorf("seed %d: final audit: %w", seed, err)
	}
	if err := assertExecEqual(m, pristine); err != nil {
		return res, fmt.Errorf("seed %d: final revert is not byte-identical to the boot image: %w", seed, err)
	}
	if err := w.check(m, rng); err != nil {
		return res, fmt.Errorf("seed %d: final semantic check: %w", seed, err)
	}
	res.Checks++
	if onActive == core.ActiveOSR {
		// Under OSR every deferral must be an accounted fallback (no
		// mapped point / frameless body / scratch live) — an eligible
		// commit that still deferred means the transfer path was skipped.
		if d, f := rt.Stats.DeferredPatches, rt.Stats.OSRFallbacks; d != f {
			return res, fmt.Errorf("seed %d: %d deferrals but only %d OSR fallbacks — an OSR-eligible commit was deferred", seed, d, f)
		}
	}
	return res, nil
}
