package fleet

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// memberState is the supervision state machine:
//
//	healthy ──fault/kill──▶ down ──restore ok──▶ healthy
//	   ▲                     │ restore failed: backoff in the
//	   │                     │ shard's simulated-cycle ledger,
//	   └──── catch-up ◀──────┘ bounded retries ──▶ failed
//
// A down member holds no live machine; its identity is its last
// checkpoint. Restoring re-executes every round since that
// checkpoint, so recovery never loses requests — it re-serves them.
type memberState uint8

const (
	stateHealthy memberState = iota
	stateDown
	stateFailed
)

func (s memberState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateDown:
		return "down"
	case stateFailed:
		return "failed"
	}
	return "unknown"
}

// Kill phases: where in a round a chaos kill lands.
const (
	killAtBatch   = 0 // power cut mid-batch, between request steps
	killMidCommit = 1 // power cut during the storm's commit
)

// checkpoint is one periodic capture: the canonical machine snapshot
// plus the host-side state the replay needs — the fault plan's
// progress (so replayed rounds re-fire exactly the faults the
// original timeline saw) and the parked-flip flag.
type checkpoint struct {
	round  int // state after completing this round
	snap   []byte
	plan   faultinject.PlanState
	parked bool
}

// member is one fleet machine: a guest system (its current
// incarnation), its recovery state, and its deterministic identity.
type member struct {
	id int
	fl *Fleet
	sh *shard

	// Live incarnation; nil while down.
	m  *machine.Machine
	rt *core.Runtime

	plan *faultinject.Plan // nil without chaos; survives incarnations

	nextRound int // next round this member's timeline will execute
	parked    bool
	ckpt      checkpoint // snap is nil until boot's checkpoint

	state           memberState
	restartAttempts int
	backoffReadyAt  uint64 // shard-cycle ledger value gating the next restore try
	lastCycles      uint64 // CPU cycle watermark for the shard ledger

	// Deterministic per-member tallies (reported, compared across runs).
	restarts   int
	killsTaken int
	lastFault  error // most recent recoverable fault, for diagnostics
	err        error // first unexpected (non-recoverable) error
}

// boot constructs the first incarnation and takes the round-0
// checkpoint every later restore can fall back to.
func (mb *member) boot() error {
	if err := mb.incarnate(); err != nil {
		return err
	}
	if mb.plan != nil {
		mb.plan.Attach(mb.m)
	}
	mb.nextRound = 1
	return mb.checkpoint(0)
}

// incarnate builds a fresh machine+runtime pair from the fleet image
// with the member's commit options, tracer and step budget, its CPU
// sharing lines through the shard's table.
func (mb *member) incarnate() error {
	m, err := machine.New(mb.fl.img, machine.WithLines(mb.sh.lines))
	if err != nil {
		return fmt.Errorf("fleet: machine %d: %w", mb.id, err)
	}
	rt, err := core.NewRuntime(mb.fl.img, &core.UserPlatform{M: m})
	if err != nil {
		return fmt.Errorf("fleet: machine %d: %w", mb.id, err)
	}
	rt.SetCommitOptions(core.CommitOptions{Mode: mb.fl.cfg.Mode, OnActive: core.ActiveRefuse})
	rt.Tracer = &memberTracer{mb: mb}
	m.MaxSteps = mb.fl.cfg.StepBudget
	mb.m, mb.rt = m, rt
	mb.lastCycles = m.CPU.Cycles()
	return nil
}

// syncLedger charges the cycles the live CPU consumed since the last
// sync to the shard's simulated-cycle ledger — the clock restart
// backoff waits on.
func (mb *member) syncLedger() {
	if mb.m == nil {
		return
	}
	cur := mb.m.CPU.Cycles()
	if cur > mb.lastCycles {
		mb.sh.cycles += cur - mb.lastCycles
	}
	mb.lastCycles = cur
}

// advanceTo drives the member's timeline to the global round r,
// catching up any rounds lost to a restart. The supervisor gate runs
// first: a down member only re-incarnates once its backoff expires in
// the shard's cycle ledger.
func (mb *member) advanceTo(r int) {
	for mb.nextRound <= r {
		switch mb.state {
		case stateFailed:
			return
		case stateDown:
			if !mb.tryRestart() {
				return
			}
		}
		live := mb.nextRound == r
		mb.runRound(mb.nextRound, live)
		mb.syncLedger()
	}
}

// runRound executes one round of the member's timeline: the storm (if
// due), the load-generator batch, the health probe and the periodic
// checkpoint. live is true when k is the current global round — only
// then can a scheduled chaos kill fire; replayed rounds never re-kill.
func (mb *member) runRound(k int, live bool) {
	kill, phase := -1, -1
	if live {
		kill, phase = mb.fl.takeKill(mb.id, k)
	}
	cfg := &mb.fl.cfg

	ranBatch := false
	if cfg.StormEvery > 0 && k%cfg.StormEvery == 0 {
		if kill == k && phase == killMidCommit {
			mb.stormThenDie(k)
			return
		}
		if cfg.ActiveStorms && kill != k {
			if !mb.batchWithStorm(k) {
				return
			}
			ranBatch = true
		} else if !mb.storm(k) {
			return
		}
	}

	if !ranBatch {
		if kill == k && phase == killAtBatch {
			mb.dieMidBatch(k)
			return
		}
		if !mb.batch(k) {
			return
		}
	}

	// A storm whose OSR escalation fell back to deferral for some
	// function applies it here, at the round's quiescent point, so the
	// bindings never lag the switch values across a round boundary.
	if mb.rt.DeferredCount() > 0 {
		if _, err := mb.rt.DrainDeferred(); err != nil {
			mb.fault(fmt.Errorf("deferred drain round %d: %w", k, err))
			return
		}
	}

	if cfg.HealthEvery > 0 && k%cfg.HealthEvery == 0 {
		if !mb.probe() {
			return
		}
	}

	mb.nextRound = k + 1

	if cfg.SnapEvery > 0 && k%cfg.SnapEvery == 0 {
		if err := mb.checkpoint(k); err != nil {
			mb.fail(err)
		}
	}
}

// storm drives the fleet-wide flip for round k: write the target
// switch values, Commit, and on ErrCommitAborted/ErrFunctionActive
// retry with exponential backoff charged to the machine's own cycle
// domain. The escalation ladder is retry → OSR → park: the first
// ErrFunctionActive switches the runtime to on-stack replacement
// (parked frames are herded or transferred into the new variant
// inside the rendezvous — backing off cannot help when the CPU is not
// advancing), and only when the retries are exhausted anyway is the
// flip parked — the old values are written back and the machine keeps
// serving the variant it already has, surfacing as degraded until a
// later storm lands.
func (mb *member) storm(k int) bool {
	comp, iso := mb.fl.cfg.flipValues(k)
	oldComp, err := mb.readSwitch("compression")
	if err != nil {
		mb.fail(err)
		return false
	}
	oldIso, err := mb.readSwitch("isolated")
	if err != nil {
		mb.fail(err)
		return false
	}
	if comp == oldComp && iso == oldIso && !mb.parked {
		return true
	}
	if err := mb.writeSwitches(comp, iso); err != nil {
		mb.fail(err)
		return false
	}
	mb.sh.cStormFlips.Add(1)

	escalated := false
	defer func() {
		if escalated {
			mb.setOnActive(core.ActiveRefuse)
		}
	}()
	for attempt := 0; ; attempt++ {
		tBefore := 0
		if mb.rt != nil {
			tBefore = mb.rt.Stats.OSRTransfers
		}
		err := mb.commitObserved()
		mb.syncLedger()
		if err == nil {
			if escalated {
				mb.sh.cOSRCommits.Add(1)
				mb.sh.cOSRTransfers.Add(uint64(mb.rt.Stats.OSRTransfers - tBefore))
			}
			if mb.parked {
				mb.parked = false
			}
			return true
		}
		if !errors.Is(err, core.ErrCommitAborted) && !errors.Is(err, core.ErrFunctionActive) {
			mb.fault(err)
			return false
		}
		mb.sh.cCommitAborts.Add(1)
		if errors.Is(err, core.ErrFunctionActive) && !escalated {
			escalated = true
			mb.setOnActive(core.ActiveOSR)
		}
		if attempt+1 >= mb.fl.cfg.CommitRetries {
			// Park: back to the last successfully committed values so
			// the uncommitted (generic) paths agree with the bindings
			// the rollback kept.
			if err := mb.writeSwitches(oldComp, oldIso); err != nil {
				mb.fail(err)
				return false
			}
			mb.parked = true
			mb.sh.cParkedFlips.Add(1)
			return true
		}
		mb.sh.cCommitRetries.Add(1)
		mb.m.CPU.AddCycles(commitBackoff(attempt))
	}
}

// commitObserved wraps Commit with core's commit-latency model,
// observed into the shard and fleet histograms whether the commit
// lands or aborts (aborted attempts are exactly the tail worth seeing).
func (mb *member) commitObserved() error {
	counters := func() core.CommitCounters {
		return core.CommitCounters{Mem: mb.m.Mem.Stats, Stats: mb.rt.Stats, Cycles: mb.m.CPU.Cycles()}
	}
	before := counters()
	_, err := mb.rt.Commit()
	latency, _ := core.CommitLatency(before, counters())
	mb.sh.hCommit.Observe(latency)
	mb.fl.hCommit.Observe(latency)
	return err
}

// setOnActive swaps the runtime's activeness policy, keeping the
// configured commit mode. No-op on a down member.
func (mb *member) setOnActive(p core.OnActivePolicy) {
	if mb.rt == nil {
		return
	}
	mb.rt.SetCommitOptions(core.CommitOptions{Mode: mb.fl.cfg.Mode, OnActive: p})
}

// batchWithStorm is the ActiveStorms round shape: start the batch,
// park the CPU with its PC inside a multiversed function body, run the
// storm against that live frame, then resume the batch to completion.
// Requests served while parked-and-resumed count exactly as a plain
// batch does, so the zero-loss contract is unchanged.
func (mb *member) batchWithStorm(k int) bool {
	n := mb.fl.cfg.batchSize(mb.id, k)
	arg := mb.fl.cfg.batchArg(mb.id, k)
	c := mb.m.CPU
	if err := mb.m.StartCall(c, "serve_batch", n, arg); err != nil {
		mb.fault(fmt.Errorf("serve_batch round %d: %w", k, err))
		return false
	}
	if err := mb.parkInPatchable(); err != nil {
		mb.fault(err)
		return false
	}
	if !mb.storm(k) {
		return false
	}
	if _, err := c.Run(mb.m.MaxSteps); err != nil {
		mb.fault(fmt.Errorf("serve_batch round %d: %w", k, err))
		return false
	}
	mb.syncLedger()
	mb.sh.cRequests.Add(n)
	mb.sh.cBatches.Add(1)
	return true
}

// parkInPatchable steps the started call until the PC lands inside a
// multiversed body (generic or variant), where the storm's activeness
// check must see it. Bounded; a batch that halts first simply leaves
// the storm quiesced, with nothing to replace.
func (mb *member) parkInPatchable() error {
	c := mb.m.CPU
	for i := 0; i < parkBudget && !c.Halted(); i++ {
		if err := c.Step(); err != nil {
			return fmt.Errorf("fleet: machine %d parking mid-batch: %w", mb.id, err)
		}
		if mb.inPatchable(c.PC()) {
			return nil
		}
	}
	return nil
}

// inPatchable reports whether pc is inside any multiversed function
// body — generic or variant.
func (mb *member) inPatchable(pc uint64) bool {
	for _, fd := range mb.rt.Funcs() {
		if pc >= fd.Generic && pc < fd.Generic+fd.Size {
			return true
		}
		for _, v := range fd.Variants {
			if pc >= v.Addr && pc < v.Addr+v.Size {
				return true
			}
		}
	}
	return false
}

// batch serves one load-generator batch. Any error — including a blown
// step budget, the cycle-domain wedge deadline — faults the member into
// supervision; a fleet's fault plans arm no fetch fault, so no error is
// spurious.
func (mb *member) batch(k int) bool {
	n := mb.fl.cfg.batchSize(mb.id, k)
	arg := mb.fl.cfg.batchArg(mb.id, k)
	if _, err := mb.m.CallNamed("serve_batch", n, arg); err != nil {
		mb.fault(fmt.Errorf("serve_batch round %d: %w", k, err))
		return false
	}
	mb.sh.cRequests.Add(n)
	mb.sh.cBatches.Add(1)
	return true
}

// probe is the supervisor's liveness check: a guest call that must
// come back with the magic value within the step budget.
func (mb *member) probe() bool {
	v, err := mb.m.CallNamed("health")
	if err != nil {
		mb.fault(fmt.Errorf("health probe: %w", err))
		return false
	}
	if v != healthOK {
		mb.fault(fmt.Errorf("health probe returned %d, want %d", v, healthOK))
		return false
	}
	return true
}

// checkpoint captures the member's recovery point: machine snapshot,
// fault-plan progress, parked flag. The snapshot overwrites the
// container of the checkpoint it replaces. A capture racing an open
// commit gets the typed ErrNotQuiesced and simply keeps the previous
// checkpoint — retry-later, not corruption — since Capture writes
// nothing when it fails.
func (mb *member) checkpoint(round int) error {
	snap, err := snapshot.Capture(mb.ckpt.snap, mb.m, mb.rt)
	if errors.Is(err, snapshot.ErrNotQuiesced) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("fleet: machine %d checkpoint: %w", mb.id, err)
	}
	mb.ckpt = checkpoint{round: round, snap: snap, parked: mb.parked}
	if mb.plan != nil {
		mb.ckpt.plan = mb.plan.Export()
	}
	mb.sh.cSnapshots.Add(1)
	return nil
}

// finalState reads the live member's served-request tally and
// checksum into mr and digests its final snapshot, captured into buf.
// It returns the container for the next capture to reuse.
func (mb *member) finalState(mr *MachineResult, buf []byte) ([]byte, error) {
	var err error
	if mr.Requests, err = mb.m.ReadGlobal("requests", 8); err != nil {
		return buf, fmt.Errorf("fleet: machine %d requests: %w", mb.id, err)
	}
	if mr.Checksum, err = mb.m.ReadGlobal("checksum", 8); err != nil {
		return buf, fmt.Errorf("fleet: machine %d checksum: %w", mb.id, err)
	}
	snap, err := snapshot.Capture(buf, mb.m, mb.rt)
	if err != nil {
		return buf, fmt.Errorf("fleet: machine %d final capture: %w", mb.id, err)
	}
	if mr.Digest, err = snapshot.Digest(snap); err != nil {
		return snap, fmt.Errorf("fleet: machine %d digest: %w", mb.id, err)
	}
	return snap, nil
}

// stormThenDie models a power cut mid-commit: the storm's switch
// writes land, the commit starts (consuming whatever fault points it
// trips), and the machine dies before anyone can observe the outcome.
// The incarnation is discarded wholesale; commits are transactional,
// so the snapshot-restored replay re-runs the storm cleanly.
func (mb *member) stormThenDie(k int) {
	comp, iso := mb.fl.cfg.flipValues(k)
	if err := mb.writeSwitches(comp, iso); err == nil {
		_ = mb.commitObserved()
	}
	mb.syncLedger()
	mb.die()
}

// dieMidBatch starts the round's batch, lets it run a deterministic
// slice, and cuts the power with requests in flight.
func (mb *member) dieMidBatch(k int) {
	n := mb.fl.cfg.batchSize(mb.id, k)
	arg := mb.fl.cfg.batchArg(mb.id, k)
	if err := mb.m.StartCall(mb.m.CPU, "serve_batch", n, arg); err == nil {
		for i := 0; i < midBatchSteps && !mb.m.CPU.Halted(); i++ {
			if err := mb.m.CPU.Step(); err != nil {
				break
			}
		}
	}
	mb.syncLedger()
	mb.die()
}

// die is a chaos kill: the incarnation vanishes. The supervisor picks
// the member up from its last checkpoint.
func (mb *member) die() {
	mb.killsTaken++
	mb.sh.cKills.Add(1)
	mb.sh.killsSinceEpoch++
	mb.discard()
}

// fault is an unexpected machine failure (wedge, failed probe,
// non-transient injected fault escaping the commit path): same
// recovery as a kill, separate accounting. The cause is kept for the
// report should the member later exhaust its restarts.
func (mb *member) fault(err error) {
	mb.sh.cFaults.Add(1)
	mb.lastFault = err
	mb.discard()
}

// fail is a non-recoverable supervisor error (checkpoint encode,
// switch I/O): the member is taken out of rotation and reported.
func (mb *member) fail(err error) {
	if mb.err == nil {
		mb.err = err
	}
	mb.state = stateFailed
	mb.discard()
	mb.m, mb.rt = nil, nil
}

func (mb *member) discard() {
	if mb.m != nil && mb.plan != nil {
		faultinject.Detach(mb.m)
	}
	mb.m, mb.rt = nil, nil
	if mb.state != stateFailed {
		mb.state = stateDown
	}
	mb.restartAttempts = 0
	mb.backoffReadyAt = 0
}

// tryRestart is the supervisor's restore path: bounded attempts, each
// failure backing off exponentially in the shard's simulated-cycle
// ledger before the next try.
func (mb *member) tryRestart() bool {
	if mb.sh.cycles < mb.backoffReadyAt {
		return false
	}
	if err := mb.restore(); err != nil {
		mb.restartAttempts++
		if mb.restartAttempts >= mb.fl.cfg.RestartRetries {
			why := fmt.Errorf("fleet: machine %d: restart abandoned after %d attempts: %w",
				mb.id, mb.restartAttempts, err)
			if mb.lastFault != nil {
				why = fmt.Errorf("%w (went down with: %v)", why, mb.lastFault)
			}
			mb.fail(why)
			return false
		}
		mb.backoffReadyAt = mb.sh.cycles + restartBackoff(mb.restartAttempts)
		return false
	}
	mb.state = stateHealthy
	mb.restartAttempts = 0
	mb.backoffReadyAt = 0
	mb.restarts++
	mb.sh.cRestarts.Add(1)
	return true
}

// restore rebuilds a fresh incarnation from the last checkpoint:
// decode, Apply onto a new machine+runtime from the same image,
// re-attach the fault plan and rewind its progress to the checkpoint
// (replayed rounds must re-fire the same faults), rewind the parked
// flag, and point the timeline at the first lost round.
func (mb *member) restore() error {
	if mb.ckpt.snap == nil {
		return fmt.Errorf("fleet: machine %d has no checkpoint", mb.id)
	}
	if hook := mb.fl.cfg.restoreHook; hook != nil {
		if err := hook(mb.id, mb.restartAttempts); err != nil {
			return err
		}
	}
	snap, err := snapshot.Decode(mb.ckpt.snap)
	if err != nil {
		return err
	}
	if err := mb.incarnate(); err != nil {
		return err
	}
	if err := snapshot.Apply(snap, mb.m, mb.rt); err != nil {
		mb.m, mb.rt = nil, nil
		return err
	}
	if mb.plan != nil {
		mb.plan.Attach(mb.m)
		if err := mb.plan.Import(mb.ckpt.plan); err != nil {
			mb.m, mb.rt = nil, nil
			return err
		}
	}
	mb.parked = mb.ckpt.parked
	mb.nextRound = mb.ckpt.round + 1
	mb.lastCycles = mb.m.CPU.Cycles()
	return nil
}

func (mb *member) readSwitch(name string) (int64, error) {
	v, err := mb.m.ReadGlobal(name, 4)
	return int64(int32(uint32(v))), err
}

func (mb *member) writeSwitches(comp, iso int64) error {
	if err := mb.m.WriteGlobal("compression", 4, uint64(comp)); err != nil {
		return err
	}
	return mb.m.WriteGlobal("isolated", 4, uint64(iso))
}

// Backoff curves, both in the simulated-cycle domain (cf. the commit
// journal's patch-retry backoff): base doubling per attempt, capped.
const (
	commitBackoffBase  = 200
	commitBackoffCap   = 1 << 14
	restartBackoffBase = 1 << 10
	restartBackoffCap  = 1 << 18
	midBatchSteps      = 1500
	parkBudget         = 50_000
)

func commitBackoff(attempt int) uint64 {
	b := uint64(commitBackoffBase) << uint(attempt)
	if b > commitBackoffCap {
		return commitBackoffCap
	}
	return b
}

func restartBackoff(attempt int) uint64 {
	b := uint64(restartBackoffBase) << uint(attempt)
	if b > restartBackoffCap {
		return restartBackoffCap
	}
	return b
}

// memberTracer feeds the runtime's rendezvous events into the shard
// and fleet latency histograms; everything else is dropped. The
// interpreter-side hooks are never wired, so the hot path stays
// untouched.
type memberTracer struct{ mb *member }

func (t *memberTracer) Emit(k trace.Kind, addr, a, b uint64) {
	if k == trace.KindRendezvous {
		t.mb.sh.hRendezvous.Observe(a)
		t.mb.fl.hRendezvous.Observe(a)
	}
}

func (t *memberTracer) EmitName(k trace.Kind, addr, a, b uint64, name string) {
	t.Emit(k, addr, a, b)
}

func (t *memberTracer) Step(pc, cycles uint64, in *isa.Inst) {}
func (t *memberTracer) Call(pc, target uint64)               {}
func (t *memberTracer) Ret(pc, target uint64)                {}
