package fleet

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/link"
	"repro/internal/metrics"
)

// Config sizes and seeds a fleet run. The zero value is not usable;
// call Defaults (or fix up the fields you set) before Run.
type Config struct {
	Seed     int64
	Shards   int
	Machines int
	Rounds   int

	// BatchMin/BatchMax bound the open-loop generator's per-round
	// batch size; the draw is deterministic per (seed, machine, round).
	BatchMin int
	BatchMax int

	// StormEvery rounds, a fleet-wide config flip commits on every
	// machine. HealthEvery rounds the supervisor probes liveness.
	// SnapEvery rounds each machine checkpoints. MigrateEvery rounds
	// the coordinator moves one machine between shards (0 disables).
	StormEvery   int
	HealthEvery  int
	SnapEvery    int
	MigrateEvery int

	// Mode is the commit concurrency mode for every machine;
	// ModeStopMachine by default so rendezvous latencies are measured.
	Mode core.CommitMode

	// ActiveStorms parks each machine mid-batch — PC inside a
	// multiversed function body — before a storm round's flip, so the
	// commit lands against an active function. Without the OSR
	// escalation this shape parks every flip (ErrFunctionActive burns
	// the whole retry budget); with it the ladder is retry → OSR → park
	// and the flip lands.
	ActiveStorms bool

	// CommitRetries bounds storm-commit retries before parking the
	// flip; RestartRetries bounds snapshot restores before a machine
	// is marked failed. StepBudget is the wedge deadline per guest
	// call in CPU steps.
	CommitRetries  int
	RestartRetries int
	StepBudget     uint64

	// Chaos arms the kill schedule: KillRate out of 1000 is the
	// per-(machine, round) probability of a scheduled kill, split
	// between mid-batch and mid-commit phases. FaultPoints, when
	// non-zero, also arms a per-machine commit fault plan.
	Chaos       bool
	KillRate    int
	FaultPoints int

	// restoreHook, when set, runs before each snapshot restore and may
	// veto it by returning an error. Test seam for the retry/backoff
	// path; nil in production.
	restoreHook func(id, attempt int) error

	// planHook, when set, supplies each machine's fault plan instead
	// of the seeded generator. Test seam for targeted fault shapes
	// (e.g. an all-commits-abort plan); nil in production.
	planHook func(id int) *faultinject.Plan
}

// Defaults fills every unset field with a sensible small-fleet value.
func (c *Config) Defaults() {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Machines <= 0 {
		c.Machines = 64
	}
	if c.Rounds <= 0 {
		c.Rounds = 24
	}
	if c.BatchMin <= 0 {
		c.BatchMin = 4
	}
	if c.BatchMax < c.BatchMin {
		c.BatchMax = c.BatchMin + 12
	}
	if c.StormEvery <= 0 {
		c.StormEvery = 3
	}
	if c.HealthEvery <= 0 {
		c.HealthEvery = 2
	}
	if c.SnapEvery <= 0 {
		c.SnapEvery = 4
	}
	if c.MigrateEvery == 0 {
		c.MigrateEvery = 6
	}
	if c.Mode == 0 {
		c.Mode = core.ModeStopMachine
	}
	if c.CommitRetries <= 0 {
		c.CommitRetries = 4
	}
	if c.RestartRetries <= 0 {
		c.RestartRetries = 6
	}
	if c.StepBudget == 0 {
		c.StepBudget = 1 << 22
	}
	if c.Chaos && c.KillRate <= 0 {
		c.KillRate = 30
	}
}

// Fleet is one assembled run: the shared image, the shards and their
// members, the kill schedule, and the merged metrics root.
type Fleet struct {
	cfg    Config
	img    *link.Image
	shards []*shard

	// killByMember[id][round] = kill phase. Precomputed before the
	// shards start so the lookup is read-only across goroutines; the
	// inner map is mutated (consumed kills are deleted) only by the
	// goroutine running the owning shard.
	killByMember map[int]map[int]int

	root        *metrics.Registry
	hCommit     *metrics.Histogram
	hRendezvous *metrics.Histogram
}

// New compiles the workload, builds the shards and their members, and
// boots every machine to its round-0 checkpoint.
func New(cfg Config) (*Fleet, error) {
	cfg.Defaults()
	img, _, err := core.BuildImage(core.GenOptions{}, core.Source{Name: "fleet.mvc", Text: GuestSource})
	if err != nil {
		return nil, fmt.Errorf("fleet: workload build: %w", err)
	}
	fl := &Fleet{
		cfg:  cfg,
		img:  img,
		root: metrics.New(),
	}
	fl.hCommit = &metrics.Histogram{}
	fl.hRendezvous = &metrics.Histogram{}
	fl.buildKillSchedule()

	for i := 0; i < cfg.Shards; i++ {
		sh := newShard(i, fl)
		fl.shards = append(fl.shards, sh)
		fl.root.Merge(sh.reg, metrics.L("shard", fmt.Sprintf("%d", i)))
	}
	for id := 0; id < cfg.Machines; id++ {
		sh := fl.shards[id%cfg.Shards]
		mb := &member{id: id, fl: fl, sh: sh}
		if cfg.planHook != nil {
			mb.plan = cfg.planHook(id)
		} else if cfg.Chaos && cfg.FaultPoints > 0 {
			mb.plan = faultinject.New(int64(mix(uint64(cfg.Seed), tagKill, uint64(id))), faultinject.Opts{
				Points: cfg.FaultPoints,
				CPUs:   1,
				MaxOp:  64,
				Kinds:  []faultinject.Kind{faultinject.KindProtect, faultinject.KindDropFlush},
			})
		}
		sh.members = append(sh.members, mb)
	}
	errs := make([]error, cfg.Machines)
	c := fl.startCrew()
	c.each(func(sh *shard) {
		for _, mb := range sh.members {
			errs[mb.id] = mb.boot()
		}
		sh.refreshGauges()
	})
	c.stop()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return fl, nil
}

// Registry is the fleet-wide metrics root: every shard's registry
// merged under its shard label. Serve it with metrics.WritePrometheus.
func (fl *Fleet) Registry() *metrics.Registry { return fl.root }

// buildKillSchedule rolls the deterministic chaos kill schedule: for
// each (machine, round) an independent draw against KillRate decides
// whether the machine is power-cut that round, and a second bit picks
// the phase (mid-batch vs mid-commit; mid-commit only lands on storm
// rounds, otherwise it degrades to mid-batch).
func (fl *Fleet) buildKillSchedule() {
	fl.killByMember = make(map[int]map[int]int)
	if !fl.cfg.Chaos || fl.cfg.KillRate <= 0 {
		return
	}
	for id := 0; id < fl.cfg.Machines; id++ {
		for r := 2; r <= fl.cfg.Rounds; r++ { // round 1 spared: every machine serves before chaos starts
			h := mix(uint64(fl.cfg.Seed), tagKill, uint64(id), uint64(r))
			if int(h%1000) >= fl.cfg.KillRate {
				continue
			}
			phase := killAtBatch
			if (h>>32)&1 == 1 && fl.cfg.StormEvery > 0 && r%fl.cfg.StormEvery == 0 {
				phase = killMidCommit
			}
			if fl.killByMember[id] == nil {
				fl.killByMember[id] = make(map[int]int)
			}
			fl.killByMember[id][r] = phase
		}
	}
}

// takeKill consumes the scheduled kill for (id, round), if any.
// Returns (round, phase) or (-1, -1). Only the goroutine running the
// member's shard calls this, so the delete is single-writer.
func (fl *Fleet) takeKill(id, round int) (int, int) {
	rounds := fl.killByMember[id]
	if rounds == nil {
		return -1, -1
	}
	phase, ok := rounds[round]
	if !ok {
		return -1, -1
	}
	delete(rounds, round)
	return round, phase
}

// Run executes the fleet: Rounds global rounds, each a parallel step
// of every shard behind a barrier, with the coordinator running the
// migration policy between rounds. It ends with a drain (restarting
// any still-down machines so their timelines complete) and a final
// per-machine capture for the report. Each shard runs on one goroutine
// from the first round to the report, and none outlives Run.
func (fl *Fleet) Run() (*Result, error) {
	start := time.Now()
	c := fl.startCrew()
	defer c.stop()
	for r := 1; r <= fl.cfg.Rounds; r++ {
		c.stepShards(r)
		if fl.cfg.MigrateEvery > 0 && fl.cfg.Shards > 1 && r%fl.cfg.MigrateEvery == 0 {
			fl.migrate(r)
		}
	}
	fl.drain(c)
	res, err := fl.report(c)
	if err != nil {
		return nil, err
	}
	res.HostSeconds = time.Since(start).Seconds()
	return res, nil
}

// crew runs each shard on one goroutine of its own from startCrew to
// stop, so a shard's stack grows once per crew, not once per round.
// each hands every shard one job and waits for all of them: that wait
// is the round barrier, and between two calls the coordinator may
// touch any shard.
type crew struct {
	jobs []chan func(*shard) // one per shard, in shard order
	busy sync.WaitGroup      // jobs handed out and not yet done
	done sync.WaitGroup      // shard goroutines not yet exited
}

func (fl *Fleet) startCrew() *crew {
	c := &crew{jobs: make([]chan func(*shard), len(fl.shards))}
	c.done.Add(len(fl.shards))
	for i, sh := range fl.shards {
		jobs := make(chan func(*shard))
		c.jobs[i] = jobs
		go func() {
			defer c.done.Done()
			for f := range jobs {
				f(sh)
				c.busy.Done()
			}
		}()
	}
	return c
}

// each runs f once on every shard's goroutine and returns when every
// call has. f may touch only its shard and that shard's members, plus
// per-member slots of caller-owned slices.
func (c *crew) each(f func(sh *shard)) {
	c.busy.Add(len(c.jobs))
	for _, jobs := range c.jobs {
		jobs <- f
	}
	c.busy.Wait()
}

func (c *crew) stepShards(r int) {
	c.each(func(sh *shard) { sh.runRound(r) })
}

// stop ends every shard goroutine and returns once all have exited.
func (c *crew) stop() {
	for _, jobs := range c.jobs {
		close(jobs)
	}
	c.done.Wait()
}

// migrate runs between rounds, with every shard goroutine parked at
// the barrier, so it may touch any shard. Policy, in order: evacuate
// one machine off the shard taking the most chaos kills this epoch;
// else rebalance when the member-count spread reaches 2; else run the
// rotation drill (deterministic round-robin) so the migration path is
// exercised on every run. The moved machine is checkpointed, torn
// down on the source, and restored from that snapshot on the
// destination — the same path a real evacuation takes.
func (fl *Fleet) migrate(r int) {
	src := fl.pickSource()
	if src == nil {
		return
	}
	dst := fl.pickDest(src)
	if dst == nil || dst == src {
		return
	}
	mb := fl.pickMigrant(src, r)
	if mb == nil {
		return
	}
	fl.moveMember(mb, src, dst)
	for _, sh := range fl.shards {
		sh.killsSinceEpoch = 0
	}
}

func (fl *Fleet) pickSource() *shard {
	// Highest kill count this epoch wins; ties and the no-kill case
	// fall through to load then index so the choice is deterministic.
	var best *shard
	for _, sh := range fl.shards {
		if len(sh.members) == 0 {
			continue
		}
		if best == nil ||
			sh.killsSinceEpoch > best.killsSinceEpoch ||
			(sh.killsSinceEpoch == best.killsSinceEpoch && len(sh.members) > len(best.members)) {
			best = sh
		}
	}
	return best
}

func (fl *Fleet) pickDest(src *shard) *shard {
	var best *shard
	for _, sh := range fl.shards {
		if sh == src {
			continue
		}
		if best == nil || len(sh.members) < len(best.members) {
			best = sh
		}
	}
	return best
}

// pickMigrant prefers a healthy machine (evacuating working capacity
// off a failing shard); the round salts the draw so the drill rotates
// through members across epochs.
func (fl *Fleet) pickMigrant(src *shard, r int) *member {
	var live []*member
	for _, mb := range src.members {
		if mb.state == stateHealthy {
			live = append(live, mb)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return live[int(mix(uint64(fl.cfg.Seed), tagKill, uint64(r))%uint64(len(live)))]
}

// moveMember is the live-migration protocol: fresh checkpoint at the
// barrier, incarnation torn down on src, member rehomed, restored
// from the snapshot on dst. On restore failure the member goes down
// on dst and the supervisor's normal retry path takes over.
func (fl *Fleet) moveMember(mb *member, src, dst *shard) {
	if err := mb.checkpoint(mb.nextRound - 1); err != nil {
		return // keep the machine where it is; migration is best-effort
	}
	mb.discard()
	src.take(mb)
	src.cMigrationsOut.Add(1)
	dst.insert(mb)
	dst.cMigrationsIn.Add(1)
	if err := mb.restore(); err != nil {
		// Arrival restore failed: the member lands Down on dst and
		// dst's supervisor takes over with its normal retry budget.
		return
	}
	mb.state = stateHealthy
}

// drain gives still-down machines bounded extra supervision rounds to
// restart and replay up to the final round, so the report compares
// complete timelines. Simulated time keeps ticking so backoffs expire.
func (fl *Fleet) drain(c *crew) {
	const maxDrainRounds = 64
	for i := 0; i < maxDrainRounds; i++ {
		pending := false
		for _, sh := range fl.shards {
			for _, mb := range sh.members {
				if mb.state == stateFailed {
					continue
				}
				if mb.state == stateDown || mb.nextRound <= fl.cfg.Rounds {
					pending = true
				}
			}
		}
		if !pending {
			return
		}
		c.stepShards(fl.cfg.Rounds)
	}
}

// MachineResult is one machine's deterministic endpoint.
type MachineResult struct {
	ID       int    `json:"id"`
	Shard    int    `json:"shard"`
	State    string `json:"state"`
	Requests uint64 `json:"requests"`
	Checksum uint64 `json:"checksum"`
	Digest   string `json:"digest"` // final snapshot digest; "" when failed
	Restarts int    `json:"restarts"`
	Kills    int    `json:"kills"`
	Parked   bool   `json:"parked"`
}

// ShardResult aggregates one shard.
type ShardResult struct {
	Shard      int     `json:"shard"`
	Machines   int     `json:"machines"`
	Cycles     uint64  `json:"cycles"`
	Requests   uint64  `json:"requests"`
	Restarts   uint64  `json:"restarts"`
	Kills      uint64  `json:"kills"`
	Parked     uint64  `json:"parked_flips"`
	Degraded   int     `json:"degraded"`
	MigrIn     uint64  `json:"migrations_in"`
	MigrOut    uint64  `json:"migrations_out"`
	Throughput float64 `json:"requests_per_kcycle"`
}

// Result is the run report. Everything except HostSeconds is a
// deterministic function of the Config.
type Result struct {
	Machines []MachineResult `json:"machines"`
	Shards   []ShardResult   `json:"shards"`
	// Requests counts work performed (replayed rounds included);
	// Served is the guest-side total of requests actually answered,
	// the number Scheduled compares against for the zero-loss check.
	Requests      uint64  `json:"requests_total"`
	Served        uint64  `json:"requests_served"`
	Scheduled     uint64  `json:"requests_scheduled"`
	Restarts      uint64  `json:"restarts_total"`
	Kills         uint64  `json:"kills_total"`
	Migrations    uint64  `json:"migrations_total"`
	ParkedFlips   uint64  `json:"parked_flips_total"`
	CommitAborts  uint64  `json:"commit_aborts_total"`
	OSRCommits    uint64  `json:"osr_commits_total"`
	OSRTransfers  uint64  `json:"osr_transfers_total"`
	Failed        int     `json:"failed_machines"`
	CommitP50     uint64  `json:"commit_p50_cycles"`
	CommitP99     uint64  `json:"commit_p99_cycles"`
	CommitP999    uint64  `json:"commit_p999_cycles"`
	RendezvousP99 uint64  `json:"rendezvous_p99_cycles"`
	HostSeconds   float64 `json:"host_seconds"`
}

// report drives the final capture of every machine and aggregates.
// The captures run on the shard goroutines, each shard reusing one
// container, into per-machine slots; the aggregation and the choice of
// the error to return then walk shards and members in order.
func (fl *Fleet) report(c *crew) (*Result, error) {
	res := &Result{Machines: make([]MachineResult, fl.cfg.Machines)}
	errs := make([]error, fl.cfg.Machines)
	c.each(func(sh *shard) {
		var buf []byte
		for _, mb := range sh.members {
			mr := &res.Machines[mb.id]
			*mr = MachineResult{
				ID:       mb.id,
				Shard:    sh.idx,
				State:    mb.state.String(),
				Restarts: mb.restarts,
				Kills:    mb.killsTaken,
				Parked:   mb.parked,
			}
			if mb.state != stateFailed && mb.m != nil {
				buf, errs[mb.id] = mb.finalState(mr, buf)
			}
		}
	})
	for _, sh := range fl.shards {
		sr := ShardResult{
			Shard:    sh.idx,
			Machines: len(sh.members),
			Cycles:   sh.cycles,
			Requests: sh.cRequests.Value(),
			Restarts: sh.cRestarts.Value(),
			Kills:    sh.cKills.Value(),
			Parked:   sh.cParkedFlips.Value(),
			MigrIn:   sh.cMigrationsIn.Value(),
			MigrOut:  sh.cMigrationsOut.Value(),
		}
		if sh.cycles > 0 {
			sr.Throughput = float64(sr.Requests) / (float64(sh.cycles) / 1000)
		}
		for _, mb := range sh.members {
			if err := errs[mb.id]; err != nil {
				return nil, err
			}
			if mb.parked && mb.state != stateFailed {
				sr.Degraded++
			}
			if mb.state == stateFailed {
				res.Failed++
			}
		}
		res.Shards = append(res.Shards, sr)
		res.Requests += sr.Requests
		res.Restarts += sr.Restarts
		res.Kills += sr.Kills
		res.Migrations += sr.MigrIn
		res.ParkedFlips += sr.Parked
		res.CommitAborts += sh.cCommitAborts.Value()
		res.OSRCommits += sh.cOSRCommits.Value()
		res.OSRTransfers += sh.cOSRTransfers.Value()
	}
	for _, m := range res.Machines {
		res.Served += m.Requests
	}
	for id := 0; id < fl.cfg.Machines; id++ {
		res.Scheduled += fl.cfg.scheduledRequests(id)
	}
	cs := fl.hCommit.Snapshot()
	res.CommitP50, _ = cs.Quantile(0.50)
	res.CommitP99, _ = cs.Quantile(0.99)
	res.CommitP999, _ = cs.Quantile(0.999)
	rs := fl.hRendezvous.Snapshot()
	res.RendezvousP99, _ = rs.Quantile(0.99)
	return res, nil
}

// Fingerprint folds every deterministic field of the result into one
// line: two identically-seeded runs must produce equal fingerprints.
func (r *Result) Fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "req=%d sched=%d restarts=%d kills=%d parked=%d osr=%d failed=%d |",
		r.Requests, r.Scheduled, r.Restarts, r.Kills, r.ParkedFlips, r.OSRCommits, r.Failed)
	for _, m := range r.Machines {
		fmt.Fprintf(&sb, " %d:%s:%d:%d:%s", m.ID, m.State, m.Requests, m.Checksum, m.Digest)
	}
	return sb.String()
}

// MemberErrors collects the first error of every failed machine, for
// surfacing in CLIs and tests.
func (fl *Fleet) MemberErrors() []error {
	var errs []error
	for _, sh := range fl.shards {
		for _, mb := range sh.members {
			if mb.err != nil {
				errs = append(errs, mb.err)
			}
		}
	}
	return errs
}
