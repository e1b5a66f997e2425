package fleet

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// assertZeroLoss checks the open-loop contract: every non-failed
// machine's guest-side request counter equals the analytic schedule,
// however many kills, restarts and replays it took to get there.
func assertZeroLoss(t *testing.T, fl *Fleet, res *Result) {
	t.Helper()
	for _, m := range res.Machines {
		if m.State == "failed" {
			continue
		}
		if want := fl.cfg.scheduledRequests(m.ID); m.Requests != want {
			t.Errorf("machine %d: served %d requests, schedule offered %d (kills=%d restarts=%d)",
				m.ID, m.Requests, want, m.Kills, m.Restarts)
		}
	}
}

func TestFleetQuietRunServesEverything(t *testing.T) {
	cfg := Config{Seed: 7, Shards: 2, Machines: 6, Rounds: 10}
	fl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Kills != 0 || res.Restarts != 0 {
		t.Fatalf("quiet run saw failures: %+v", res)
	}
	assertZeroLoss(t, fl, res)
	if res.Requests == 0 || res.CommitP99 == 0 {
		t.Fatalf("counters empty: requests=%d commitP99=%d", res.Requests, res.CommitP99)
	}
	// The rotation drill guarantees the migration path runs even on a
	// healthy fleet.
	if res.Migrations == 0 {
		t.Fatal("no migration on a multi-shard run")
	}
	for _, m := range res.Machines {
		if m.State != "healthy" {
			t.Errorf("machine %d ended %s", m.ID, m.State)
		}
		if m.Digest == "" {
			t.Errorf("machine %d has no final digest", m.ID)
		}
	}
}

// TestFleetShardReproducible is the bit-reproducibility contract: two
// identically-seeded runs — chaos, storms, migrations and all — land
// on identical per-machine digests, checksums and counters.
func TestFleetShardReproducible(t *testing.T) {
	cfg := Config{Seed: 3, Shards: 3, Machines: 9, Rounds: 14, Chaos: true, KillRate: 70}
	run := func() string {
		fl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fl.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Kills == 0 {
			t.Fatal("chaos run scheduled no kills; raise KillRate")
		}
		return res.Fingerprint()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identically-seeded runs diverged:\nA: %s\nB: %s", a, b)
	}
}

// TestFleetDegradedMode is the parked-flip contract: a fault plan
// that aborts every commit attempt leaves every machine serving the
// old (boot-time) variant, loses zero requests, and surfaces the
// degraded-mode gauge.
func TestFleetDegradedMode(t *testing.T) {
	abortAll := func(id int) *faultinject.Plan {
		// A persistent protect fault on every text-protect operation:
		// each commit attempt dies at its first protect, and the
		// (also-faulted) rollback still surfaces ErrCommitAborted. The
		// plan is sized so the whole run cannot exhaust it — an abort
		// burns one op per bounded rollback retry.
		pts := make([]faultinject.Point, 4096)
		for i := range pts {
			pts[i] = faultinject.Point{Kind: faultinject.KindProtect, Op: uint64(i)}
		}
		return faultinject.Exact(pts...)
	}
	cfg := Config{Seed: 11, Shards: 2, Machines: 4, Rounds: 9, planHook: abortAll}
	fl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("degraded fleet lost machines: %+v", res)
	}
	assertZeroLoss(t, fl, res)
	if res.ParkedFlips == 0 || res.CommitAborts == 0 {
		t.Fatalf("no storm was parked: parked=%d aborts=%d", res.ParkedFlips, res.CommitAborts)
	}
	for _, m := range res.Machines {
		if !m.Parked {
			t.Errorf("machine %d is not parked after an all-abort run", m.ID)
		}
	}
	// Old variant kept: with every commit refused, the switch memory
	// must still hold the boot-time values the generic paths read.
	for _, sh := range fl.shards {
		for _, mb := range sh.members {
			comp, err := mb.readSwitch("compression")
			if err != nil {
				t.Fatal(err)
			}
			iso, err := mb.readSwitch("isolated")
			if err != nil {
				t.Fatal(err)
			}
			if comp != 0 || iso != 0 {
				t.Errorf("machine %d serves flipped config (%d,%d) despite parked storms", mb.id, comp, iso)
			}
		}
	}
	// The degraded gauge is visible through the merged export.
	snap := fl.Registry().Snapshot()
	fam := snap.Find("fleet_degraded_machines")
	if fam == nil {
		t.Fatal("fleet_degraded_machines not exported")
	}
	var degraded float64
	for _, s := range fam.Series {
		degraded += *s.Value
	}
	if int(degraded) != len(res.Machines) {
		t.Errorf("degraded gauge = %v, want %d", degraded, len(res.Machines))
	}
}

// TestFleetActiveStormOSR is the escalation-ladder contract: with
// every storm landing against a machine parked inside a multiversed
// function body — the shape that previously burned the whole retry
// budget on ErrFunctionActive and parked the flip — the retry → OSR →
// park ladder must land every flip. fleet_degraded_machines stays at
// zero, nothing parks, zero requests are lost, and the run stays
// bit-reproducible.
func TestFleetActiveStormOSR(t *testing.T) {
	cfg := Config{Seed: 13, Shards: 2, Machines: 6, Rounds: 12, ActiveStorms: true}
	run := func() (*Fleet, *Result) {
		fl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fl.Run()
		if err != nil {
			t.Fatal(err)
		}
		return fl, res
	}
	fl, res := run()
	if res.Failed != 0 {
		t.Fatalf("active-storm run lost machines: %v", fl.MemberErrors())
	}
	assertZeroLoss(t, fl, res)
	if res.CommitAborts == 0 {
		t.Fatal("no commit was ever refused — the storms never hit an active frame, escalation untested")
	}
	if res.OSRCommits == 0 {
		t.Fatal("no storm commit landed via OSR escalation")
	}
	if res.ParkedFlips != 0 {
		t.Fatalf("%d flips parked despite OSR escalation", res.ParkedFlips)
	}
	for _, m := range res.Machines {
		if m.Parked {
			t.Errorf("machine %d ended parked (degraded) under OSR escalation", m.ID)
		}
	}
	snap := fl.Registry().Snapshot()
	fam := snap.Find("fleet_degraded_machines")
	if fam == nil {
		t.Fatal("fleet_degraded_machines not exported")
	}
	var degraded float64
	for _, s := range fam.Series {
		degraded += *s.Value
	}
	if degraded != 0 {
		t.Errorf("fleet_degraded_machines = %v, want 0", degraded)
	}
	_, res2 := run()
	if res.Fingerprint() != res2.Fingerprint() {
		t.Fatalf("active-storm reruns diverged:\nA: %s\nB: %s", res.Fingerprint(), res2.Fingerprint())
	}
}

// TestFleetRestartBackoff drives the supervisor's retry path through
// the restoreHook seam: restores that fail a few times must back off
// and eventually land; restores that never succeed must exhaust the
// bounded retries and mark the machine failed without stalling the
// rest of the fleet.
func TestFleetRestartBackoff(t *testing.T) {
	attempts := make(map[int]int)
	cfg := Config{
		Seed: 5, Shards: 2, Machines: 4, Rounds: 12,
		Chaos: true, KillRate: 120, RestartRetries: 6,
		restoreHook: func(id, attempt int) error {
			attempts[id]++
			if attempts[id] <= 2 {
				return errors.New("injected restore failure")
			}
			return nil
		},
	}
	fl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kills == 0 {
		t.Fatal("no kills scheduled; the backoff path never ran")
	}
	if res.Failed != 0 {
		t.Fatalf("transiently-failing restores should still recover: %+v", res)
	}
	assertZeroLoss(t, fl, res)

	// Hard case: one machine's restores always fail.
	attempts2 := 0
	cfg2 := Config{
		Seed: 5, Shards: 2, Machines: 4, Rounds: 12,
		Chaos: true, KillRate: 120, RestartRetries: 3,
		restoreHook: func(id, attempt int) error {
			if id == 0 {
				attempts2++
				return errors.New("machine 0 cannot restore")
			}
			return nil
		},
	}
	fl2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := fl2.Run()
	if err != nil {
		t.Fatal(err)
	}
	killed0 := false
	for _, m := range res2.Machines {
		if m.ID == 0 && m.Kills > 0 {
			killed0 = true
			if m.State != "failed" {
				t.Errorf("machine 0 should be failed after exhausting restores, is %s", m.State)
			}
		}
	}
	if !killed0 {
		t.Skip("seed did not kill machine 0; backoff-exhaustion path not reachable")
	}
	if attempts2 != cfg2.RestartRetries {
		t.Errorf("restore attempts = %d, want exactly RestartRetries = %d", attempts2, cfg2.RestartRetries)
	}
	if len(fl2.MemberErrors()) != 1 {
		t.Errorf("MemberErrors = %v, want exactly one", fl2.MemberErrors())
	}
	assertZeroLoss(t, fl2, res2)
}

// TestFleetMetricsExport pins the merged exposition: per-shard series
// keyed apart by the shard label, one family header each.
func TestFleetMetricsExport(t *testing.T) {
	fl, err := New(Config{Seed: 2, Shards: 2, Machines: 4, Rounds: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Run(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := fl.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`fleet_requests_total{shard="0"}`,
		`fleet_requests_total{shard="1"}`,
		`fleet_commit_latency_cycles_bucket`,
		`fleet_rendezvous_latency_cycles_count`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if n := strings.Count(out, "# TYPE fleet_requests_total counter"); n != 1 {
		t.Errorf("fleet_requests_total header rendered %d times, want 1", n)
	}
}

// TestFleetAcceptanceChaos is the issue's acceptance run: ≥64
// machines on ≥4 shards under a fault plan injecting machine kills
// and commit faults during config-flip storms. It must complete with
// no supervisor deadlock (the run returning is the proof), every
// killed machine restarted from its snapshot, at least one live
// migration, and a bit-identical rerun.
func TestFleetAcceptanceChaos(t *testing.T) {
	cfg := Config{
		Seed: 42, Shards: 4, Machines: 64, Rounds: 18,
		Chaos: true, KillRate: 40, FaultPoints: 6,
	}
	run := func() (*Fleet, *Result) {
		fl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fl.Run()
		if err != nil {
			t.Fatal(err)
		}
		return fl, res
	}
	fl, res := run()
	if res.Kills == 0 {
		t.Fatal("acceptance run scheduled no kills")
	}
	if res.Migrations == 0 {
		t.Fatal("acceptance run performed no migration")
	}
	for _, m := range res.Machines {
		if m.Kills > 0 && m.State == "healthy" && m.Restarts == 0 {
			t.Errorf("machine %d was killed %d times yet reports no snapshot restart", m.ID, m.Kills)
		}
		if m.State == "failed" {
			t.Errorf("machine %d failed permanently: %v", m.ID, fl.MemberErrors())
		}
	}
	assertZeroLoss(t, fl, res)

	_, res2 := run()
	if res.Fingerprint() != res2.Fingerprint() {
		t.Fatalf("acceptance reruns diverged:\nA: %s\nB: %s", res.Fingerprint(), res2.Fingerprint())
	}
}

// TestCheckpointReusesContainer pins that a steady-state checkpoint
// overwrites the container of the one it replaces: past round 4, when
// a member's container has reached its working size, a checkpoint
// allocates only the exported page and CPU lists, not a second
// ~290 KB container, and keeps the container's backing array.
func TestCheckpointReusesContainer(t *testing.T) {
	fl, err := New(Config{Seed: 1, Shards: 1, Machines: 1, Rounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := fl.startCrew()
	for r := 1; r <= 4; r++ {
		c.stepShards(r)
	}
	c.stop()
	mb := fl.shards[0].members[0]
	if mb.state != stateHealthy || mb.ckpt.round != 4 {
		t.Fatalf("member is %s with its checkpoint at round %d, want healthy at round 4", mb.state, mb.ckpt.round)
	}
	base := &mb.ckpt.snap[0]
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := mb.checkpoint(4); err != nil {
				b.Fatal(err)
			}
		}
	})
	if res.N == 0 {
		t.Fatal("checkpoint benchmark did not run")
	}
	if got := res.AllocedBytesPerOp(); got >= 64<<10 {
		t.Fatalf("a steady-state checkpoint allocates %d B, want under 64 KB", got)
	}
	if &mb.ckpt.snap[0] != base {
		t.Fatal("checkpoint replaced its container instead of overwriting it")
	}
}
