package difftest

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kernelsim"
	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/muslsim"
	"repro/internal/snapshot"
)

// Checkpoint/restore must be invisible: pausing a run at an arbitrary
// cycle threshold to capture a snapshot, and separately restoring that
// snapshot onto a fresh machine and running to completion, must both
// retire bit-identical simulated cycles, statistics, state reports,
// console output and final-state digests as the uninterrupted run.
// These difftests pin that over the paper's E1 (Figure 1 spinlock) and
// E4 (musl) workloads in each fault-plan arm of faultinject_test.go:
// on blocks bare, on blocks with an inert plan attached to every
// machine (whose outcome must also equal the bare arm's), and on
// single steps under a plan arming an unreachable fetch fault.

// runOutcome is everything observable about a finished run.
type runOutcome struct {
	ret     uint64
	cycles  uint64
	stats   cpu.Stats
	report  string
	console string
	digest  string
}

// snapSystem builds a machine+runtime pair manually from a shared
// image, so every run in a comparison carries identical (absent)
// observability attachments, and attaches the arm's fault plan.
func snapSystem(t *testing.T, img *link.Image, a arm) *core.System {
	t.Helper()
	m, err := machine.New(img)
	if err != nil {
		t.Fatal(err)
	}
	a.attach(m)
	rt, err := core.NewRuntime(img, &core.UserPlatform{M: m})
	if err != nil {
		t.Fatal(err)
	}
	return &core.System{Machine: m, RT: rt}
}

// finish runs the CPU to the halt stub and collects the outcome,
// including the digest of the machine's final state.
func finish(t *testing.T, sys *core.System) runOutcome {
	t.Helper()
	c := sys.Machine.CPU
	if _, err := c.Run(sys.Machine.MaxSteps); err != nil {
		t.Fatal(err)
	}
	if !c.Halted() {
		t.Fatal("run did not halt")
	}
	snap, err := snapshot.Capture(nil, sys.Machine, sys.RT)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := snapshot.Digest(snap)
	if err != nil {
		t.Fatal(err)
	}
	return runOutcome{
		ret:     c.Reg(0),
		cycles:  c.Cycles(),
		stats:   sys.Machine.TotalStats(),
		report:  sys.RT.StateReport(),
		console: string(sys.Machine.Console()),
		digest:  digest,
	}
}

// checkRestoreInvariance drives three runs of entry(args) over img:
//
//	A — uninterrupted (the reference),
//	B — paused mid-call at cycle C by RunUntil, snapshotted, continued,
//	C — a fresh machine restored from B's snapshot and run to the end,
//
// and requires all three outcomes bit-identical. It returns A's.
func checkRestoreInvariance(t *testing.T, img *link.Image, ar arm, configure func(*core.System), entry string, args ...uint64) runOutcome {
	t.Helper()

	sysA := snapSystem(t, img, ar)
	configure(sysA)
	if err := sysA.Machine.StartCall(sysA.Machine.CPU, entry, args...); err != nil {
		t.Fatal(err)
	}
	a := finish(t, sysA)
	ar.checkDispatch(t, a.stats, entry)

	sysB := snapSystem(t, img, ar)
	configure(sysB)
	if err := sysB.Machine.StartCall(sysB.Machine.CPU, entry, args...); err != nil {
		t.Fatal(err)
	}
	midC := a.cycles / 2
	if _, err := sysB.Machine.CPU.RunUntil(midC, sysB.Machine.MaxSteps); err != nil {
		t.Fatal(err)
	}
	if sysB.Machine.CPU.Halted() {
		t.Fatalf("run finished before the checkpoint cycle %d — raise the iteration count", midC)
	}
	enc, err := snapshot.Capture(nil, sysB.Machine, sysB.RT)
	if err != nil {
		t.Fatal(err)
	}
	b := finish(t, sysB)
	if a != b {
		t.Fatalf("pausing to snapshot perturbed the run:\nuninterrupted %+v\npaused        %+v", a, b)
	}

	restored, err := snapshot.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	sysC := snapSystem(t, img, ar) // pristine: Apply replaces memory, CPUs and bindings
	if err := snapshot.Apply(restored, sysC.Machine, sysC.RT); err != nil {
		t.Fatal(err)
	}
	if got := sysC.Machine.CPU.Cycles(); got != midC && got < midC {
		t.Fatalf("restored machine starts at cycle %d, snapshot taken at >= %d", got, midC)
	}
	c := finish(t, sysC)
	if a != c {
		t.Fatalf("restore-then-run diverged from the uninterrupted run:\nuninterrupted %+v\nrestored      %+v", a, c)
	}
	return a
}

// checkRestoreArms runs checkRestoreInvariance in every arm and
// requires the inert arm's outcome, digest included, to equal the
// bare arm's.
func checkRestoreArms(t *testing.T, img *link.Image, configure func(*core.System), entry string, args ...uint64) {
	t.Helper()
	got := make(map[arm]runOutcome)
	for _, a := range arms {
		got[a] = checkRestoreInvariance(t, img, a, configure, entry, args...)
	}
	if got[armInert] != got[armBare] {
		t.Errorf("an inert plan changed the run:\nbare  %+v\ninert %+v", got[armBare], got[armInert])
	}
}

// fig1Image is the E1 Figure 1 multiverse kernel, with configure
// committing its SMP configuration.
func fig1Image(t *testing.T) (*link.Image, func(*core.System)) {
	t.Helper()
	f, err := kernelsim.BuildFig1(kernelsim.Fig1Multiverse, true)
	if err != nil {
		t.Fatal(err)
	}
	return f.System().Machine.Image, func(sys *core.System) {
		if err := sys.SetSwitch("config_smp", 1); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RT.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSnapshotRestoreInvarianceFig1(t *testing.T) {
	img, configure := fig1Image(t)
	checkRestoreArms(t, img, configure, "bench_fig1", 400)
}

func TestSnapshotRestoreInvarianceMusl(t *testing.T) {
	ml, err := muslsim.BuildMusl(muslsim.Multiverse)
	if err != nil {
		t.Fatal(err)
	}
	img := ml.System().Machine.Image
	configure := func(sys *core.System) {
		if err := sys.SetSwitch("threads_minus_1", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RT.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	checkRestoreArms(t, img, configure, "bench_fputc", 300)
}
