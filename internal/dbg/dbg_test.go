package dbg

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/snapshot"
)

// testSrc is the canonical debugger workload: a multiverse switch, a
// generic function whose variants differ, and a driver loop so there
// are plenty of cycles to travel through.
const testSrc = `
multiverse int mode;
long work;
multiverse void step(void) {
	if (mode) {
		work += 3;
	} else {
		work += 1;
	}
}
long spin(long n) {
	long i;
	for (i = 0; i < n; i++) { step(); }
	return work;
}
`

func buildImg(t *testing.T) *link.Image {
	t.Helper()
	img, _, err := core.BuildImage(core.GenOptions{}, core.Source{Name: "dbg_test.mvc", Text: testSrc})
	if err != nil {
		t.Fatalf("BuildImage: %v", err)
	}
	return img
}

func newSession(t *testing.T, opts Options) *Session {
	t.Helper()
	s, err := New(buildImg(t), opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// mustRun advances n cycles, failing the test on error.
func mustRun(t *testing.T, s *Session, n uint64) string {
	t.Helper()
	out, err := s.Run(n)
	if err != nil {
		t.Fatalf("Run(%d): %v", n, err)
	}
	return out
}

func mustDigest(t *testing.T, s *Session) string {
	t.Helper()
	d, err := s.Digest()
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	return d
}

// TestBackThroughTextPokeCommit is the headline acceptance property:
// rewind across a commit that used the BRK text-poke protocol, run
// forward again, and land on the same snapshot digest as the first
// pass — bit-identical time travel through self-modification.
func TestBackThroughTextPokeCommit(t *testing.T) {
	s := newSession(t, Options{Commit: core.CommitOptions{Mode: core.ModeTextPoke}})
	if err := s.Call("spin", 500); err != nil {
		t.Fatalf("Call: %v", err)
	}
	// Advance to a pause where pc sits in spin's loop body, not inside
	// step — the activeness check would (correctly) refuse the commit
	// if the generic being rebound were live on the stack.
	mustRun(t, s, 2004)
	pauseCycle := s.Cycles()
	if err := s.Set("mode", 1); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if pokes := s.Runtime().Stats.TextPokes; pokes == 0 {
		t.Fatalf("commit did not use the BRK poke protocol (TextPokes=0)")
	}
	mustRun(t, s, 1500)
	wantCycle := s.Cycles()
	wantDigest := mustDigest(t, s)

	// Rewind to before the set+commit, then replay forward to the exact
	// same cycle. The retained future must re-fire the poke-protocol
	// commit at its recorded place.
	back := wantCycle - pauseCycle + 600 // lands well before the commit
	if _, err := s.Back(back); err != nil {
		t.Fatalf("Back(%d): %v", back, err)
	}
	if got := s.Cycles(); got >= pauseCycle {
		t.Fatalf("Back(%d) landed at cycle %d, not before the commit at %d", back, got, pauseCycle)
	}
	if s.Runtime().Stats.Commits != 0 {
		t.Fatalf("rewound state still shows %d commit(s)", s.Runtime().Stats.Commits)
	}
	mustRun(t, s, wantCycle-s.Cycles())
	if got := s.Cycles(); got != wantCycle {
		t.Fatalf("replay stopped at cycle %d, want %d", got, wantCycle)
	}
	if st := s.Runtime().Stats; st.Commits != 1 || st.TextPokes == 0 {
		t.Fatalf("replay did not re-fire the poke commit: %+v", st)
	}
	if got := mustDigest(t, s); got != wantDigest {
		t.Fatalf("digest after back+replay = %s, want %s", got, wantDigest)
	}
}

// TestBackSplitsRunMove rewinds into the middle of a single long run
// move and checks the position, then replays to the end state.
func TestBackSplitsRunMove(t *testing.T) {
	s := newSession(t, Options{})
	if err := s.Call("spin", 300); err != nil {
		t.Fatalf("Call: %v", err)
	}
	out := mustRun(t, s, 0) // run to halt
	if !strings.Contains(out, "halted") {
		t.Fatalf("run to halt reported %q", out)
	}
	endCycle := s.Cycles()
	endDigest := mustDigest(t, s)
	if !s.Machine().CPU.Halted() {
		t.Fatalf("not halted after run to halt")
	}

	if _, err := s.Back(endCycle / 2); err != nil {
		t.Fatalf("Back: %v", err)
	}
	midCycle := s.Cycles()
	if midCycle >= endCycle || s.Machine().CPU.Halted() {
		t.Fatalf("rewind landed at cycle %d (halted=%v), want mid-run", midCycle, s.Machine().CPU.Halted())
	}
	// The target may overshoot to a block boundary but must be near it.
	if target := endCycle - endCycle/2; midCycle < target {
		t.Fatalf("rewound to %d, before the target %d", midCycle, target)
	}
	// Replay to halt reproduces the end state.
	out = mustRun(t, s, 0)
	if !strings.Contains(out, "halted") {
		t.Fatalf("replay to halt reported %q", out)
	}
	if s.Cycles() != endCycle {
		t.Fatalf("replay halted at cycle %d, want %d", s.Cycles(), endCycle)
	}
	if got := mustDigest(t, s); got != endDigest {
		t.Fatalf("digest after replay-to-halt = %s, want %s", got, endDigest)
	}
}

// TestTruncateOnNewWrite: issuing a new operation mid-timeline
// discards the retained future, and the session continues on the new
// branch.
func TestTruncateOnNewWrite(t *testing.T) {
	s := newSession(t, Options{})
	if err := s.Call("spin", 200); err != nil {
		t.Fatalf("Call: %v", err)
	}
	mustRun(t, s, 1000)
	if err := s.Set("mode", 1); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	mustRun(t, s, 1000)
	movesBefore := len(s.moves)

	// Rewind past the commit, then branch with a different set: the
	// old future (set mode=1 + commit + run) must be gone.
	if _, err := s.Back(s.Cycles() - 500); err != nil {
		t.Fatalf("Back: %v", err)
	}
	if s.pos >= movesBefore {
		t.Fatalf("rewind did not move the position back (pos=%d)", s.pos)
	}
	if err := s.Set("mode", 0); err != nil {
		t.Fatalf("Set on branch: %v", err)
	}
	if s.pos != len(s.moves) {
		t.Fatalf("new write left a retained future (pos=%d, moves=%d)", s.pos, len(s.moves))
	}
	if s.Runtime().Stats.Commits != 0 {
		t.Fatalf("branch state still shows the truncated commit")
	}
	// The branch keeps running normally.
	out := mustRun(t, s, 0)
	if !strings.Contains(out, "halted") {
		t.Fatalf("branch run to halt reported %q", out)
	}
}

// TestFailedCommitReplays: a commit refused by the activeness check
// stays on the timeline and replays as the same failure.
func TestFailedCommitReplays(t *testing.T) {
	s := newSession(t, Options{Commit: core.CommitOptions{Mode: core.ModeTextPoke}})
	if err := s.Call("spin", 500); err != nil {
		t.Fatalf("Call: %v", err)
	}
	// Probe pauses until one lands inside step (the generic being
	// rebound live on the stack) so the commit is refused.
	var ferr error
	for i := 0; i < 64; i++ {
		mustRun(t, s, 7)
		if err := s.Set("mode", 1); err != nil {
			t.Fatalf("Set: %v", err)
		}
		if _, ferr = s.Commit(); ferr != nil {
			break
		}
		if err := s.Revert(); err != nil {
			t.Fatalf("Revert: %v", err)
		}
	}
	if ferr == nil {
		t.Skip("never caught the generic active on the stack; layout changed")
	}
	refusals := s.Runtime().Stats.ActiveRefusals
	if refusals == 0 {
		t.Fatalf("refused commit did not count an active-refusal")
	}
	mustRun(t, s, 400)
	wantDigest := mustDigest(t, s)
	wantCycle := s.Cycles()

	if _, err := s.Back(350); err != nil {
		t.Fatalf("Back: %v", err)
	}
	mustRun(t, s, wantCycle-s.Cycles())
	if got := mustDigest(t, s); got != wantDigest {
		t.Fatalf("digest after replaying a failed commit = %s, want %s", got, wantDigest)
	}
	if got := s.Runtime().Stats.ActiveRefusals; got != refusals {
		t.Fatalf("replay refusal count = %d, want %d", got, refusals)
	}
}

// TestBreaksAndSpans: the commit break class stops a run at commit
// activity, and the spans view groups the recorded events.
func TestBreaksAndSpans(t *testing.T) {
	s := newSession(t, Options{})
	if err := s.Call("spin", 2000); err != nil {
		t.Fatalf("Call: %v", err)
	}
	mustRun(t, s, 1000)
	if on, err := s.ToggleBreak("commit"); err != nil || !on {
		t.Fatalf("ToggleBreak: on=%v err=%v", on, err)
	}
	if _, err := s.ToggleBreak("bogus"); err == nil {
		t.Fatalf("ToggleBreak accepted a bogus class")
	}
	if err := s.Set("mode", 1); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	out := mustRun(t, s, 50_000)
	// The commit events predate the run, so the first chunk's scan
	// trips immediately.
	if !strings.Contains(out, "break: commit") {
		// Commit happened before the run; the cursor was synced at arm
		// time, so the commit events recorded between arm and run DO
		// count as fresh.
		t.Fatalf("run did not stop at the commit break: %q", out)
	}
	spans := s.Spans()
	if !strings.Contains(spans, "span ") {
		t.Fatalf("spans view shows no spans:\n%s", spans)
	}
	if off, err := s.ToggleBreak("commit"); err != nil || off {
		t.Fatalf("ToggleBreak disarm: on=%v err=%v", off, err)
	}
}

// TestWhereStateDis: smoke the inspection views.
func TestWhereStateDis(t *testing.T) {
	s := newSession(t, Options{})
	if err := s.Call("spin", 100); err != nil {
		t.Fatalf("Call: %v", err)
	}
	mustRun(t, s, 500)
	if w := s.Where(); !strings.Contains(w, "cycle ") || !strings.Contains(w, "pc=") {
		t.Fatalf("Where: %q", w)
	}
	if st := s.State(); !strings.Contains(st, "func step") {
		t.Fatalf("State missing function table:\n%s", st)
	}
	dis, err := s.Disassemble("spin", 6)
	if err != nil {
		t.Fatalf("Disassemble: %v", err)
	}
	if !strings.Contains(dis, "spin:") {
		t.Fatalf("Disassemble missing symbol label:\n%s", dis)
	}
	if _, err := s.Disassemble("no_such_symbol", 1); err == nil {
		t.Fatalf("Disassemble accepted an unknown symbol")
	}
}

// TestOpenAtSnapshot: a session opened with Options.Snapshot starts
// at the captured state (same digest) and continuing from it lands
// exactly where the original session's forward execution landed.
func TestOpenAtSnapshot(t *testing.T) {
	img := buildImg(t)
	a, err := New(img, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := a.Call("spin", 300); err != nil {
		t.Fatalf("Call: %v", err)
	}
	mustRun(t, a, 1000)
	midCycle := a.Cycles()
	midDigest := mustDigest(t, a)
	snap, err := snapshot.Capture(nil, a.Machine(), a.Runtime())
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	mustRun(t, a, 700)
	wantCycle, wantDigest := a.Cycles(), mustDigest(t, a)

	b, err := New(img, Options{Snapshot: snap})
	if err != nil {
		t.Fatalf("New with snapshot: %v", err)
	}
	if b.Cycles() != midCycle {
		t.Fatalf("opened at cycle %d, want %d", b.Cycles(), midCycle)
	}
	if d := mustDigest(t, b); d != midDigest {
		t.Fatalf("opening digest %s != captured %s", d, midDigest)
	}
	mustRun(t, b, 700)
	if b.Cycles() != wantCycle {
		t.Fatalf("continued to cycle %d, want %d", b.Cycles(), wantCycle)
	}
	if d := mustDigest(t, b); d != wantDigest {
		t.Fatalf("continuation digest diverged from forward execution")
	}
	// Rewinding below the snapshot clamps to the timeline origin.
	if _, err := b.Back(10 * midCycle); err != nil {
		t.Fatalf("Back: %v", err)
	}
	if b.Cycles() != midCycle {
		t.Fatalf("rewound to cycle %d, want the snapshot's %d", b.Cycles(), midCycle)
	}
}

// TestOpenAtSnapshotWrongImage: a snapshot from a different binary is
// refused at session construction, not at first use.
func TestOpenAtSnapshotWrongImage(t *testing.T) {
	a, err := New(buildImg(t), Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	snap, err := snapshot.Capture(nil, a.Machine(), a.Runtime())
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	other, _, err := core.BuildImage(core.GenOptions{}, core.Source{
		Name: "other.mvc",
		Text: "long f(long n) { return n + 1; }",
	})
	if err != nil {
		t.Fatalf("BuildImage: %v", err)
	}
	if _, err := New(other, Options{Snapshot: snap}); err == nil {
		t.Fatalf("snapshot from a different image accepted")
	}
}
