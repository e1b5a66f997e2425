package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/mem"
)

// snapshotExec captures every executable byte of the machine, so tests
// can assert a rolled-back image is byte-identical to its pre-commit
// state.
func snapshotExec(t *testing.T, sys *System) map[uint64][]byte {
	t.Helper()
	snap := make(map[uint64][]byte)
	for _, r := range sys.Machine.Mem.Regions() {
		if r.Prot&mem.Exec == 0 {
			continue
		}
		buf := make([]byte, r.Len)
		if err := sys.Machine.Mem.Read(r.Addr, buf); err != nil {
			t.Fatalf("snapshot read %#x: %v", r.Addr, err)
		}
		snap[r.Addr] = buf
	}
	return snap
}

func assertExecEqual(t *testing.T, sys *System, snap map[uint64][]byte, when string) {
	t.Helper()
	for addr, want := range snap {
		got := make([]byte, len(want))
		if err := sys.Machine.Mem.Read(addr, got); err != nil {
			t.Fatalf("%s: read %#x: %v", when, addr, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: text at %#x differs (byte +%d: got %#x want %#x)",
					when, addr, i, got[i], want[i])
			}
		}
	}
}

// TestCommitAbortRollsBackImage injects a persistent protect fault
// into the middle of a multi-site commit, in every commit mode, and
// asserts the text image comes back byte-identical, the logical state
// unwinds, and the audit passes.
func TestCommitAbortRollsBackImage(t *testing.T) {
	for _, tc := range []struct {
		mode CommitMode
		op   uint64 // the failing flip: the prologue's first, after the site's
	}{
		{ModeParked, 2},      // the site's write flips RW and back
		{ModeStopMachine, 2}, // likewise, inside the rendezvous
		{ModeTextPoke, 6},    // the site's three poke phases flip twice each
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			sys := buildFig2(t)
			sys.RT.SetCommitOptions(CommitOptions{Mode: tc.mode})
			if err := sys.SetSwitch("A", 1); err != nil {
				t.Fatal(err)
			}
			if err := sys.SetSwitch("B", 1); err != nil {
				t.Fatal(err)
			}
			pre := snapshotExec(t, sys)

			plan := faultinject.Exact(faultinject.Point{Kind: faultinject.KindProtect, Op: tc.op})
			plan.Attach(sys.Machine)
			defer faultinject.Detach(sys.Machine)

			res, err := sys.RT.Commit()
			if err == nil {
				t.Fatal("commit with a persistent protect fault succeeded")
			}
			if !errors.Is(err, ErrCommitAborted) {
				t.Fatalf("error does not wrap ErrCommitAborted: %v", err)
			}
			if res.Committed != 0 || res.Generic != 0 {
				t.Fatalf("aborted commit reported work: %+v", res)
			}
			if plan.Stats.Protect != 1 || sys.RT.Stats.SitesPatched+sys.RT.Stats.SitesInlined == 0 {
				t.Fatalf("the fault (fired %d times) did not land after a site was written", plan.Stats.Protect)
			}
			assertExecEqual(t, sys, pre, "after abort")
			if err := sys.RT.Audit(); err != nil {
				t.Fatalf("audit after rollback: %v", err)
			}
			if sys.RT.Stats.CommitAborts != 1 {
				t.Fatalf("CommitAborts = %d, want 1", sys.RT.Stats.CommitAborts)
			}
			// The program still runs on generic dispatch.
			call(t, sys, "foo")
			if call(t, sys, "calcs") != 1 || call(t, sys, "logs") != 1 {
				t.Fatal("program broken after rollback")
			}

			// With the plan exhausted, the same commit now succeeds.
			if _, err := sys.RT.Commit(); err != nil {
				t.Fatalf("retried commit: %v", err)
			}
			if err := sys.RT.Audit(); err != nil {
				t.Fatalf("audit after committed retry: %v", err)
			}
		})
	}
}

// TestTransientFaultRetriesAndSucceeds arms a transient write tear:
// the commit must repair the torn site, retry, and complete without
// surfacing an error.
func TestTransientFaultRetriesAndSucceeds(t *testing.T) {
	sys := buildFig2(t)
	if err := sys.SetSwitch("A", 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetSwitch("B", 1); err != nil {
		t.Fatal(err)
	}
	cyclesBefore := sys.Machine.CPU.Cycles()

	plan := faultinject.Exact(
		faultinject.Point{Kind: faultinject.KindWriteTear, Op: 0, Tear: 2, Transient: true},
	)
	plan.Attach(sys.Machine)
	defer faultinject.Detach(sys.Machine)

	if _, err := sys.RT.Commit(); err != nil {
		t.Fatalf("commit with transient tear: %v", err)
	}
	if plan.Stats.WriteTears != 1 {
		t.Fatalf("tear fired %d times, want 1", plan.Stats.WriteTears)
	}
	if sys.RT.Stats.CommitRetries == 0 {
		t.Fatal("no retry recorded for the transient fault")
	}
	if sys.RT.Stats.CommitAborts != 0 {
		t.Fatalf("transient fault aborted the commit (aborts=%d)", sys.RT.Stats.CommitAborts)
	}
	// Retry backoff must charge simulated time — only when faults fire.
	if sys.Machine.CPU.Cycles() == cyclesBefore {
		t.Fatal("retry backoff advanced no cycles")
	}
	if err := sys.RT.Audit(); err != nil {
		t.Fatalf("audit after retried commit: %v", err)
	}
	call(t, sys, "foo")
	if call(t, sys, "calcs") != 1 {
		t.Fatal("committed variant broken after retried patch")
	}
}

// TestDroppedFlushIsReflushed arms a dropped icache shootdown and
// checks the commit's verify pass re-broadcasts it.
func TestDroppedFlushIsReflushed(t *testing.T) {
	sys := buildFig2(t)
	// Warm the primary CPU's icache over the patch targets by running
	// the generic path first. PrologueOnly keeps the commit down to a
	// single patch (and so a single flush): in the tiny test program
	// all patch targets share one text page, and any later flush of
	// that page would mask the dropped one — exactly the coverage this
	// test must avoid.
	sys.RT.PrologueOnly = true
	if err := sys.SetSwitch("A", 1); err != nil {
		t.Fatal(err)
	}
	call(t, sys, "foo")

	plan := faultinject.Exact(
		faultinject.Point{Kind: faultinject.KindDropFlush, Op: 0, CPU: 0, Transient: true},
	)
	plan.Attach(sys.Machine)
	defer faultinject.Detach(sys.Machine)

	if _, err := sys.RT.Commit(); err != nil {
		t.Fatalf("commit with dropped flush: %v", err)
	}
	if plan.Stats.DropFlush != 1 {
		t.Fatalf("drop-flush fired %d times, want 1", plan.Stats.DropFlush)
	}
	if sys.RT.Stats.FlushRetries == 0 {
		t.Fatal("dropped shootdown was not re-broadcast")
	}
	if sys.Machine.ICacheStale(0, ^uint64(0)) {
		t.Fatal("stale icache lines survive the verify pass")
	}
	if err := sys.RT.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// threeFuncsSrc has three multiversed functions, one call site each,
// committed and reverted in declaration order.
const threeFuncsSrc = `
	multiverse int A;
	long n;
	multiverse void f1(void) { if (A) { n++; } }
	multiverse void f2(void) { if (A) { n++; } }
	multiverse void f3(void) { if (A) { n++; } }
	void foo(void) { f1(); f2(); f3(); }
`

// TestRevertContinuesPastFailures arms one persistent fault and checks
// Revert still restores every other function, reporting the single
// failure via errors.Join (the old code stopped at the first error).
func TestRevertContinuesPastFailures(t *testing.T) {
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "multi.mvc", Text: threeFuncsSrc})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetSwitch("A", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatal(err)
	}
	committed := snapshotExec(t, sys)

	// Fail the first protection flip of the revert, persistently: f1's
	// first site revert aborts and rolls back, f2 and f3 must still
	// revert.
	plan := faultinject.Exact(faultinject.Point{Kind: faultinject.KindProtect, Op: 0})
	plan.Attach(sys.Machine)
	defer faultinject.Detach(sys.Machine)

	err = sys.RT.Revert()
	if err == nil {
		t.Fatal("revert with a persistent fault reported success")
	}
	if !errors.Is(err, ErrCommitAborted) {
		t.Fatalf("revert error does not wrap ErrCommitAborted: %v", err)
	}
	if !strings.Contains(err.Error(), `"f1"`) {
		t.Fatalf("revert error does not name the failed function: %v", err)
	}
	if err := sys.RT.Audit(); err != nil {
		t.Fatalf("audit after partial revert: %v", err)
	}

	// f1 rolled back to its committed binding; f2/f3 reverted. A clean
	// Revert (plan exhausted) must now fully restore the image, and a
	// Commit restores the committed snapshot.
	if err := sys.RT.Revert(); err != nil {
		t.Fatalf("second revert: %v", err)
	}
	if err := sys.RT.Audit(); err != nil {
		t.Fatalf("audit after full revert: %v", err)
	}
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatal(err)
	}
	assertExecEqual(t, sys, committed, "after recommit")
}

// TestFaultMetadataSurvivesCorePaths checks errors.As extracts both
// the injector's fault and the architectural mem.Fault from a commit
// error that crossed platform, memory and runtime layers.
func TestFaultMetadataSurvivesCorePaths(t *testing.T) {
	sys := buildFig2(t)
	if err := sys.SetSwitch("A", 1); err != nil {
		t.Fatal(err)
	}
	plan := faultinject.Exact(faultinject.Point{Kind: faultinject.KindProtect, Op: 0})
	plan.Attach(sys.Machine)
	defer faultinject.Detach(sys.Machine)

	_, err := sys.RT.Commit()
	if err == nil {
		t.Fatal("commit succeeded")
	}
	var inj *faultinject.Fault
	if !errors.As(err, &inj) {
		t.Fatalf("errors.As found no *faultinject.Fault in %v", err)
	}
	if inj.Point.Kind != faultinject.KindProtect {
		t.Fatalf("fault kind = %v, want protect", inj.Point.Kind)
	}
	if inj.FaultTransient() {
		t.Fatal("persistent fault claims to be transient")
	}
}

// TestProtectFaultOnUnmappedWrapsMemFault checks the typed-fault
// satellite: Protect on an unmapped range yields a *mem.Fault through
// errors.As, with the faulting page address.
func TestProtectFaultOnUnmappedWrapsMemFault(t *testing.T) {
	m := mem.New()
	if err := m.Map(0x1000, 0x1000, mem.RW); err != nil {
		t.Fatal(err)
	}
	err := m.Protect(0x1000, 0x3000, mem.Read) // pages 2 and 3 unmapped
	if err == nil {
		t.Fatal("Protect over unmapped pages succeeded")
	}
	var f *mem.Fault
	if !errors.As(err, &f) {
		t.Fatalf("no *mem.Fault in %v", err)
	}
	if f.Addr != 0x2000 {
		t.Fatalf("fault addr = %#x, want 0x2000", f.Addr)
	}
}

// TestAuditDetectsTamper corrupts a patched site behind the runtime's
// back and checks the auditor reports it.
func TestAuditDetectsTamper(t *testing.T) {
	sys := buildFig2(t)
	if err := sys.SetSwitch("A", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := sys.RT.Audit(); err != nil {
		t.Fatalf("audit of a clean commit: %v", err)
	}

	// Corrupt one byte of the generic prologue of multi (a JMP rel32
	// after commit) — a torn write the runtime never made.
	gen, ok := sys.RT.FuncByName("multi")
	if !ok {
		t.Fatal("no function multi")
	}
	var b [1]byte
	if err := sys.Machine.Mem.Read(gen+2, b[:]); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if err := sys.Machine.Mem.WriteForce(gen+2, b[:]); err != nil {
		t.Fatal(err)
	}
	err := sys.RT.Audit()
	if err == nil {
		t.Fatal("audit missed a corrupted prologue")
	}
	if !strings.Contains(err.Error(), "multi") {
		t.Fatalf("audit error does not name the function: %v", err)
	}
}

// TestAuditDetectsStrandedRWPage flips a text page writable outside
// the runtime and checks the protection audit fires.
func TestAuditDetectsStrandedRWPage(t *testing.T) {
	sys := buildFig2(t)
	gen, ok := sys.RT.FuncByName("multi")
	if !ok {
		t.Fatal("no function multi")
	}
	page := gen &^ (mem.PageSize - 1)
	if err := sys.Machine.Mem.Protect(page, mem.PageSize, mem.RW|mem.Exec); err != nil {
		t.Fatal(err)
	}
	err := sys.RT.Audit()
	if err == nil {
		t.Fatal("audit missed a writable text page")
	}
	if !strings.Contains(err.Error(), "writable") {
		t.Fatalf("unexpected audit error: %v", err)
	}
}
