package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// sampleDump synthesizes the dump an aborted stop-machine commit
// leaves behind: rendezvous, poke phases, rollback, abort — all on one
// causality span — plus an unspanned watchdog alert.
func sampleDump() trace.FlightDump {
	cycle := uint64(1000)
	rec := trace.NewRecorder(0)
	rec.SetClock(func() uint64 { cycle += 100; return cycle })

	rec.SetSpan(7)
	rec.EmitName(trace.KindCommitBegin, 0x1000, 0, 0, "multi")
	rec.EmitName(trace.KindPhaseBegin, 0, 0, 0, "stop-machine")
	rec.Emit(trace.KindRendezvous, 0, 40, 2)
	rec.EmitName(trace.KindPhaseBegin, 0, 0, 0, "poke")
	rec.Emit(trace.KindPokePhase, 0x1010, 4, 1)
	rec.EmitName(trace.KindPhaseEnd, 0, 0, 0, "poke")
	rec.EmitName(trace.KindPhaseBegin, 0, 0, 0, "rollback")
	rec.Emit(trace.KindRollback, 0x1010, 4, 0)
	rec.EmitName(trace.KindPhaseEnd, 0, 0, 0, "rollback")
	rec.EmitName(trace.KindPhaseEnd, 0, 0, 0, "stop-machine")
	rec.Emit(trace.KindCommitAbort, 0, 3, 0)
	rec.SetSpan(0)
	rec.EmitName(trace.KindWatchdogAlert, 0, 9000, 5000, "rendezvous-latency")

	return rec.Dump("test abort")
}

func writeDump(t *testing.T, name string, write func(w io.Writer) error) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadDumpStandalone(t *testing.T) {
	d := sampleDump()
	path := writeDump(t, "dump.json", d.WriteJSON)

	got, err := readDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != "test abort" || len(got.Events) != len(d.Events) {
		t.Fatalf("readDump = reason=%q events=%d, want reason=%q events=%d",
			got.Reason, len(got.Events), d.Reason, len(d.Events))
	}
}

func TestReadDumpArtifactWrapped(t *testing.T) {
	d := sampleDump()
	path := writeDump(t, "artifact.json", func(w io.Writer) error {
		if _, err := io.WriteString(w, `{"seed": 42, "error": "boom", "flight": `); err != nil {
			return err
		}
		if err := d.WriteJSON(w); err != nil {
			return err
		}
		_, err := io.WriteString(w, "}\n")
		return err
	})

	got, err := readDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != "test abort" || len(got.Events) != len(d.Events) {
		t.Fatalf("wrapped readDump = reason=%q events=%d, want %q/%d",
			got.Reason, len(got.Events), d.Reason, len(d.Events))
	}
}

func TestReadDumpRejectsGarbage(t *testing.T) {
	path := writeDump(t, "garbage.json", func(w io.Writer) error {
		_, err := io.WriteString(w, `{"seed": 1}`)
		return err
	})
	if _, err := readDump(path); err == nil {
		t.Fatal("readDump accepted a JSON object that is not a flight dump")
	}
}

func TestRenderTable(t *testing.T) {
	d := sampleDump()
	var sb strings.Builder
	if err := render(&sb, &d, false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`reason="test abort"`,
		"CYCLE", "SPAN", "KIND", "DETAIL",
		"CommitBegin", "func=multi",
		"Rendezvous", "latency=40 ranges=2",
		"PokePhase", "len=4 phase=1",
		"CommitAbort", "rolled_back=3",
		"WatchdogAlert", "rule=rendezvous-latency value=9000 threshold=5000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTimeline(t *testing.T) {
	d := sampleDump()
	var sb strings.Builder
	if err := render(&sb, &d, true); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"span 7 (commit aborted)",
		"phase stop-machine",
		"phase poke",
		"phase rollback",
		"Rendezvous",
		"unspanned: 1 event(s)",
		"WatchdogAlert",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline output missing %q:\n%s", want, out)
		}
	}
	// Phases must carry their measured latencies: poke spans two emits
	// at 100 cycles apart (begin at its PhaseBegin, end at PhaseEnd).
	if !strings.Contains(out, "200 cycles") {
		t.Errorf("timeline output missing poke phase latency:\n%s", out)
	}
}

// TestRenderTimelineOSRPhases pins the OSR span rendering: an
// on-stack-replacement commit emits osr-herd (victims stepped to
// mapped points) and osr-transfer (frame rewrite) phases inside the
// rendezvous, and -timeline must render both with latencies.
func TestRenderTimelineOSRPhases(t *testing.T) {
	cycle := uint64(0)
	rec := trace.NewRecorder(0)
	rec.SetClock(func() uint64 { cycle += 25; return cycle })
	rec.SetSpan(3)
	rec.EmitName(trace.KindCommitBegin, 0x2000, 0, 0, "spin_lock")
	rec.EmitName(trace.KindPhaseBegin, 0, 0, 0, "stop-machine")
	rec.EmitName(trace.KindPhaseBegin, 0, 0, 0, "osr-herd")
	rec.EmitName(trace.KindPhaseEnd, 0, 0, 0, "osr-herd")
	rec.EmitName(trace.KindPhaseBegin, 0, 0, 0, "osr-transfer")
	rec.EmitName(trace.KindPhaseEnd, 0, 0, 0, "osr-transfer")
	rec.EmitName(trace.KindPhaseEnd, 0, 0, 0, "stop-machine")
	rec.Emit(trace.KindCommitEnd, 0x2000, 1, 0)
	d := rec.Dump("osr commit")

	var sb strings.Builder
	if err := render(&sb, &d, true); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"span 3 (commit ok)",
		"phase osr-herd",
		"phase osr-transfer",
		"phase stop-machine",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTimelineUnfinishedPhase(t *testing.T) {
	cycle := uint64(0)
	rec := trace.NewRecorder(0)
	rec.SetClock(func() uint64 { cycle += 10; return cycle })
	rec.SetSpan(1)
	rec.EmitName(trace.KindCommitBegin, 0, 0, 0, "f")
	rec.EmitName(trace.KindPhaseBegin, 0, 0, 0, "poke")
	rec.Emit(trace.KindCommitAbort, 0, 1, 0)
	d := rec.Dump("mid-phase")

	var sb strings.Builder
	if err := render(&sb, &d, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "unfinished") {
		t.Errorf("timeline did not flag the unfinished phase:\n%s", sb.String())
	}
}

// TestRenderSnapCountsWrittenPages: -snap reports how many of the
// mapped pages carry bytes. A machine that has only booted has written
// its image's pages and none of its 64 stack pages.
func TestRenderSnapCountsWrittenPages(t *testing.T) {
	sys, err := core.BuildSystem(core.GenOptions{}, nil,
		core.Source{Name: "snap.mvc", Text: `long g; long f(void) { return g; }`})
	if err != nil {
		t.Fatal(err)
	}
	data, err := snapshot.Capture(nil, sys.Machine, sys.RT)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "boot.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := renderSnap(&out, path); err != nil {
		t.Fatal(err)
	}
	img := 0
	for _, seg := range sys.Machine.Image.Segments {
		img += int(mem.PageAlignUp(uint64(len(seg.Data))) / mem.PageSize)
	}
	want := fmt.Sprintf("  pages    %d (%d written, %d KiB carried; the rest never written)",
		img+64, img, img*mem.PageSize/1024)
	if !strings.Contains(out.String(), want) {
		t.Errorf("-snap output lacks %q:\n%s", want, out.String())
	}
}

// TestRenderSnapMarksStaleLines: -snap lists each CPU's resident icache
// lines, and marks a line stale once its page is written with no flush
// after it; the header's cycle is the primary CPU's.
func TestRenderSnapMarksStaleLines(t *testing.T) {
	sys, err := core.BuildSystem(core.GenOptions{}, nil,
		core.Source{Name: "stale.mvc", Text: `long g; long f(void) { return g; }`})
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Machine
	if _, err := m.CallNamed("f"); err != nil {
		t.Fatal(err)
	}
	render := func(name string) string {
		t.Helper()
		data, err := snapshot.Capture(nil, m, sys.RT)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := renderSnap(&out, path); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	f := m.MustSymbol("f")
	line := fmt.Sprintf("           line %#x version 1", f&^(mem.PageSize-1))
	out := render("fresh.snap")
	for _, want := range []string{fmt.Sprintf("  cycle    %d\n", m.CPU.Cycles()), line + "\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("-snap output lacks %q:\n%s", want, out)
		}
	}

	var b [1]byte
	if err := m.Mem.Read(f, b[:]); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.WriteForce(f, b[:]); err != nil { // rewrites the text, flushes nothing
		t.Fatal(err)
	}
	out = render("stale.snap")
	if want := line + "  stale: page at version 2\n"; !strings.Contains(out, want) {
		t.Errorf("-snap output lacks %q:\n%s", want, out)
	}
}
