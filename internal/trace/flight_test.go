package trace

import (
	"bytes"
	"testing"
)

func TestRecorderFiltersToFlightKinds(t *testing.T) {
	r := NewRecorder(0)
	r.Emit(KindPatchSite, 0x100, 4, 0)   // high-rate kind: dropped
	r.Emit(KindFlushICache, 0x100, 4, 0) // high-rate kind: dropped
	r.Step(0x100, 1, nil)                // CPU hooks are no-ops
	r.Call(0x100, 0x200)
	r.Ret(0x200, 0x104)
	r.Emit(KindCommitAbort, 0, 1, 0)
	evs := r.Events()
	if len(evs) != 1 || evs[0].Kind != KindCommitAbort {
		t.Fatalf("recorder kept %v, want only the CommitAbort", evs)
	}
}

func TestRecorderRingOverwritesOldest(t *testing.T) {
	r := NewRecorder(4)
	cycle := uint64(0)
	r.SetClock(func() uint64 { cycle++; return cycle })
	for i := 0; i < 10; i++ {
		r.Emit(KindCommitRetry, 0, uint64(i), 0)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want ring bound 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.A != want {
			t.Errorf("event %d: A = %d, want %d (oldest-first)", i, ev.A, want)
		}
	}
	if r.Dropped() != 6 {
		t.Errorf("Dropped() = %d, want 6", r.Dropped())
	}
}

func TestRecorderSpanStamping(t *testing.T) {
	r := NewRecorder(0)
	r.SetSpan(3)
	r.Emit(KindCommitBegin, 0, 0, 0)
	r.SetSpan(0)
	r.Emit(KindRendezvous, 0, 10, 1)
	evs := r.Events()
	if evs[0].Span != 3 || evs[1].Span != 0 {
		t.Fatalf("span stamping wrong: %+v", evs)
	}
}

func TestFlightDumpRoundTrip(t *testing.T) {
	r := NewRecorder(0)
	cycle := uint64(100)
	r.SetClock(func() uint64 { cycle += 10; return cycle })
	r.SetSpan(1)
	r.EmitName(KindCommitBegin, 0x400, 0, 0, "multi")
	r.Emit(KindRendezvous, 0, 25, 2)
	r.Emit(KindCommitAbort, 0, 2, 0)
	d := r.Dump("boom")

	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlightDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != "boom" || len(got.Events) != 3 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	want := r.Events()
	for i, fe := range got.Events {
		ev, err := fe.Event()
		if err != nil {
			t.Fatal(err)
		}
		if ev != want[i] {
			t.Errorf("event %d: round trip %+v != original %+v", i, ev, want[i])
		}
	}
}

func TestRecorderNoteFailure(t *testing.T) {
	r := NewRecorder(0)
	r.Emit(KindCommitAbort, 0, 1, 0)
	var cbReason string
	r.OnFailure = func(reason string, d *FlightDump) { cbReason = reason }

	if r.LastDump() != nil {
		t.Fatal("LastDump should be nil before any failure")
	}
	r.NoteFailure("commit-abort")
	d := r.LastDump()
	if d == nil || d.Reason != "commit-abort" || len(d.Events) != 1 {
		t.Fatalf("LastDump = %+v", d)
	}
	if cbReason != "commit-abort" {
		t.Errorf("OnFailure got reason %q", cbReason)
	}
}

func TestFlightEventRejectsUnknownKind(t *testing.T) {
	if _, err := (FlightEvent{Kind: "NoSuchKind"}).Event(); err == nil {
		t.Fatal("unknown kind name should not decode")
	}
}
