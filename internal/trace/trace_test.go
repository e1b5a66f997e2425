package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	for k := KindCommitBegin; k <= KindMispredict; k++ {
		if k.String() == "Unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "Unknown" {
		t.Errorf("out-of-range kind should be Unknown")
	}
}

func TestStreamRingBound(t *testing.T) {
	c := NewCollector(Options{Limit: 4})
	var cycle uint64
	s := c.NewStream("cpu0", func() uint64 { return cycle })
	for i := 0; i < 10; i++ {
		cycle = uint64(i)
		s.Emit(KindPatchSite, uint64(i), 0, 0)
	}
	evs := s.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want ring bound 4", len(evs))
	}
	// The survivors are the newest four, in emission order.
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Cycle != want {
			t.Errorf("event %d has cycle %d, want %d", i, ev.Cycle, want)
		}
	}
	if s.Dropped() != 6 {
		t.Errorf("Dropped() = %d, want 6", s.Dropped())
	}
	if c.Dropped() != 6 {
		t.Errorf("Collector.Dropped() = %d, want 6", c.Dropped())
	}
}

func TestCollectorMergesStreamsByCycle(t *testing.T) {
	c := NewCollector(Options{})
	t0, t1 := uint64(0), uint64(0)
	s0 := c.NewStream("cpu0", func() uint64 { return t0 })
	s1 := c.NewStream("cpu1", func() uint64 { return t1 })
	t0 = 5
	s0.Emit(KindFlushICache, 1, 0, 0)
	t1 = 2
	s1.Emit(KindFlushICache, 2, 0, 0)
	t0 = 9
	s0.Emit(KindFlushICache, 3, 0, 0)
	t1 = 9 // tie: stream order breaks it
	s1.Emit(KindFlushICache, 4, 0, 0)

	evs := c.Events()
	var got []uint64
	for _, ev := range evs {
		got = append(got, ev.Addr)
	}
	want := []uint64{2, 1, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged order %v, want %v", got, want)
		}
	}
}

func TestSymTableResolve(t *testing.T) {
	tab := NewSymTable([]Sym{
		{Name: "b", Addr: 200, Size: 50},
		{Name: "a", Addr: 100, Size: 20},
		{Name: "zero", Addr: 300, Size: 0}, // dropped
	})
	if tab.Len() != 2 {
		t.Fatalf("Len() = %d, want 2 (zero-size dropped)", tab.Len())
	}
	cases := []struct {
		pc     uint64
		name   string
		lo, hi uint64
	}{
		{100, "a", 100, 120},
		{119, "a", 100, 120},
		{120, UnknownName, 120, 200}, // gap between a and b
		{200, "b", 200, 250},
		{249, "b", 200, 250},
		{250, UnknownName, 250, ^uint64(0)},
		{50, UnknownName, 0, 100},
	}
	for _, tc := range cases {
		name, lo, hi := tab.Resolve(tc.pc)
		if name != tc.name || lo != tc.lo || hi != tc.hi {
			t.Errorf("Resolve(%d) = (%q, %d, %d), want (%q, %d, %d)",
				tc.pc, name, lo, hi, tc.name, tc.lo, tc.hi)
		}
	}
	var nilTab *SymTable
	if n := nilTab.Name(42); n != UnknownName {
		t.Errorf("nil table resolved %q", n)
	}
}

// feedProgram drives the profiler hooks the way the interpreter
// would: Step before each instruction, Call/Ret on transfers.
func TestProfilerFoldedStacks(t *testing.T) {
	c := NewCollector(Options{Profile: true})
	c.SetSymbols(NewSymTable([]Sym{
		{Name: "main", Addr: 100, Size: 50},
		{Name: "leaffn", Addr: 200, Size: 30},
	}))
	var cyc uint64
	s := c.NewStream("cpu0", func() uint64 { return cyc })

	step := func(pc, cost uint64) {
		s.Step(pc, cyc, nil)
		cyc += cost
	}
	step(100, 10) // main
	step(105, 5)  // main
	s.Call(110, 200)
	step(110, 3) // the call instruction: charged to main
	step(200, 7) // leaffn
	step(210, 7) // leaffn
	s.Ret(225, 115)
	step(225, 2) // the ret instruction: charged to leaffn
	step(115, 4) // back in main
	step(119, 0) // final Step closes the previous delta

	p := c.Profile()
	if p == nil {
		t.Fatal("Profile() = nil with profiling enabled")
	}
	if got, want := p.Folded["main"], uint64(10+5+3+4); got != want {
		t.Errorf("main self cycles = %d, want %d", got, want)
	}
	if got, want := p.Folded["main;leaffn"], uint64(7+7+2); got != want {
		t.Errorf("main;leaffn cycles = %d, want %d", got, want)
	}
	if got, want := p.Calls["main;leaffn"], uint64(1); got != want {
		t.Errorf("call edge count = %d, want %d", got, want)
	}

	var buf bytes.Buffer
	if err := c.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "main;leaffn 16") {
		t.Errorf("folded output missing stack line:\n%s", out)
	}
}

func TestProfilerDisabledHooksAreNoops(t *testing.T) {
	c := NewCollector(Options{})
	s := c.NewStream("cpu0", nil)
	s.Step(1, 2, nil)
	s.Call(3, 4)
	s.Ret(5, 6)
	if c.Profile() != nil {
		t.Error("Profile() non-nil without profiling")
	}
	if err := c.WriteFolded(&bytes.Buffer{}); err == nil {
		t.Error("WriteFolded should fail without profiling")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	c := NewCollector(Options{})
	c.SetSymbols(NewSymTable([]Sym{{Name: "handler", Addr: 0x400, Size: 0x100}}))
	var cyc uint64
	s := c.NewStream("cpu0", func() uint64 { return cyc })

	s.Emit(KindCommitBegin, 0, 0, 0)
	s.EmitName(KindSwitchValue, 0x1000, 1, 0, "feature")
	cyc = 10
	s.Emit(KindPatchSite, 0x410, 5, 0)
	s.Emit(KindFlushICache, 0x410, 5, 0)
	cyc = 20
	s.Emit(KindCommitEnd, 0, 1, 0)
	cyc = 30
	s.Emit(KindRevertBegin, 0, 0, 0) // never closed: exported to lastCycle

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	byName := map[string][]map[string]any{}
	for _, ev := range out.TraceEvents {
		n := ev["name"].(string)
		byName[n] = append(byName[n], ev)
	}
	if len(byName["thread_name"]) != 1 {
		t.Errorf("want one thread_name metadata row, got %d", len(byName["thread_name"]))
	}
	commits := byName["Commit"]
	if len(commits) != 1 || commits[0]["ph"] != "X" {
		t.Fatalf("want one complete Commit span, got %v", commits)
	}
	if dur := commits[0]["dur"].(float64); dur != 20 {
		t.Errorf("Commit span duration = %v, want 20", dur)
	}
	reverts := byName["Revert"]
	if len(reverts) != 1 || reverts[0]["ph"] != "X" {
		t.Fatalf("unclosed Revert should still export as a span, got %v", reverts)
	}
	patch := byName["PatchSite"]
	if len(patch) != 1 || patch[0]["ph"] != "i" {
		t.Fatalf("want an instant PatchSite, got %v", patch)
	}
	args := patch[0]["args"].(map[string]any)
	if args["sym"] != "handler" {
		t.Errorf("PatchSite not annotated with symbol: %v", args)
	}
	sw := byName["SwitchValue"]
	if len(sw) != 1 {
		t.Fatalf("want a SwitchValue event")
	}
	if sw[0]["args"].(map[string]any)["switch"] != "feature" {
		t.Errorf("SwitchValue lost its name: %v", sw[0])
	}
}

// TestChromeTraceFlowEvents pins the cross-CPU causality rendering: a
// commit span whose events land on two streams (the committing CPU and
// a victim CPU trapping on the patched site) must export Chrome flow
// events (ph "s" ... "f" with the span as id) tying the streams
// together in Perfetto. Single-stream spans get no flow arrows.
func TestChromeTraceFlowEvents(t *testing.T) {
	c := NewCollector(Options{})
	t0, t1 := uint64(0), uint64(0)
	s0 := c.NewStream("cpu0", func() uint64 { return t0 })
	s1 := c.NewStream("cpu1", func() uint64 { return t1 })

	s0.SetSpan(9) // collector-wide: both streams stamp span 9
	s0.Emit(KindCommitBegin, 0, 0, 0)
	t1 = 5
	s1.EmitName(KindTrap, 0x400, 0, 0, "multi") // victim CPU, same span
	t0 = 10
	s0.Emit(KindCommitEnd, 0, 1, 0)
	s0.SetSpan(0)
	t0 = 20
	s0.Emit(KindRevertBegin, 0, 0, 0) // unspanned: no flow
	t0 = 25
	s0.Emit(KindRevertEnd, 0, 0, 0)

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	byPh := map[string][]map[string]any{}
	for _, ev := range out.TraceEvents {
		ph := ev["ph"].(string)
		byPh[ph] = append(byPh[ph], ev)
	}
	if len(byPh["s"]) != 1 || len(byPh["f"]) != 1 {
		t.Fatalf("want one flow start and one finish, got s=%d f=%d:\n%s",
			len(byPh["s"]), len(byPh["f"]), buf.String())
	}
	start, finish := byPh["s"][0], byPh["f"][0]
	if start["id"].(float64) != 9 || finish["id"].(float64) != 9 {
		t.Errorf("flow events should carry the span as id: s=%v f=%v", start, finish)
	}
	// The chain must visit both streams: start on the committing CPU,
	// a "t" hop where the victim CPU first saw the span.
	tids := map[any]bool{start["tid"]: true, finish["tid"]: true}
	for _, hop := range byPh["t"] {
		if hop["id"].(float64) == 9 {
			tids[hop["tid"]] = true
		}
	}
	if len(tids) < 2 {
		t.Errorf("flow chain should cross streams, saw tids %v:\n%s", tids, buf.String())
	}
}

func TestChromeTraceUnmatchedEndDegradesToInstant(t *testing.T) {
	c := NewCollector(Options{})
	s := c.NewStream("cpu0", nil)
	s.Emit(KindCommitEnd, 0, 1, 0) // begin was dropped from the ring
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ph":"i"`) {
		t.Errorf("orphan end should become an instant:\n%s", buf.String())
	}
}
