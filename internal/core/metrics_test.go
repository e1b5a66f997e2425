package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestAttachMetricsEndToEnd drives the scrape path: build, attach,
// commit, run, then check that the Prometheus exposition carries the
// commit-latency histogram and per-function residency series the
// issue's acceptance criteria name.
func TestAttachMetricsEndToEnd(t *testing.T) {
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "m", Text: traceProgram})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	Observers{Metrics: reg}.Attach(sys.Machine, sys.RT)
	mm := sys.RT.metrics
	if mm == nil {
		t.Fatal("attaching a registry did not install the bundle on the runtime")
	}

	if err := sys.SetSwitch("feature_enabled", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := sys.Machine.CallNamed("handle_request"); err != nil {
			t.Fatal(err)
		}
	}

	lat := mm.commitLatency.Snapshot()
	if lat.Count != 1 {
		t.Fatalf("commit latency observations = %d, want 1", lat.Count)
	}
	if lat.Sum == 0 {
		t.Error("commit latency modeled as zero cycles; protect/flush/site costs not accounted")
	}
	if got := reg.CounterTotal("mv_commits_total"); got != 1 {
		t.Errorf("mv_commits_total = %d, want 1", got)
	}
	if got := reg.CounterTotal("mv_instructions_total"); got == 0 {
		t.Error("mv_instructions_total = 0 after running guest code")
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	for _, want := range []string{
		"# TYPE mv_commit_latency_cycles histogram",
		"mv_commit_latency_cycles_bucket{le=\"+Inf\"} 1",
		"mv_variant_residency_cycles{function=\"process\",variant=\"process.variant1\"}",
		"mv_variant_residency_cycles{function=\"process\",variant=\"generic\"}",
		"mv_decode_hit_ratio",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("exposition missing %q\n%s", want, prom)
		}
	}

	// The open residency interval must be folded in at scrape time:
	// after 10 calls the variant binding has accumulated real cycles.
	snap := reg.Snapshot()
	fam := snap.Find("mv_variant_residency_cycles")
	if fam == nil {
		t.Fatal("snapshot missing mv_variant_residency_cycles")
	}
	var variantCycles float64
	for _, s := range fam.Series {
		if s.Labels["function"] == "process" && s.Labels["variant"] == "process.variant1" {
			variantCycles = *s.Value
		}
	}
	if variantCycles == 0 {
		t.Error("process.variant1 residency is zero while the binding is live")
	}
}

// TestResidencyClosesIntervalsOnRebind checks the interval bookkeeping
// across commit → revert → commit transitions.
func TestResidencyClosesIntervalsOnRebind(t *testing.T) {
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "m", Text: traceProgram})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	Observers{Metrics: reg}.Attach(sys.Machine, sys.RT)
	mm := sys.RT.metrics

	read := func(variant string) uint64 {
		snap := reg.Snapshot()
		fam := snap.Find("mv_variant_residency_cycles")
		for _, s := range fam.Series {
			if s.Labels["function"] == "process" && s.Labels["variant"] == variant {
				return uint64(*s.Value)
			}
		}
		return 0
	}

	if err := sys.SetSwitch("feature_enabled", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := sys.Machine.CallNamed("handle_request"); err != nil {
			t.Fatal(err)
		}
	}
	boundCycles := read("process.variant1")
	if boundCycles == 0 {
		t.Fatal("no residency accumulated while bound")
	}

	if err := sys.RT.Revert(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := sys.Machine.CallNamed("handle_request"); err != nil {
			t.Fatal(err)
		}
	}
	// The variant interval is closed: more execution must not grow it.
	if after := read("process.variant1"); after != boundCycles {
		t.Errorf("closed variant residency moved: %d -> %d", boundCycles, after)
	}
	if read("generic") == 0 {
		t.Error("no generic residency accumulated after revert")
	}
	if mm.commitLatency.Snapshot().Count != 1 {
		t.Errorf("revert must not observe into the commit-latency histogram")
	}
}

// TestStateReportMetricsSection checks that the report gains a metrics
// line only when a registry is attached — the detached rendering is
// pinned byte-for-byte by report_test.go.
func TestStateReportMetricsSection(t *testing.T) {
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "m", Text: traceProgram})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := sys.RT.StateReport(); strings.Contains(got, "mtrc ") {
		t.Fatalf("detached report mentions metrics:\n%s", got)
	}

	Observers{Metrics: metrics.New()}.Attach(sys.Machine, sys.RT)
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := sys.RT.StateReport(); !strings.Contains(got, "mtrc commit-latency{count=1") {
		t.Fatalf("attached report missing metrics section:\n%s", got)
	}
}

// TestSharedRegistryAggregatesSystems: two systems built with one
// registry, as mvbench builds every experiment, sum into its series.
func TestSharedRegistryAggregatesSystems(t *testing.T) {
	obs := &Observers{Metrics: metrics.New()}
	reg := obs.Metrics
	var systems []*System
	for i := 0; i < 2; i++ {
		sys, err := BuildSystem(GenOptions{}, obs, Source{Name: "m", Text: traceProgram})
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys)
	}
	for _, sys := range systems {
		if _, err := sys.RT.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Machine.CallNamed("handle_request"); err != nil {
			t.Fatal(err)
		}
	}
	// Readers from both systems sum into one series.
	if got := reg.CounterTotal("mv_commits_total"); got != 2 {
		t.Errorf("aggregated mv_commits_total = %d, want 2", got)
	}
	one := systems[0].Machine.TotalStats().Instructions
	two := systems[1].Machine.TotalStats().Instructions
	if got := reg.CounterTotal("mv_instructions_total"); got != one+two {
		t.Errorf("aggregated mv_instructions_total = %d, want %d", got, one+two)
	}
}
