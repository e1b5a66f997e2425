package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestInputsDependOnlyOnTheSeed(t *testing.T) {
	if !reflect.DeepEqual(corpus(7), corpus(7)) {
		t.Error("corpus(7) differs between two calls")
	}
	a, b := corpus(7), corpus(8)
	same := len(a) == len(b)
	for i := 0; same && i < len(a); i++ {
		same = a[i].src == b[i].src
	}
	if same {
		t.Error("corpus(7) and corpus(8) are identical")
	}
	// Every seed compiles the same amount of source.
	size := func(us []unit) (n int) {
		for _, u := range us {
			n += len(u.src.Text)
		}
		return n
	}
	if size(a) != size(b) {
		t.Errorf("corpus sizes differ across seeds: %d and %d bytes", size(a), size(b))
	}

	if !reflect.DeepEqual(reconfigureSequence(7), reconfigureSequence(7)) {
		t.Error("reconfigureSequence(7) differs between two calls")
	}
	if reflect.DeepEqual(reconfigureSequence(7), reconfigureSequence(8)) {
		t.Error("reconfigureSequence(7) and (8) are identical")
	}
	if !reflect.DeepEqual(opSeeds(7), opSeeds(7)) || reflect.DeepEqual(opSeeds(7), opSeeds(8)) {
		t.Error("fleet seeds do not follow the workload seed")
	}
	if p := newRNG(7, streamExperiments).perm(49); !reflect.DeepEqual(p, newRNG(7, streamExperiments).perm(49)) ||
		reflect.DeepEqual(p, newRNG(8, streamExperiments).perm(49)) {
		t.Error("experiment cell order does not follow the workload seed")
	}
}

// Every op must change a binding, so it rewrites sites and has a
// positive modeled cost, and the pass must end with both functions
// generic, so later passes repeat the reference pass.
func TestReconfigureOpsAllRewriteAndPassEndsGeneric(t *testing.T) {
	seq := reconfigureSequence(3)
	m := smpModel{bound: [2]int64{-1, -1}}
	for i, o := range seq {
		if o.smp >= 0 {
			m.smp = o.smp
		}
		before := m.bound
		m.apply(o)
		if m.bound == before {
			t.Errorf("op %d (%+v) leaves the bindings at %v", i, o, before)
		}
	}
	if m.bound != [2]int64{-1, -1} {
		t.Errorf("the pass ends with bindings %v", m.bound)
	}
	if len(seq) != 90 {
		t.Errorf("pass has %d ops, want 90", len(seq))
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, to check it sorts
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		pct, want float64
		ok        bool
	}{
		{n: 10},
		{n: 99},
		{n: 100, pct: 90, want: 90, ok: true},
		{n: 999, pct: 95, want: 950, ok: true},
		{n: 1000, pct: 99, want: 990, ok: true},
		{n: 10000, pct: 99.9, want: 9990, ok: true},
	} {
		pct, v, ok := tailPercentile(seq(tc.n))
		if ok != tc.ok || pct != tc.pct || v != tc.want {
			t.Errorf("n=%d: got p%v=%v ok=%v, want p%v=%v ok=%v", tc.n, pct, v, ok, tc.pct, tc.want, tc.ok)
		}
	}
}

func TestGeomean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 100}, 10},
		{[]float64{2, 8}, 4},
		{[]float64{5}, 5},
		{[]float64{1, 2, 4}, 2},
		{nil, 0},
		{[]float64{3, 0}, 0},
		{[]float64{3, -1}, 0},
	} {
		if got := geomean(tc.xs); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("geomean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{Name: "a", Start: 0, End: 100, Parent: -1},
		{Name: "b", Start: 10, End: 30, Parent: 0},
		{Name: "c", Start: 20, End: 40, Parent: 0}, // overlaps b: counted once
		{Name: "d", Start: 50, End: 60, Parent: 0},
		{Name: "e", Start: 90, End: 120, Parent: 0}, // clipped to the parent
		{Name: "f", Start: 52, End: 55, Parent: 3},  // grandchild: d's, not a's
	}
	want := []int64{100 - 30 - 10 - 10, 20, 20, 10 - 3, 30, 3}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	tr.setOp(4)
	tr.do("outer", func() error { return tr.do("inner", func() error { return nil }) })
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[1].Op != 4 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	tr.on = false
	tr.do("off", func() error { return nil })
	var nilTracer *tracer
	nilTracer.do("nil", func() error { return nil })
	if len(tr.spans) != 2 {
		t.Errorf("a switched-off tracer recorded %d spans", len(tr.spans)-2)
	}
}

// BENCHMARK.json must list exactly the metrics the runs print.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workload {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}
