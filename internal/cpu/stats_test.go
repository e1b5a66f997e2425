package cpu

import (
	"math"
	"reflect"
	"testing"
)

// TestStatsAddCoversAllFields fails whenever a field is added to Stats
// but forgotten in Add — the silent-drop bug class where a new per-CPU
// counter never reaches machine.TotalStats on SMP machines. Every
// counter, the embedded CacheStats' included, is seeded with a distinct
// value pair and the sum is checked counter by counter via reflection,
// so the test needs no updating when Stats grows.
func TestStatsAddCoversAllFields(t *testing.T) {
	var a, b Stats
	va := reflect.ValueOf(&a).Elem()
	vb := reflect.ValueOf(&b).Elem()
	var counters []reflect.StructField
	for _, f := range reflect.VisibleFields(va.Type()) {
		switch {
		case f.Anonymous && f.Type.Kind() == reflect.Struct: // its fields are visited too
		case f.Type.Kind() != reflect.Uint64:
			t.Fatalf("Stats.%s is %s; extend this test for non-uint64 fields", f.Name, f.Type.Kind())
		default:
			counters = append(counters, f)
		}
	}
	for i, f := range counters {
		va.FieldByIndex(f.Index).SetUint(uint64(i + 1))
		vb.FieldByIndex(f.Index).SetUint(uint64(1000 * (i + 1)))
	}
	sum := reflect.ValueOf(a.Add(b))
	for i, f := range counters {
		want := uint64(i+1) + uint64(1000*(i+1))
		if got := sum.FieldByIndex(f.Index).Uint(); got != want {
			t.Errorf("Stats.Add drops field %s: got %d, want %d", f.Name, got, want)
		}
	}
}

// TestRatiosZeroSampleGuard: ratio accessors feed JSON-exported gauges
// and must return 0, never NaN, before any instruction has run.
func TestRatiosZeroSampleGuard(t *testing.T) {
	var s Stats
	for name, v := range map[string]float64{
		"DecodeHitRatio": s.DecodeHitRatio(),
		"BlockHitRatio":  s.BlockHitRatio(),
	} {
		if math.IsNaN(v) || v != 0 {
			t.Errorf("%s on zero Stats = %v, want 0", name, v)
		}
	}
}

func TestBlockHitRatio(t *testing.T) {
	s := Stats{RunStats: RunStats{Instructions: 200, BlockInsts: 150}}
	if got := s.BlockHitRatio(); got != 0.75 {
		t.Errorf("BlockHitRatio = %v, want 0.75", got)
	}
}
