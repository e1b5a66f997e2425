package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call into a layer: its name ("cc.parse"), start and end
// in nanoseconds since the tracer started, the index of the enclosing
// span (-1 for none) and the op it belongs to (set-up ops included).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// tracer records a span around every call the benchmark makes into a
// layer's public functions. Spans stay in memory until the run writes
// them out. A nil or switched-off tracer records nothing and costs one
// comparison per call.
type tracer struct {
	t0    time.Time
	on    bool
	op    int32
	spans []span
	open  []int32 // stack of spans not yet ended
}

func newTracer() *tracer { return &tracer{t0: time.Now(), on: true, op: -1} }

func (t *tracer) active() bool { return t != nil && t.on }

func (t *tracer) setOp(i int) {
	if t != nil {
		t.op = int32(i)
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// do runs f inside a span called name.
func (t *tracer) do(name string, f func() error) error {
	if !t.active() {
		return f()
	}
	id := int32(len(t.spans))
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Op: t.op})
	t.open = append(t.open, id)
	err := f()
	t.spans[id].End = t.now()
	t.open = t.open[:len(t.open)-1]
	return err
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its child spans cover.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var ivs [][2]int64
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if a < b {
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x][0] < ivs[y][0] })
		var covered, end int64
		for j, iv := range ivs {
			if j == 0 || iv[0] > end {
				covered += iv[1] - iv[0]
				end = iv[1]
			} else if iv[1] > end {
				covered += iv[1] - end
				end = iv[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
