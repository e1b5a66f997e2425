package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event export (the JSON format Perfetto and
// chrome://tracing load). Simulated cycles map 1:1 to the format's
// microsecond timestamps; one "thread" per stream. Commit/Revert
// Begin/End pairs are folded into complete ("X") duration events so a
// span survives even when the ring buffer dropped its counterpart;
// every other kind exports as a thread-scoped instant ("i") event.

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	ID   uint64         `json:"id,omitempty"` // flow-event binding id (the span)
	Bp   string         `json:"bp,omitempty"` // "e": bind flow end to enclosing slice
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// cat groups kinds into Perfetto categories.
func (k Kind) cat() string { return k.info().cat }

// hex renders an address the way the rest of the tooling prints them.
func hex(v uint64) string { return fmt.Sprintf("%#x", v) }

// args renders the kind-specific payload, annotating addresses with
// symbol names when a table is available.
func (c *Collector) args(ev Event) map[string]any {
	a := map[string]any{}
	sym := func(addr uint64) {
		a["addr"] = hex(addr)
		if c.HasSymbols() {
			if n := c.symtab.Name(addr); n != UnknownName {
				a["sym"] = n
			}
		}
	}
	switch ev.Kind {
	case KindCommitEnd:
		a["committed"] = ev.A
		a["generic"] = ev.B
	case KindSwitchValue:
		sym(ev.Addr)
		a["switch"] = ev.Name
		if ev.B != 0 {
			a["fnptr"] = hex(ev.A)
		} else {
			a["value"] = int64(ev.A)
		}
	case KindPatchSite:
		sym(ev.Addr)
		a["bytes"] = ev.A
		if ev.B != 0 {
			a["restore"] = true
		}
	case KindProloguePatch:
		sym(ev.Addr)
		a["func"] = ev.Name
		a["variant"] = hex(ev.A)
	case KindPrologueRestore:
		sym(ev.Addr)
		a["func"] = ev.Name
	case KindProtect:
		sym(ev.Addr)
		a["len"] = ev.A
		a["prot"] = protString(uint8(ev.B))
		a["old"] = protString(uint8(ev.B >> 8))
	case KindFlushICache:
		sym(ev.Addr)
		a["len"] = ev.A
	case KindInterrupt:
		sym(ev.Addr)
		a["cost"] = ev.A
	case KindMispredict:
		sym(ev.Addr)
		a["target"] = hex(ev.A)
		a["branch"] = [...]string{"cond", "indirect", "ret"}[ev.B%3]
	case KindFaultInjected:
		sym(ev.Addr)
		a["aux"] = ev.A
		a["fault"] = [...]string{"protect", "torn-write", "drop-flush", "fetch"}[ev.B%4]
	case KindCommitRetry:
		sym(ev.Addr)
		a["attempt"] = ev.A
	case KindCommitAbort:
		a["rolled_back"] = ev.A
	case KindRollback:
		sym(ev.Addr)
		a["len"] = ev.A
	case KindTrap:
		sym(ev.Addr)
	case KindPokePhase:
		sym(ev.Addr)
		a["len"] = ev.A
		a["phase"] = ev.B
	case KindRendezvous:
		a["latency"] = ev.A
		a["ranges"] = ev.B
	case KindDeferred:
		sym(ev.Addr)
		if ev.A == 2 {
			a["op"] = "revert"
		} else {
			a["op"] = "commit"
		}
		a["func"] = ev.Name
		a["depth"] = ev.B
	case KindFlushRetry:
		sym(ev.Addr)
		a["len"] = ev.A
		a["retry"] = ev.B
	case KindDrainBegin:
		a["queued"] = ev.A
	case KindDrainEnd:
		a["applied"] = ev.A
		a["queued"] = ev.B
	case KindPhaseBegin, KindPhaseEnd:
		a["phase"] = ev.Name
	case KindWatchdogAlert:
		a["rule"] = ev.Name
		a["value"] = ev.A
		a["threshold"] = ev.B
	}
	if ev.Span != 0 {
		a["span"] = ev.Span
	}
	if len(a) == 0 {
		return nil
	}
	return a
}

// protString mirrors mem.Prot.String without importing mem (import
// cycle: mem emits trace events).
func protString(p uint8) string {
	b := []byte("---")
	if p&1 != 0 {
		b[0] = 'r'
	}
	if p&2 != 0 {
		b[1] = 'w'
	}
	if p&4 != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// spanBegin reports whether k opens a span and which kind closes it.
func (k Kind) spanBegin() (Kind, bool) {
	end := k.info().end
	return end, end != 0
}

// spanEnd reports whether k closes a span.
func (k Kind) spanEnd() bool {
	for _, in := range kinds {
		if in.end != 0 && in.end == k {
			return true
		}
	}
	return false
}

// WriteChromeTrace writes every buffered event, merged across
// streams, as Chrome trace-event JSON.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	events := c.Events()
	out := chromeTrace{DisplayTimeUnit: "ns"}
	if d := c.Dropped(); d > 0 {
		out.OtherData = map[string]any{"droppedEvents": d}
	}
	// Thread-name metadata rows, one per stream.
	for _, s := range c.streams {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: s.id,
			Args: map[string]any{"name": s.label},
		})
	}

	// Pending span begins, per stream, matched innermost-first.
	type open struct {
		end Kind
		ev  Event
	}
	pending := make(map[int][]open)
	var lastCycle uint64
	emitSpan := func(begin Event, endCycle uint64, args map[string]any) {
		name := begin.Kind.String()
		if begin.Kind == KindPhaseBegin && begin.Name != "" {
			// Sub-phase slices read better under their phase name
			// ("herd", "poke", "rollback") than a generic "Phase".
			name = begin.Name
		}
		dur := float64(endCycle - begin.Cycle)
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: name, Cat: begin.Kind.cat(), Ph: "X",
			Ts: float64(begin.Cycle), Dur: &dur, Pid: 0, Tid: begin.Stream,
			Args: args,
		})
	}
	// Commit-causality flow tracking: for each span, remember the first
	// event per stream and the last event overall, so flow arrows can
	// connect a commit's work across CPUs.
	type flowState struct {
		firstCycle  uint64
		firstStream int
		perStream   map[int]uint64 // stream -> first cycle on that stream
		lastCycle   uint64
		lastStream  int
	}
	flows := map[uint64]*flowState{}
	var flowOrder []uint64
	noteFlow := func(ev Event) {
		if ev.Span == 0 {
			return
		}
		f := flows[ev.Span]
		if f == nil {
			f = &flowState{
				firstCycle: ev.Cycle, firstStream: ev.Stream,
				perStream: map[int]uint64{},
			}
			flows[ev.Span] = f
			flowOrder = append(flowOrder, ev.Span)
		}
		if _, ok := f.perStream[ev.Stream]; !ok {
			f.perStream[ev.Stream] = ev.Cycle
		}
		f.lastCycle, f.lastStream = ev.Cycle, ev.Stream
	}
	for _, ev := range events {
		if ev.Cycle > lastCycle {
			lastCycle = ev.Cycle
		}
		noteFlow(ev)
		if end, ok := ev.Kind.spanBegin(); ok {
			pending[ev.Stream] = append(pending[ev.Stream], open{end: end, ev: ev})
			continue
		}
		if ev.Kind.spanEnd() {
			stack := pending[ev.Stream]
			matched := false
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i].end == ev.Kind {
					emitSpan(stack[i].ev, ev.Cycle, c.args(ev))
					pending[ev.Stream] = append(stack[:i], stack[i+1:]...)
					matched = true
					break
				}
			}
			if !matched {
				// The begin was overwritten in the ring: degrade to an
				// instant so the operation stays visible.
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: ev.Kind.String(), Cat: ev.Kind.cat(), Ph: "i",
					Ts: float64(ev.Cycle), Pid: 0, Tid: ev.Stream, S: "t",
					Args: c.args(ev),
				})
			}
			continue
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: ev.Kind.String(), Cat: ev.Kind.cat(), Ph: "i",
			Ts: float64(ev.Cycle), Pid: 0, Tid: ev.Stream, S: "t",
			Args: c.args(ev),
		})
	}
	// Close spans whose end was never recorded.
	for _, stack := range pending {
		for _, o := range stack {
			emitSpan(o.ev, lastCycle, nil)
		}
	}

	// Flow events: one s→t…→f chain per commit-causality span that
	// touched more than one stream, so Perfetto draws arrows from the
	// committing CPU to the victims it trapped and shot down.
	for _, span := range flowOrder {
		f := flows[span]
		if len(f.perStream) < 2 {
			continue
		}
		name := fmt.Sprintf("span %d", span)
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: name, Cat: "flow", Ph: "s", ID: span,
			Ts: float64(f.firstCycle), Pid: 0, Tid: f.firstStream,
		})
		// Step through each other stream's first sighting in cycle
		// order (ties by stream id, for deterministic output).
		type hop struct {
			stream int
			cycle  uint64
		}
		var hops []hop
		for st, cy := range f.perStream {
			if st == f.firstStream {
				continue
			}
			hops = append(hops, hop{st, cy})
		}
		sort.Slice(hops, func(i, j int) bool {
			if hops[i].cycle != hops[j].cycle {
				return hops[i].cycle < hops[j].cycle
			}
			return hops[i].stream < hops[j].stream
		})
		for _, h := range hops {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: name, Cat: "flow", Ph: "t", ID: span,
				Ts: float64(h.cycle), Pid: 0, Tid: h.stream,
			})
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: name, Cat: "flow", Ph: "f", ID: span, Bp: "e",
			Ts: float64(f.lastCycle), Pid: 0, Tid: f.lastStream,
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
