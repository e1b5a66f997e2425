package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/isa"
)

// The always-on flight recorder: a tiny bounded ring of
// commit-lifecycle and fault events, attached independently of the
// opt-in Collector. When a commit aborts, an audit fails or a chaos
// property trips, the last N events are dumped as JSON — the causal
// record of which rendezvous, poke phase or shootdown misbehaved,
// available exactly when the failure strikes instead of only when
// -trace happened to be on.
//
// The recorder is deliberately cheap: it implements Tracer with no-op
// Step/Call/Ret (it never attaches to a CPU's hot path — doing so
// would add a call per instruction), filters to the flight kinds
// (FlightRecorded), and allocates nothing per event once the ring is
// warm.

// FlightLimit is the default flight-recorder ring bound.
const FlightLimit = 256

// FlightRecorded reports whether the flight recorder keeps this kind
// (see kindInfo.flight).
func FlightRecorded(k Kind) bool { return k.info().flight }

// Recorder is the always-on flight recorder. It implements Tracer and
// SpanCarrier; attach it as core.Observers.Flight so it sees the
// runtime library's and the memory system's commit-path events without
// touching any CPU hot path.
type Recorder struct {
	ring
	clock func() uint64
	span  uint64
	last  *FlightDump

	// OnFailure, when non-nil, receives the dump produced by each
	// NoteFailure call (mvrun points it at the -flight output file).
	OnFailure func(reason string, d *FlightDump)
}

// NewRecorder returns a flight recorder bounded to limit events
// (0 means FlightLimit).
func NewRecorder(limit int) *Recorder {
	if limit <= 0 {
		limit = FlightLimit
	}
	return &Recorder{ring: newRing(limit)}
}

// SetClock installs the cycle clock events are stamped from (typically
// the primary CPU's Cycles method; nil stamps cycle 0).
func (r *Recorder) SetClock(f func() uint64) { r.clock = f }

func (r *Recorder) now() uint64 {
	if r.clock == nil {
		return 0
	}
	return r.clock()
}

func (r *Recorder) record(ev Event) {
	if FlightRecorded(ev.Kind) {
		r.ring.record(ev)
	}
}

// Emit implements Tracer.
func (r *Recorder) Emit(k Kind, addr, a, b uint64) {
	r.record(Event{Cycle: r.now(), Kind: k, Addr: addr, A: a, B: b, Span: r.span})
}

// EmitName implements Tracer.
func (r *Recorder) EmitName(k Kind, addr, a, b uint64, name string) {
	r.record(Event{Cycle: r.now(), Kind: k, Addr: addr, A: a, B: b, Span: r.span, Name: name})
}

// Step implements Tracer as a no-op: the recorder never observes the
// interpreter hot path.
func (r *Recorder) Step(pc, cycles uint64, in *isa.Inst) {}

// Call implements Tracer as a no-op.
func (r *Recorder) Call(pc, target uint64) {}

// Ret implements Tracer as a no-op.
func (r *Recorder) Ret(pc, target uint64) {}

// SetSpan implements SpanCarrier.
func (r *Recorder) SetSpan(id uint64) { r.span = id }

// Dump snapshots the ring into a dump tagged with the reason.
func (r *Recorder) Dump(reason string) FlightDump {
	evs := r.Events()
	d := FlightDump{
		Reason:  reason,
		Cycle:   r.now(),
		Dropped: r.dropped,
		Events:  make([]FlightEvent, len(evs)),
	}
	for i, ev := range evs {
		d.Events[i] = EncodeFlightEvent(ev)
	}
	return d
}

// NoteFailure records a failure-point dump: the runtime library calls
// it on commit abort and audit failure. The dump is retained (see
// LastDump) and handed to OnFailure when set.
func (r *Recorder) NoteFailure(reason string) {
	d := r.Dump(reason)
	r.last = &d
	if r.OnFailure != nil {
		r.OnFailure(reason, &d)
	}
}

// LastDump returns the most recent failure dump, or nil if no failure
// was noted.
func (r *Recorder) LastDump() *FlightDump { return r.last }

// FlightDump is the JSON dump format: the failure reason, the cycle at
// dump time, the ring's drop count and the retained events oldest-first.
type FlightDump struct {
	Reason  string        `json:"reason"`
	Cycle   uint64        `json:"cycle"`
	Dropped uint64        `json:"dropped,omitempty"`
	Events  []FlightEvent `json:"events"`
}

// FlightEvent is one event of a dump, with the kind as its unique wire
// name (Kind.Name) so dumps stay readable and round-trip exactly.
type FlightEvent struct {
	Cycle uint64 `json:"cycle"`
	Kind  string `json:"kind"`
	Span  uint64 `json:"span,omitempty"`
	Addr  uint64 `json:"addr,omitempty"`
	A     uint64 `json:"a,omitempty"`
	B     uint64 `json:"b,omitempty"`
	Name  string `json:"name,omitempty"`
}

// EncodeFlightEvent converts an Event to its dump form.
func EncodeFlightEvent(ev Event) FlightEvent {
	return FlightEvent{
		Cycle: ev.Cycle, Kind: ev.Kind.Name(), Span: ev.Span,
		Addr: ev.Addr, A: ev.A, B: ev.B, Name: ev.Name,
	}
}

// Event converts a dump row back to an Event, resolving the kind name.
func (e FlightEvent) Event() (Event, error) {
	k, ok := ParseKind(e.Kind)
	if !ok {
		return Event{}, fmt.Errorf("trace: unknown flight event kind %q", e.Kind)
	}
	return Event{
		Cycle: e.Cycle, Kind: k, Span: e.Span,
		Addr: e.Addr, A: e.A, B: e.B, Name: e.Name,
	}, nil
}

// WriteJSON writes the dump as indented JSON.
func (d *FlightDump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadFlightDump parses a dump written by WriteJSON.
func ReadFlightDump(r io.Reader) (*FlightDump, error) {
	var d FlightDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("trace: reading flight dump: %w", err)
	}
	return &d, nil
}

// EventDetail renders the kind-specific payload of an event as one
// human-readable string — the DETAIL column of mvtrace's table view.
func EventDetail(ev Event) string {
	switch ev.Kind {
	case KindCommitBegin, KindRevertBegin:
		if ev.Name != "" {
			return "func=" + ev.Name
		}
		return ""
	case KindCommitEnd:
		return fmt.Sprintf("committed=%d generic=%d", ev.A, ev.B)
	case KindRevertEnd:
		if ev.Name != "" {
			return "func=" + ev.Name
		}
		return ""
	case KindSwitchValue:
		if ev.B != 0 {
			return fmt.Sprintf("switch=%s fnptr=%#x", ev.Name, ev.A)
		}
		return fmt.Sprintf("switch=%s value=%d", ev.Name, int64(ev.A))
	case KindPatchSite:
		if ev.B != 0 {
			return fmt.Sprintf("bytes=%d restore", ev.A)
		}
		return fmt.Sprintf("bytes=%d", ev.A)
	case KindProloguePatch:
		return fmt.Sprintf("func=%s variant=%#x", ev.Name, ev.A)
	case KindPrologueRestore:
		return "func=" + ev.Name
	case KindProtect:
		return fmt.Sprintf("len=%d prot=%s old=%s", ev.A, protString(uint8(ev.B)), protString(uint8(ev.B>>8)))
	case KindFlushICache:
		return fmt.Sprintf("len=%d", ev.A)
	case KindInterrupt:
		return fmt.Sprintf("cost=%d", ev.A)
	case KindMispredict:
		return fmt.Sprintf("target=%#x branch=%s", ev.A, [...]string{"cond", "indirect", "ret"}[ev.B%3])
	case KindFaultInjected:
		return fmt.Sprintf("fault=%s aux=%d", [...]string{"protect", "torn-write", "drop-flush", "fetch"}[ev.B%4], ev.A)
	case KindCommitRetry:
		return fmt.Sprintf("attempt=%d", ev.A)
	case KindCommitAbort:
		return fmt.Sprintf("rolled_back=%d", ev.A)
	case KindRollback:
		return fmt.Sprintf("len=%d", ev.A)
	case KindTrap:
		return "brk"
	case KindPokePhase:
		return fmt.Sprintf("len=%d phase=%d", ev.A, ev.B)
	case KindRendezvous:
		return fmt.Sprintf("latency=%d ranges=%d", ev.A, ev.B)
	case KindDeferred:
		op := "commit"
		if ev.A == 2 {
			op = "revert"
		}
		return fmt.Sprintf("op=%s func=%s depth=%d", op, ev.Name, ev.B)
	case KindFlushRetry:
		return fmt.Sprintf("len=%d retry=%d", ev.A, ev.B)
	case KindDrainBegin:
		return fmt.Sprintf("queued=%d", ev.A)
	case KindDrainEnd:
		return fmt.Sprintf("applied=%d queued=%d", ev.A, ev.B)
	case KindPhaseBegin, KindPhaseEnd:
		return "phase=" + ev.Name
	case KindWatchdogAlert:
		return fmt.Sprintf("rule=%s value=%d threshold=%d", ev.Name, ev.A, ev.B)
	}
	return ""
}
