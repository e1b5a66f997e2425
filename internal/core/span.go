package core

import "repro/internal/trace"

// Commit-causality spans. Every public runtime operation — Commit,
// Revert, the single-function and by-switch forms, and DrainDeferred —
// gets a monotonic id, whether or not anything observes it, so the
// count a snapshot carries does not depend on what is attached.
// beginOpSpan installs the id into the attached tracer for the
// operation's duration. Because collector streams share
// the span collector-wide (trace.Stream.SetSpan), the id reaches every
// event the operation causes on every CPU: the victim thread's BRK
// trap, a secondary's icache shootdown, the memory system's protection
// flip. The Chrome exporter turns shared span ids into flow arrows;
// mvtrace groups flight-dump rows by them.

// beginOpSpan numbers a public operation and opens its span, and
// returns the closure that clears the span, or nil when no attached
// sink carries spans. Nested operations (a drain's per-function
// transactions, say) reuse the enclosing number and span: both follow
// the outermost public call the way the transaction does.
func (rt *Runtime) beginOpSpan() func() {
	if rt.tx != nil {
		return nil // joined an enclosing operation; its span stands
	}
	rt.opSeq++
	sc, ok := rt.Tracer.(trace.SpanCarrier)
	if !ok {
		return nil
	}
	sc.SetSpan(rt.opSeq)
	return func() { sc.SetSpan(0) }
}

// phase brackets a named commit sub-phase ("herd", "poke", "rollback")
// with PhaseBegin/PhaseEnd events and returns the closing closure.
// With no tracer attached both sides are free.
func (rt *Runtime) phase(name string) func() {
	if rt.Tracer == nil {
		return func() {}
	}
	rt.Tracer.EmitName(trace.KindPhaseBegin, 0, 0, 0, name)
	return func() { rt.Tracer.EmitName(trace.KindPhaseEnd, 0, 0, 0, name) }
}

// noteFailure hands the attached flight recorder a failure-point dump.
func (rt *Runtime) noteFailure(reason string) {
	if rt.flight != nil {
		rt.flight.NoteFailure(reason)
	}
}
