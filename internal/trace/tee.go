package trace

import "repro/internal/isa"

// Tee fans every tracer call out to multiple sinks, so the always-on
// flight recorder and the cycle-domain watchdog can ride alongside an
// opt-in collector stream on the same hook. Span updates are forwarded
// to every sink that carries spans.
type Tee struct {
	sinks []Tracer
}

// NewTee composes sinks into one Tracer, dropping nils. It returns nil
// for no sinks and the sink itself for exactly one, so composing onto
// an unset hook costs nothing.
func NewTee(sinks ...Tracer) Tracer {
	var out []Tracer
	for _, s := range sinks {
		if s == nil {
			continue
		}
		// Flatten nested tees so repeated attachment stays shallow.
		if t, ok := s.(*Tee); ok {
			out = append(out, t.sinks...)
			continue
		}
		out = append(out, s)
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return &Tee{sinks: out}
}

// Emit implements Tracer.
func (t *Tee) Emit(k Kind, addr, a, b uint64) {
	for _, s := range t.sinks {
		s.Emit(k, addr, a, b)
	}
}

// EmitName implements Tracer.
func (t *Tee) EmitName(k Kind, addr, a, b uint64, name string) {
	for _, s := range t.sinks {
		s.EmitName(k, addr, a, b, name)
	}
}

// Step implements Tracer.
func (t *Tee) Step(pc, cycles uint64, in *isa.Inst) {
	for _, s := range t.sinks {
		s.Step(pc, cycles, in)
	}
}

// Call implements Tracer.
func (t *Tee) Call(pc, target uint64) {
	for _, s := range t.sinks {
		s.Call(pc, target)
	}
}

// Ret implements Tracer.
func (t *Tee) Ret(pc, target uint64) {
	for _, s := range t.sinks {
		s.Ret(pc, target)
	}
}

// SetSpan implements SpanCarrier, forwarding to every span-carrying sink.
func (t *Tee) SetSpan(id uint64) {
	for _, s := range t.sinks {
		if sc, ok := s.(SpanCarrier); ok {
			sc.SetSpan(id)
		}
	}
}

// StepFunc adapts a function to a Tracer that observes only Step, such
// as an instruction tracer or a cycle-driven sampler teed onto whatever
// else is attached. Its other methods do nothing.
type StepFunc func(pc, cycles uint64, in *isa.Inst)

func (f StepFunc) Step(pc, cycles uint64, in *isa.Inst)          { f(pc, cycles, in) }
func (StepFunc) Emit(k Kind, addr, a, b uint64)                  {}
func (StepFunc) EmitName(k Kind, addr, a, b uint64, name string) {}
func (StepFunc) Call(pc, target uint64)                          {}
func (StepFunc) Ret(pc, target uint64)                           {}
