package difftest

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// The always-on flight recorder must be exactly as passive as the
// opt-in tracer: it rides the runtime-library and memory hooks, never
// a CPU hook, so not one simulated cycle moves. These tests mirror the
// tracer-invariance difftests with the recorder attached versus
// nothing attached.

func recording() core.Observers { return core.Observers{Flight: trace.NewRecorder(0)} }

func TestFlightRecorderInvarianceFig1(t *testing.T) {
	compareTraced(t, observedFig1(t, recording()), observedFig1(t, core.Observers{}))
}

func TestFlightRecorderInvarianceMusl(t *testing.T) {
	compareTraced(t, observedMusl(t, recording()), observedMusl(t, core.Observers{}))
}
