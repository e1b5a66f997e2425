package difftest

import (
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// The metrics registry is strictly passive: every CPU/mem/runtime
// counter is read through closures at scrape time, commit latency is
// modeled (never charged to any CPU clock), and residency bookkeeping
// runs only on the cold commit path. Attaching a registry must
// therefore not change a single simulated cycle: the E1 (Figure 1
// spinlock) and E4 (musl libc) measurements must be bit-identical, and
// the registry must really have aggregated the runs.

func checkMetricsInvariance(t *testing.T, measure func(*testing.T, core.Observers) map[string]tracedRun) {
	reg := metrics.New()
	compareTraced(t, measure(t, core.Observers{Metrics: reg}), measure(t, core.Observers{}))
	if got := reg.CounterTotal("mv_instructions_total"); got == 0 {
		t.Error("registry attached but mv_instructions_total is zero — invariance vacuous")
	}
}

func TestMetricsInvarianceFig1(t *testing.T) { checkMetricsInvariance(t, observedFig1) }

func TestMetricsInvarianceMusl(t *testing.T) { checkMetricsInvariance(t, observedMusl) }
