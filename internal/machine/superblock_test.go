package machine

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// inertInjector attaches to a machine and never fires: it holds every
// CPU to single steps and changes nothing else.
type inertInjector struct{}

func (inertInjector) ProtectFault(uint64, uint64, mem.Prot) error { return nil }
func (inertInjector) WriteTear(uint64, int) (int, error)          { return 0, nil }
func (inertInjector) FetchFault(int, uint64, uint64) error        { return nil }
func (inertInjector) DropFlush(int, uint64, uint64) bool          { return false }

// TestInterleaveSuperblockInvariance pins SMP interleaving semantics:
// Interleave single-steps at instruction granularity whether or not
// an injector holds the CPUs to Step, so quantum boundaries, step
// budgets and final state are identical with an inert injector
// attached and without.
func TestInterleaveSuperblockInvariance(t *testing.T) {
	runOnce := func(inert bool) (uint64, uint64, cpu.Stats) {
		m, err := New(buildPokeImage(t))
		if err != nil {
			t.Fatal(err)
		}
		if inert {
			m.SetInjector(inertInjector{})
		}
		extra, err := m.AddCPU()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.StartCall(m.CPU, "spin"); err != nil {
			t.Fatal(err)
		}
		if err := m.StartCall(extra, "spin"); err != nil {
			t.Fatal(err)
		}
		steps, err := m.Interleave(m.CPUs(), []int{7, 3}, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		stats := m.TotalStats()
		stats.DecodeHits, stats.DecodeMisses = 0, 0
		stats.BlockBuilds, stats.BlockHits, stats.BlockInsts, stats.BlockInvalidates = 0, 0, 0, 0
		return steps, m.CPU.Cycles() + extra.Cycles(), stats
	}
	onSteps, onCycles, onStats := runOnce(false)
	offSteps, offCycles, offStats := runOnce(true)
	if onSteps != offSteps || onCycles != offCycles || onStats != offStats {
		t.Errorf("Interleave diverges with an inert injector attached:\nbare:  steps %d cycles %d %+v\ninert: steps %d cycles %d %+v",
			onSteps, onCycles, onStats, offSteps, offCycles, offStats)
	}
}
