package machine

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// inertInjector attaches to a machine and never fires. With armed set
// it holds every CPU's Run to single steps; without, it arms nothing
// and Run keeps to blocks.
type inertInjector struct{ armed bool }

func (inertInjector) ProtectFault(uint64, uint64, mem.Prot) error { return nil }
func (inertInjector) WriteTear(uint64, int) (int, error)          { return 0, nil }
func (i inertInjector) FetchArmed(int) bool                       { return i.armed }
func (inertInjector) FetchFault(int, uint64, uint64) error        { return nil }
func (inertInjector) DropFlush(int, uint64, uint64) bool          { return false }

// TestInterleaveSuperblockInvariance pins SMP interleaving semantics:
// Interleave single-steps at instruction granularity whether or not
// an injector is attached and whether or not it arms a fetch fault,
// so quantum boundaries, step budgets, final state and every counter
// are identical across the three arms.
func TestInterleaveSuperblockInvariance(t *testing.T) {
	runOnce := func(inj Injector) (uint64, uint64, cpu.Stats) {
		m, err := New(buildPokeImage(t))
		if err != nil {
			t.Fatal(err)
		}
		if inj != nil {
			m.SetInjector(inj)
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
		if stats.BlockInsts != 0 {
			t.Errorf("injector %+v: Interleave dispatched %d instructions in blocks", inj, stats.BlockInsts)
		}
		return steps, m.CPU.Cycles() + extra.Cycles(), stats
	}
	bareSteps, bareCycles, bareStats := runOnce(nil)
	for _, inj := range []Injector{inertInjector{}, inertInjector{armed: true}} {
		steps, cycles, stats := runOnce(inj)
		if steps != bareSteps || cycles != bareCycles || stats != bareStats {
			t.Errorf("Interleave diverges with injector %+v attached:\nbare:     steps %d cycles %d %+v\ninjector: steps %d cycles %d %+v",
				inj, bareSteps, bareCycles, bareStats, steps, cycles, stats)
		}
	}
}
