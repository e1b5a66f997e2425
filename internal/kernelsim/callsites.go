package kernelsim

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
)

// PaperCallSites is the number of spinlock call sites the paper's
// multiversed kernel records (§6.1: "Multiverse records 1161 call
// sites of spinlock functions").
const PaperCallSites = 1161

// BuildManyCallSites synthesizes a kernel with n call sites of a
// multiversed spinlock pair, modelling the whole-kernel patching load
// of experiment E7. Call sites are spread over many small functions,
// like they are in a real kernel text segment.
func BuildManyCallSites(n int, obs ...core.Observers) (*core.System, error) {
	if n < 2 {
		return nil, fmt.Errorf("kernelsim: need at least 2 call sites")
	}
	return core.BuildSystem(core.GenOptions{}, core.Observed(obs), ManyCallSitesSource(n))
}

// ManyCallSitesSource is the source BuildManyCallSites compiles: a
// multiversed spinlock pair and (n+1)/2 subsystem functions that each
// take and release the lock once.
func ManyCallSitesSource(n int) core.Source {
	var sb strings.Builder
	sb.WriteString(`
		multiverse int config_smp;
		ulong lock_word;
		long preempt_count;
		multiverse void spin_lock(ulong* l) {
			preempt_count++;
			if (config_smp) {
				while (__xchg(l, 1)) { while (*l) { __pause(); } }
			}
		}
		multiverse void spin_unlock(ulong* l) {
			if (config_smp) { *l = 0; }
			preempt_count--;
		}
	`)
	// Each subsystem function contributes one lock and one unlock
	// site; n/2 functions give n sites.
	funcs := (n + 1) / 2
	for i := 0; i < funcs; i++ {
		fmt.Fprintf(&sb, "void subsys_%d(void) { spin_lock(&lock_word); spin_unlock(&lock_word); }\n", i)
	}
	return core.Source{Name: "bigkernel", Text: sb.String()}
}

// PatchReport is the outcome of timing one full commit.
type PatchReport struct {
	CallSites    int
	SitesTouched int
	HostDuration time.Duration
}

// TimeCommit measures one full commit over all call sites.
func TimeCommit(sys *core.System, smp bool) (PatchReport, error) {
	v := int64(0)
	if smp {
		v = 1
	}
	if err := sys.SetSwitch("config_smp", v); err != nil {
		return PatchReport{}, err
	}
	before := sys.RT.Stats
	start := time.Now()
	if _, err := sys.RT.Commit(); err != nil {
		return PatchReport{}, err
	}
	elapsed := time.Since(start)
	after := sys.RT.Stats
	lockAddr, _ := sys.RT.FuncByName("spin_lock")
	unlockAddr, _ := sys.RT.FuncByName("spin_unlock")
	return PatchReport{
		CallSites:    sys.RT.Sites(lockAddr) + sys.RT.Sites(unlockAddr),
		SitesTouched: (after.SitesPatched - before.SitesPatched) + (after.SitesInlined - before.SitesInlined),
		HostDuration: elapsed,
	}, nil
}
