package core

import (
	"fmt"
	"sort"
	"strings"
)

// StateReport renders the runtime's current binding state: every
// multiversed function with its committed variant (or "generic"),
// every function-pointer switch, and per-site patch status. It is the
// introspection surface mvrun and the examples print.
func (rt *Runtime) StateReport() string {
	var sb strings.Builder
	// All three listings sort with an address tie-breaker: names are
	// almost always unique, but two units may legally declare colliding
	// names, and a report that depends on map-iteration (or descriptor)
	// order for the tie would render differently run to run — mvdbg's
	// `state` view and the snapshot goldens need byte-stable output.
	funcs := append([]*funcState(nil), rt.funcs...)
	sort.Slice(funcs, func(i, j int) bool {
		if funcs[i].fd.Name != funcs[j].fd.Name {
			return funcs[i].fd.Name < funcs[j].fd.Name
		}
		return funcs[i].fd.Generic < funcs[j].fd.Generic
	})
	for _, fs := range funcs {
		state := "generic (dynamic)"
		if fs.committed != nil {
			state = fmt.Sprintf("bound to variant @%#x", fs.committed.Addr)
		}
		fmt.Fprintf(&sb, "func %-24s %s", fs.fd.Name, state)
		sites := rt.sites[fs.fd.Generic]
		patched := 0
		for _, st := range sites {
			if st.patched {
				patched++
			}
		}
		fmt.Fprintf(&sb, "  [%d/%d sites patched", patched, len(sites))
		if fs.prologueOn {
			sb.WriteString(", prologue redirected")
		}
		sb.WriteString("]\n")
	}

	var ptrs []*fnptrState
	for _, ps := range rt.fnptrs {
		ptrs = append(ptrs, ps)
	}
	sort.Slice(ptrs, func(i, j int) bool {
		if ptrs[i].vd.Name != ptrs[j].vd.Name {
			return ptrs[i].vd.Name < ptrs[j].vd.Name
		}
		return ptrs[i].vd.Addr < ptrs[j].vd.Addr
	})
	for _, ps := range ptrs {
		state := "indirect (dynamic)"
		if ps.committed {
			state = fmt.Sprintf("bound to %#x", ps.target)
		}
		sites := rt.sites[ps.vd.Addr]
		fmt.Fprintf(&sb, "fptr %-24s %s  [%d sites]\n", ps.vd.Name, state, len(sites))
	}

	var vars []VarDesc
	vars = append(vars, rt.desc.Vars...)
	sort.Slice(vars, func(i, j int) bool {
		if vars[i].Name != vars[j].Name {
			return vars[i].Name < vars[j].Name
		}
		return vars[i].Addr < vars[j].Addr
	})
	for _, v := range vars {
		if v.FnPtr {
			continue
		}
		val, err := rt.readSwitch(&v)
		if err != nil {
			fmt.Fprintf(&sb, "var  %-24s <unreadable: %v>\n", v.Name, err)
			continue
		}
		fmt.Fprintf(&sb, "var  %-24s = %d\n", v.Name, val)
	}

	s := rt.Stats
	fmt.Fprintf(&sb, "stat commits=%d reverts=%d sites{patched=%d inlined=%d reverted=%d} prologues=%d generic-signals=%d\n",
		s.Commits, s.Reverts, s.SitesPatched, s.SitesInlined, s.SitesReverted, s.ProloguePatch, s.GenericSignals)
	// The transactional counters only print when something transactional
	// actually happened, so fault-free runs (and their golden tests)
	// render byte-identically with and without the crash-consistency
	// layer.
	if s.CommitAborts+s.CommitRetries+s.SitesRolledBack+s.FlushRetries > 0 {
		fmt.Fprintf(&sb, "txn  aborts=%d retries=%d sites-rolled-back=%d flush-retries=%d\n",
			s.CommitAborts, s.CommitRetries, s.SitesRolledBack, s.FlushRetries)
	}
	// Same gating for the SMP-safety counters: ModeParked runs (and
	// their golden tests) never print this line.
	if s.StopMachines+s.TextPokes+s.DeferredPatches+s.DeferredDrained+s.ActiveRefusals > 0 {
		fmt.Fprintf(&sb, "sync stop-machines=%d text-pokes=%d deferred{queued=%d drained=%d} active-refusals=%d\n",
			s.StopMachines, s.TextPokes, s.DeferredPatches, s.DeferredDrained, s.ActiveRefusals)
	}
	m := rt.plat.MemStats()
	fmt.Fprintf(&sb, "mem  protect-calls=%d icache-flushes=%d\n", m.ProtectCalls, m.Flushes)
	// The metrics section appears only when a registry is attached, so
	// unobserved runs (and their golden tests) render byte-identically
	// with and without the metrics build-out.
	if mm := rt.metrics; mm != nil {
		lat := mm.commitLatency.Snapshot()
		if lat.Count > 0 {
			p50, _ := lat.Quantile(0.50)
			p99, _ := lat.Quantile(0.99)
			sites := mm.commitSites.Snapshot()
			fmt.Fprintf(&sb, "mtrc commit-latency{count=%d mean=%.0f p50<=%d p99<=%d cycles} sites/commit mean=%.1f\n",
				lat.Count, lat.Mean(), p50, p99, sites.Mean())
		}
	}
	return sb.String()
}
