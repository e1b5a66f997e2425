package core

import (
	"fmt"
	"sync"

	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// This file wires the simulated stack into the metrics registry
// (internal/metrics). The split mirrors the tracer's: the hot layers
// keep plain struct counters (cpu.Stats, mem.Stats, RuntimeStats) and
// the registry reads them through closures at scrape time, so the
// interpreter's stepFast loop never sees a metrics call and the
// difftests can assert cycle counts are bit-identical with a registry
// attached or not.
//
// Two families are event-sourced rather than scraped, because they
// are distributions that only exist at commit granularity:
//
//   - mv_commit_latency_cycles: the modeled cost of one commit span.
//     Patching happens *outside* the simulated CPU (the runtime
//     library is host code mutating guest memory), so the CPU clock
//     does not advance during a commit; charging it would perturb the
//     experiments the observability exists to measure. Instead the
//     latency is accounted in the cycle domain from the operations
//     the commit performed — the same §5 arithmetic the paper uses
//     for its stop_machine analogue: protection flips (mprotect
//     analogue), icache shootdowns and per-site text writes, each at
//     a documented calibrated cost, plus any cycles the clock really
//     did advance (SMP commits during interleaved execution).
//   - mv_variant_residency_cycles{function,variant}: wall-cycle time
//     each function spent bound to each variant (or "generic"),
//     closed out lazily at scrape time so the currently open binding
//     is always included.

// Modeled per-operation commit costs in cycles, used only for the
// mv_commit_latency_cycles accounting (never charged to any CPU).
// Values are in the same calibration family as cpu.DefaultConfig:
// a protection flip costs about two syscall round-trips, an icache
// shootdown is an IPI plus refill, a site write is a handful of
// stores plus verification reads.
const (
	CostCommitProtect = 900 // one mem.Protect transition
	CostCommitFlush   = 250 // one icache flush
	CostCommitSite    = 40  // one patched, inlined or restored site / prologue
)

// mvMetrics is the per-runtime instrument bundle attachMetrics hangs
// off a Runtime. All methods are nil-receiver safe, so the runtime
// hooks cost one pointer check when metrics are detached.
type mvMetrics struct {
	clock func() uint64

	commitLatency *metrics.Histogram
	commitSites   *metrics.Histogram
	rendezvous    *metrics.Histogram
	osrLatency    *metrics.Histogram

	res *residencyTracker
}

// attachMetrics wires a machine and its runtime into a registry:
// CPU and memory stats become scrape-time counter readers, derived
// gauges (decode hit ratio, flush and protect rates per million
// instructions) are registered once per registry against the
// aggregated counters, and the runtime gets an mvMetrics bundle for
// commit-latency, sites-per-commit and variant-residency accounting.
// Attaching many systems to one registry aggregates them.
func attachMetrics(reg *metrics.Registry, m *machine.Machine, rt *Runtime) {
	reg.SetClock(m.CPU.Cycles)

	stat := func(pick func(s machineStats) uint64) func() uint64 {
		return func() uint64 { return pick(machineStats{m.TotalStats(), m.Mem.Stats}) }
	}
	type cf struct {
		name, help string
		read       func() uint64
	}
	for _, c := range []cf{
		{"mv_instructions_total", "Instructions retired across all CPUs.",
			stat(func(s machineStats) uint64 { return s.cpu.Instructions })},
		{"mv_branches_total", "Conditional and indirect branches executed.",
			stat(func(s machineStats) uint64 { return s.cpu.Branches })},
		{"mv_mispredicts_total", "Branch/indirect/return mispredictions.",
			stat(func(s machineStats) uint64 { return s.cpu.Mispredicts })},
		{"mv_calls_total", "Call instructions executed.",
			stat(func(s machineStats) uint64 { return s.cpu.Calls })},
		{"mv_loads_total", "Data loads executed.",
			stat(func(s machineStats) uint64 { return s.cpu.Loads })},
		{"mv_stores_total", "Data stores executed.",
			stat(func(s machineStats) uint64 { return s.cpu.Stores })},
		{"mv_interrupts_total", "Asynchronous interrupts serviced.",
			stat(func(s machineStats) uint64 { return s.cpu.Interrupts })},
		{"mv_traps_total", "BRK breakpoint traps taken (text-poke windows).",
			stat(func(s machineStats) uint64 { return s.cpu.Traps })},
		{"mv_icache_fills_total", "Instruction-cache line fills.",
			stat(func(s machineStats) uint64 { return s.cpu.ICacheFills })},
		{"mv_decode_hits_total", "Instructions dispatched from the predecoded cache.",
			stat(func(s machineStats) uint64 { return s.cpu.DecodeHits })},
		{"mv_decode_misses_total", "Instructions decoded from raw bytes.",
			stat(func(s machineStats) uint64 { return s.cpu.DecodeMisses })},
		{"mv_superblock_builds_total", "Superblocks chained from icache-line snapshots.",
			stat(func(s machineStats) uint64 { return s.cpu.BlockBuilds })},
		{"mv_superblock_hits_total", "Superblock dispatches (block entries and re-entries).",
			stat(func(s machineStats) uint64 { return s.cpu.BlockHits })},
		{"mv_superblock_insts_total", "Instructions dispatched through superblocks.",
			stat(func(s machineStats) uint64 { return s.cpu.BlockInsts })},
		{"mv_superblock_invalidated_total", "Superblocks dropped by icache flushes.",
			stat(func(s machineStats) uint64 { return s.cpu.BlockInvalidates })},
		{"mv_mem_protect_calls_total", "mem.Protect transitions (mprotect analogue).",
			stat(func(s machineStats) uint64 { return s.mem.ProtectCalls })},
		{"mv_icache_flushes_total", "Explicit icache invalidations after patching.",
			stat(func(s machineStats) uint64 { return s.mem.Flushes })},
		{"mv_cycles_total", "Simulated cycles across all CPUs.",
			func() uint64 {
				var n uint64
				for _, c := range m.CPUs() {
					n += c.Cycles()
				}
				return n
			}},
	} {
		reg.CounterFunc(c.name, c.help, c.read)
	}

	// Derived gauges read the *registry's* aggregated counters, so
	// they stay correct when many systems share one registry —
	// register them only once per registry.
	if !reg.Has("mv_decode_hit_ratio") {
		reg.GaugeFunc("mv_decode_hit_ratio", "Decode-cache hit ratio across all systems.",
			func() float64 {
				hits := reg.CounterTotal("mv_decode_hits_total")
				total := hits + reg.CounterTotal("mv_decode_misses_total")
				if total == 0 {
					return 0
				}
				return float64(hits) / float64(total)
			})
		reg.GaugeFunc("mv_superblock_hit_ratio",
			"Fraction of instructions dispatched through superblocks across all systems.",
			func() float64 {
				inst := reg.CounterTotal("mv_instructions_total")
				if inst == 0 {
					return 0
				}
				return float64(reg.CounterTotal("mv_superblock_insts_total")) / float64(inst)
			})
		perMInst := func(name string) func() float64 {
			return func() float64 {
				inst := reg.CounterTotal("mv_instructions_total")
				if inst == 0 {
					return 0
				}
				return float64(reg.CounterTotal(name)) / float64(inst) * 1e6
			}
		}
		reg.GaugeFunc("mv_icache_flush_rate_per_minst",
			"Icache flushes per million retired instructions.",
			perMInst("mv_icache_flushes_total"))
		reg.GaugeFunc("mv_protect_rate_per_minst",
			"Protection transitions per million retired instructions.",
			perMInst("mv_mem_protect_calls_total"))
	}

	rstat := func(pick func(s RuntimeStats) uint64) func() uint64 {
		return func() uint64 { return pick(rt.Stats) }
	}
	for _, c := range []cf{
		{"mv_commits_total", "Commit operations (all granularities).",
			rstat(func(s RuntimeStats) uint64 { return uint64(s.Commits) })},
		{"mv_reverts_total", "Revert operations.",
			rstat(func(s RuntimeStats) uint64 { return uint64(s.Reverts) })},
		{"mv_sites_patched_total", "Call sites patched to direct variant calls.",
			rstat(func(s RuntimeStats) uint64 { return uint64(s.SitesPatched) })},
		{"mv_sites_inlined_total", "Call sites with variant bodies inlined.",
			rstat(func(s RuntimeStats) uint64 { return uint64(s.SitesInlined) })},
		{"mv_sites_reverted_total", "Call sites restored to their original call.",
			rstat(func(s RuntimeStats) uint64 { return uint64(s.SitesReverted) })},
		{"mv_prologue_patches_total", "Generic prologues redirected to variants.",
			rstat(func(s RuntimeStats) uint64 { return uint64(s.ProloguePatch) })},
		{"mv_generic_signals_total", "Commits that fell back to the generic variant.",
			rstat(func(s RuntimeStats) uint64 { return uint64(s.GenericSignals) })},
		{"mv_commit_aborts_total", "Commits/reverts rolled back to the pre-operation image.",
			rstat(func(s RuntimeStats) uint64 { return uint64(s.CommitAborts) })},
		{"mv_commit_retries_total", "Text writes retried after a transient injected fault.",
			rstat(func(s RuntimeStats) uint64 { return uint64(s.CommitRetries) })},
		{"mv_sites_rolled_back_total", "Journal entries restored during commit aborts.",
			rstat(func(s RuntimeStats) uint64 { return uint64(s.SitesRolledBack) })},
		{"mv_flush_retries_total", "Icache shootdowns re-broadcast after stale-line verification.",
			rstat(func(s RuntimeStats) uint64 { return uint64(s.FlushRetries) })},
		{"mv_stop_machines_total", "Stop-machine rendezvous run for guarded operations.",
			rstat(func(s RuntimeStats) uint64 { return uint64(s.StopMachines) })},
		{"mv_text_pokes_total", "Multi-byte text writes done via the BRK poke protocol.",
			rstat(func(s RuntimeStats) uint64 { return uint64(s.TextPokes) })},
		{"mv_deferred_patches_total", "Operations queued because the target function was active.",
			rstat(func(s RuntimeStats) uint64 { return uint64(s.DeferredPatches) })},
		{"mv_deferred_drained_total", "Queued operations applied by DrainDeferred.",
			rstat(func(s RuntimeStats) uint64 { return uint64(s.DeferredDrained) })},
		{"mv_active_refusals_total", "Operations refused because the function was active.",
			rstat(func(s RuntimeStats) uint64 { return uint64(s.ActiveRefusals) })},
		{"mv_osr_transfers_total", "Live frames transferred into a new body by on-stack replacement.",
			rstat(func(s RuntimeStats) uint64 { return uint64(s.OSRTransfers) })},
		{"mv_osr_fallbacks_total", "ActiveOSR operations that fell back to the deferred queue.",
			rstat(func(s RuntimeStats) uint64 { return uint64(s.OSRFallbacks) })},
		{"mv_osr_rollbacks_total", "OSR frame transfers undone by transaction rollback.",
			rstat(func(s RuntimeStats) uint64 { return uint64(s.OSRRollbacks) })},
	} {
		reg.CounterFunc(c.name, c.help, c.read)
	}

	mm := &mvMetrics{
		clock: m.CPU.Cycles,
		commitLatency: reg.Histogram("mv_commit_latency_cycles",
			"Modeled latency of one commit span in cycles (begin to end across all patched sites)."),
		commitSites: reg.Histogram("mv_commit_sites",
			"Sites touched (patched, inlined or reverted) per commit span."),
		rendezvous: reg.Histogram("mv_rendezvous_latency_cycles",
			"Cycles spent herding CPUs to safe points per stop-machine rendezvous."),
		osrLatency: reg.Histogram("mv_osr_transfer_latency_cycles",
			"Cycles spent herding victims to mapped OSR points per frame-transfer operation."),
	}
	mm.res = newResidencyTracker(reg, mm.clock)
	// Every function starts on its generic implementation.
	for _, fs := range rt.funcs {
		mm.res.note(fs.fd.Name, "generic")
	}
	rt.metrics = mm
}

// machineStats bundles the two scrape sources of one machine.
type machineStats struct {
	cpu cpu.Stats
	mem mem.Stats
}

// CommitCounters are the counters the commit-latency model reads at
// the start and at the end of a commit span.
type CommitCounters struct {
	Mem    mem.Stats
	Stats  RuntimeStats
	Cycles uint64
}

// CommitLatency is the commit-latency model: the modeled latency in
// cycles of the span between two counter readings (protection flips,
// icache flushes and touched sites at their calibrated costs, plus the
// cycles the clock really advanced), and the sites it touched
// (patched, inlined or reverted call sites and prologue patches).
func CommitLatency(before, after CommitCounters) (latency, sites uint64) {
	dm := after.Mem.Sub(before.Mem)
	a, b := after.Stats, before.Stats
	sites = uint64(a.SitesPatched - b.SitesPatched +
		a.SitesInlined - b.SitesInlined +
		a.SitesReverted - b.SitesReverted +
		a.ProloguePatch - b.ProloguePatch)
	latency = dm.ProtectCalls*CostCommitProtect +
		dm.Flushes*CostCommitFlush +
		sites*CostCommitSite +
		(after.Cycles - before.Cycles)
	return latency, sites
}

// beginCommit opens a commit span and returns the closure that closes
// it into the latency and sites histograms. Nil-receiver safe.
func (mm *mvMetrics) beginCommit(rt *Runtime) func() {
	if mm == nil {
		return nil
	}
	before := CommitCounters{rt.plat.MemStats(), rt.Stats, mm.clock()}
	return func() {
		latency, sites := CommitLatency(before, CommitCounters{rt.plat.MemStats(), rt.Stats, mm.clock()})
		mm.commitLatency.Observe(latency)
		mm.commitSites.Observe(sites)
	}
}

// observeRendezvous records the herding latency of one stop-machine
// rendezvous. Nil-receiver safe.
func (mm *mvMetrics) observeRendezvous(latency uint64) {
	if mm == nil {
		return
	}
	mm.rendezvous.Observe(latency)
}

// observeOSR records the victim-herding latency of one on-stack
// replacement operation. Nil-receiver safe.
func (mm *mvMetrics) observeOSR(latency uint64) {
	if mm == nil {
		return
	}
	mm.osrLatency.Observe(latency)
}

// noteBinding records a function switching to a new variant (nil for
// generic); the variant label reuses the trace symbolizer's naming
// ("process.variant1"). Nil-receiver safe.
func (mm *mvMetrics) noteBinding(fd *FuncDesc, v *VariantDesc) {
	if mm == nil {
		return
	}
	mm.res.note(fd.Name, variantLabel(fd, v))
}

// variantLabel names a binding the way core.TraceSymbols names
// variant bodies, so profiles and metrics agree.
func variantLabel(fd *FuncDesc, v *VariantDesc) string {
	if v == nil {
		return "generic"
	}
	for i := range fd.Variants {
		if &fd.Variants[i] == v {
			return fmt.Sprintf("%s.variant%d", fd.Name, i)
		}
	}
	return fd.Name + ".variant?"
}

// residencyTracker accumulates, per (function, variant), the cycles
// spent bound to that variant. Each pair is exported as a
// CounterFunc whose reader folds in the still-open interval, so a
// scrape mid-residency sees up-to-date numbers without any hook on
// the execution path.
type residencyTracker struct {
	reg   *metrics.Registry
	clock func() uint64

	mu     sync.Mutex
	accum  map[[2]string]*uint64 // closed-interval cycles
	active map[string]*binding   // function -> current binding
}

type binding struct {
	variant string
	since   uint64
}

func newResidencyTracker(reg *metrics.Registry, clock func() uint64) *residencyTracker {
	return &residencyTracker{
		reg:    reg,
		clock:  clock,
		accum:  make(map[[2]string]*uint64),
		active: make(map[string]*binding),
	}
}

// note closes the function's current residency interval and opens one
// for the new variant. Re-binding to the same variant is a no-op.
func (rt *residencyTracker) note(fn, variant string) {
	now := rt.clock()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if b, ok := rt.active[fn]; ok {
		if b.variant == variant {
			return
		}
		*rt.cell(fn, b.variant) += now - b.since
	}
	rt.cell(fn, variant) // ensure the series exists from bind time
	rt.active[fn] = &binding{variant: variant, since: now}
}

// cell returns the accumulator for (fn, variant), registering its
// exported series on first use. Callers hold rt.mu.
func (rt *residencyTracker) cell(fn, variant string) *uint64 {
	key := [2]string{fn, variant}
	if c, ok := rt.accum[key]; ok {
		return c
	}
	c := new(uint64)
	rt.accum[key] = c
	rt.reg.CounterFunc("mv_variant_residency_cycles",
		"Cycles each function spent bound to each variant (generic included).",
		func() uint64 {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			v := *c
			if b, ok := rt.active[fn]; ok && b.variant == variant {
				v += rt.clock() - b.since
			}
			return v
		},
		metrics.L("function", fn), metrics.L("variant", variant))
	return c
}
