package main

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints, for every workload.
// work_per_s counts each workload's own unit: source bytes compiled,
// simulated instructions retired, call sites and prologues rewritten,
// or requests served. Its seconds, and those of setup_s and op_p50_ms,
// are reference seconds: wall time divided by the host slowdown.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"live_heap_mb", "MB"},
	{"sim_cycles_per_op", "cycles"},
}

// perLayer are the metrics a traced run prints. A name ending in _ms is
// the median host time of one call of the span with the name before
// the suffix; counts and rates cover the traced phase; self.*_pct is a
// layer's self time as a share of the traced phase. The extra cc.LexAll
// a traced compile op runs to count tokens is left out of the shares and
// of the traced work_per_s.
var perLayer = []metricDef{
	// Compile layers.
	{"cc.lex_ms", "ms"},
	{"cc.tokens", "count"},
	{"cc.tokens_per_s", "1/s"},
	{"cc.parse_ms", "ms"},
	{"cc.check_ms", "ms"},
	{"core.compile_unit_ms", "ms"},
	{"core.variants_raw", "count"},
	{"core.variants_merged", "count"},
	{"core.variant_merge_ratio", "ratio"},
	{"link.link_ms", "ms"},
	{"link.image_bytes", "bytes"},
	{"code_bytes", "bytes"},
	{"machine.new_ms", "ms"},
	{"core.new_runtime_ms", "ms"},

	// Interpreter layers (cpu, mem).
	{"machine.call_ms", "ms"},
	{"sim.measure_ms", "ms"},
	{"cpu.insts", "count"},
	{"cpu.insts_per_s", "1/s"},
	{"cpu.loads", "count"},
	{"cpu.stores", "count"},
	{"cpu.calls", "count"},
	{"cpu.branches", "count"},
	{"cpu.mispredicts", "count"},
	{"cpu.decode_hit_ratio", "ratio"},
	{"cpu.block_insts_ratio", "ratio"},
	{"cpu.block_builds", "count"},
	{"cpu.icache_fills", "count"},
	{"sim.e1_cycles", "cycles"},
	{"sim.e2_cycles", "cycles"},
	{"sim.e3_cycles", "cycles"},
	{"sim.e4_cycles", "cycles"},
	{"sim.e5_cycles", "cycles"},
	{"sim.e6_cycles", "cycles"},
	{"sim.e8_cycles", "cycles"},
	{"sim.e9_cycles", "cycles"},
	{"sim.e10_cycles", "cycles"},

	// Commit layers (core, mem, machine sync).
	{"core.commit_ms", "ms"},
	{"core.commit_tail_ms", "ms"},
	{"core.commit_tail_pct", "%"},
	{"core.commit_samples", "count"},
	{"core.revert_ms", "ms"},
	{"core.commit_func_ms", "ms"},
	{"core.revert_func_ms", "ms"},
	{"core.commit_refs_ms", "ms"},
	{"core.revert_refs_ms", "ms"},
	{"core.audit_ms", "ms"},
	{"core.sites_patched", "count"},
	{"core.sites_inlined", "count"},
	{"core.sites_reverted", "count"},
	{"core.sites_per_ms", "1/ms"},
	{"mem.protect_calls", "count"},
	{"mem.flushes", "count"},
	{"cpu.traps", "count"},
	{"cpu.block_invalidates", "count"},
	{"core.commit_aborts", "count"},
	{"core.commit_retries", "count"},
	{"machine.sweep_ms", "ms"},

	// Fleet layers.
	{"fleet.new_ms", "ms"},
	{"fleet.run_ms", "ms"},
	{"fleet.requests_served", "count"},
	{"fleet.batches", "count"},
	{"fleet.storm_flips", "count"},
	{"fleet.commit_aborts", "count"},
	{"fleet.commit_retries", "count"},
	{"fleet.parked_flips", "count"},
	{"fleet.osr_commits", "count"},
	{"fleet.kills", "count"},
	{"fleet.restarts", "count"},
	{"fleet.snapshots", "count"},
	{"fleet.migrations", "count"},
	{"fleet.requests_per_kcycle", "1/kcycle"},

	// Tracing cost: the same workload's work_per_s, untraced and traced,
	// and the host slowdown both were corrected for.
	{"host.slowdown", "ratio"},
	{"trace.work_per_s_untraced", "1/s"},
	{"trace.work_per_s_traced", "1/s"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},

	// Self time per layer; harness is the time outside every span.
	{"self.cc_pct", "%"},
	{"self.core_pct", "%"},
	{"self.link_pct", "%"},
	{"self.machine_pct", "%"},
	{"self.sim_pct", "%"},
	{"self.fleet_pct", "%"},
	{"self.snapshot_pct", "%"},
	{"self.harness_pct", "%"},
}

// spanLayers are the layers span names start with; "sim" covers the
// kernelsim, muslsim, grepsim and pysim builders and Measure functions.
var spanLayers = []string{"cc", "core", "link", "machine", "sim", "fleet", "snapshot"}
