package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/fleet"
)

// Fleet sizing: one New+Run op takes tens of milliseconds, so a run
// holds hundreds of ops. The reference pass runs fleetSeeds distinct
// fleets; later ops cycle through the same seeds and must reproduce
// each fleet's fingerprint.
const (
	fleetSeeds       = 16
	fleetMachines    = 8
	fleetRounds      = 24
	fleetFaultPoints = 2
)

// fleetCounters maps per-layer metrics to the fleet registry's counters.
var fleetCounters = map[string]string{
	"fleet.batches":        "fleet_batches_total",
	"fleet.storm_flips":    "fleet_storm_flips_total",
	"fleet.commit_aborts":  "fleet_commit_aborts_total",
	"fleet.commit_retries": "fleet_commit_retries_total",
	"fleet.parked_flips":   "fleet_parked_flips_total",
	"fleet.osr_commits":    "fleet_osr_commits_total",
	"fleet.kills":          "fleet_kills_total",
	"fleet.restarts":       "fleet_restarts_total",
	"fleet.snapshots":      "fleet_snapshots_total",
	"fleet.migrations":     "fleet_migrations_in_total",
}

// fleetWorkload runs one supervised fleet, built and run to the end,
// per op: config-flip storms, chaos kills and commit faults, so
// snapshots, restarts, migrations and the supervisor all do work.
type fleetWorkload struct {
	tr    *tracer
	seeds []int64
	refs  []fleetRef
	last  *fleet.Fleet // the latest fleet stays referenced for live_heap_mb
	cum   counts
}

type fleetRef struct {
	fingerprint  string
	served       uint64
	cyclesPerReq float64
}

// opSeeds derives the fleet seeds of one pass from the workload seed.
func opSeeds(seed int64) []int64 {
	r := newRNG(seed, streamFleet)
	s := make([]int64, fleetSeeds)
	for k := range s {
		s[k] = int64(r.next() >> 1)
	}
	return s
}

func (f *fleetWorkload) build(seed int64) error {
	f.seeds = opSeeds(seed)
	f.refs = make([]fleetRef, fleetSeeds)
	f.cum = counts{}
	return nil
}

func (f *fleetWorkload) passLen() int { return fleetSeeds }

func (f *fleetWorkload) op(i int) (opStat, error) {
	k := i % fleetSeeds
	cfg := fleet.Config{
		Seed:        f.seeds[k],
		Shards:      min(2, runtime.NumCPU()), // more shards than CPUs would only oversubscribe
		Machines:    fleetMachines,
		Rounds:      fleetRounds,
		Chaos:       true,
		FaultPoints: fleetFaultPoints,
	}
	var (
		fl  *fleet.Fleet
		res *fleet.Result
	)
	start := time.Now()
	err := f.tr.do("fleet.new", func() (err error) { fl, err = fleet.New(cfg); return })
	if err == nil {
		err = f.tr.do("fleet.run", func() (err error) { res, err = fl.Run(); return })
	}
	st := opStat{latency: time.Since(start)}
	if err != nil {
		return st, fmt.Errorf("fleet seed %d: %w", cfg.Seed, err)
	}
	f.last = fl
	st.work = float64(res.Served)
	var cycles uint64
	for _, s := range res.Shards {
		cycles += s.Cycles
	}
	// The shard registries are mounted under the root, so only a
	// snapshot sees their counters.
	totals := map[string]float64{}
	for _, fam := range fl.Registry().Snapshot().Families {
		for _, s := range fam.Series {
			if s.Value != nil {
				totals[fam.Name] += *s.Value
			}
		}
	}
	for metric, counter := range fleetCounters {
		f.cum[metric] += totals[counter]
	}
	f.cum["fleet.requests_served"] += float64(res.Served)
	f.cum["fleet.requests"] += float64(res.Requests)
	f.cum["fleet.cycles"] += float64(cycles)
	if res.Served != res.Scheduled || res.Failed != 0 {
		return st, fmt.Errorf("fleet seed %d served %d of %d requests; %d machines failed", cfg.Seed, res.Served, res.Scheduled, res.Failed)
	}
	got := fleetRef{res.Fingerprint(), res.Served, float64(cycles) / float64(res.Requests)}
	if i < fleetSeeds {
		f.refs[k] = got
	} else if got != f.refs[k] {
		return st, fmt.Errorf("fleet seed %d: result differs from the reference run", cfg.Seed)
	}
	return st, nil
}

func (f *fleetWorkload) simCyclesPerOp() float64 {
	c := make([]float64, len(f.refs))
	for i, r := range f.refs {
		c[i] = r.cyclesPerReq
	}
	return geomean(c)
}

func (f *fleetWorkload) reference() string {
	var b strings.Builder
	for _, r := range f.refs {
		fmt.Fprintf(&b, "%d %v %s\n", r.served, r.cyclesPerReq, r.fingerprint)
	}
	return b.String()
}

func (f *fleetWorkload) layers(cum, fixed counts) {
	for k, v := range f.cum {
		cum[k] += v
	}
}
