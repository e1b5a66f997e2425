package difftest

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/grepsim"
	"repro/internal/isa"
	"repro/internal/kernelsim"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/muslsim"
	"repro/internal/pysim"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// The paper's evaluation (§6) is simulated cycles, so nothing attached
// to a run may move one. A row is one attachment: attach wires it into
// a run before the workload builds anything and returns the check that
// proves the run exercised it; fails is reported when the check fails.
type row struct {
	name, group string
	slots       uint // rows sharing a slot do not compose
	moves       bool // it moves host-side state a snapshot carries
	fails       string
	attach      func(e *env) (check func() bool)
}

const (
	slotPlan, slotCommit, slotLeg, slotTrace, slotFlight = 1, 2, 4, 8, 16
	slotMetrics, slotWatchdog, slotITrace, slotSampler   = 32, 64, 128, 256
	slotObservers                                        = slotTrace | slotFlight | slotMetrics | slotWatchdog | slotITrace | slotSampler
)

var rows = []row{
	{"inert", "plan", slotPlan, false, "a system ran no block", func(e *env) func() bool {
		e.each(func(sys *core.System) { faultinject.Exact().Attach(sys.Machine) })
		return func() bool { return e.all(func(s *core.System) bool { return s.Machine.TotalStats().BlockInsts > 0 }) }
	}},
	// These fetch faults never fire, yet hold every CPU to Step: Step
	// against the superblocks, compared on architectural stats.
	{"step", "plan", slotPlan, true, "a system ran a block", func(e *env) func() bool {
		e.each(func(sys *core.System) {
			var pts []faultinject.Point
			for i := range sys.Machine.CPUs() {
				pts = append(pts, faultinject.Point{Kind: faultinject.KindFetchFault, CPU: i, Cycle: math.MaxUint64})
			}
			faultinject.Exact(pts...).Attach(sys.Machine)
		})
		return func() bool { return e.all(func(s *core.System) bool { return s.Machine.TotalStats().BlockInsts == 0 }) }
	}},
	// Spent plans, fired by the first commit after they attach: a dropped
	// flush, which the commit's shootdown check re-sends at no cycle, and
	// a transient protect fault, retried after a backoff that charges
	// cycles (so that row compares no cycle counter).
	{"exhausted", "plan", slotPlan, true, "no plan fired, or one fired after measuring began", spent(faultinject.Point{Kind: faultinject.KindDropFlush})},
	{"retried", "plan", slotPlan, true, "no plan fired, or one fired after measuring began", spent(faultinject.Point{Kind: faultinject.KindProtect, Transient: true})},
	{"flight", "observer", slotFlight, false, "it recorded nothing", func(e *env) func() bool {
		e.obs.Flight = trace.NewRecorder(0)
		return func() bool { return len(e.obs.Flight.Events()) > 0 }
	}},
	{"metrics", "observer", slotMetrics, false, "it counted no instruction", func(e *env) func() bool {
		e.obs.Metrics = metrics.New()
		return func() bool { return e.obs.Metrics.CounterTotal("mv_instructions_total") > 0 }
	}},
	{"watchdog", "observer", slotWatchdog, false, "it never alerted on a shootdown", func(e *env) func() bool {
		e.obs.Watchdog = trace.NewWatchdog([]trace.WatchdogRule{{Name: "flush", Kind: trace.KindFlushICache, Window: 1, Count: 1}})
		return e.obs.Watchdog.Fired
	}},
	// Small rings: overwriting the oldest events is as passive.
	{"events", "observer", slotTrace, false, "it recorded nothing", func(e *env) func() bool {
		e.obs.Trace = trace.NewCollector(trace.Options{Limit: 1 << 10})
		return func() bool { return len(e.obs.Trace.Events()) > 0 }
	}},
	{"profile", "observer", slotTrace, false, "it recorded nothing", func(e *env) func() bool {
		e.obs.Trace = trace.NewCollector(trace.Options{Profile: true, Limit: 1 << 10})
		return func() bool { return len(e.obs.Trace.Profile().Folded) > 0 }
	}},
	// mvrun -itrace with its default limit of 200 instructions.
	{"itrace", "observer", slotITrace, false, "it recorded nothing", func(e *env) func() bool {
		var out bytes.Buffer
		e.each(func(sys *core.System) {
			img, c, printed := sys.Machine.Image, sys.Machine.CPU, 0
			c.SetTracer(trace.NewTee(trace.StepFunc(func(pc, cycles uint64, in *isa.Inst) {
				if printed++; printed <= 200 {
					if name, ok := img.SymbolAt(pc); ok && img.Symbols[name].Addr == pc {
						fmt.Fprintf(&out, "%s:\n", name)
					}
					fmt.Fprintf(&out, "  %#08x: %s\n", pc, in.Format(pc))
				}
			}), c.Tracer()))
		})
		return func() bool { return out.Len() > 0 }
	}},
	// mvrun -sample every 2,000 cycles (its default is 100,000). A
	// sampler writes its first row at its first tick, so one sampler of
	// each cell (a restored leg has two) must write a second: a read of
	// the registry mid-run.
	{"sampler", "observer", slotSampler, false, "a cell's samplers read nothing after their first ticks", func(e *env) func() bool {
		var out bytes.Buffer
		cells := map[int][]*metrics.Sampler{}
		e.each(func(sys *core.System) {
			reg, c := metrics.New(), sys.Machine.CPU
			core.Observers{Metrics: reg}.Attach(sys.Machine, sys.RT)
			samp := metrics.NewSampler(reg, &out, 2_000, metrics.FormatCSV)
			cells[len(e.cells)-1] = append(cells[len(e.cells)-1], samp)
			c.SetTracer(trace.NewTee(trace.StepFunc(func(pc, cycles uint64, in *isa.Inst) { samp.Tick(cycles) }), c.Tracer()))
		})
		return func() bool {
			for _, samps := range cells {
				if !slices.ContainsFunc(samps, func(s *metrics.Sampler) bool { return s.Rows() > 1 }) {
					return false
				}
			}
			return len(cells) > 0
		}
	}},
	{"stop-machine", "commit", slotCommit, true, "no stop-machine rendezvous ran", func(e *env) func() bool {
		e.each(func(sys *core.System) { sys.RT.SetCommitOptions(core.CommitOptions{Mode: core.ModeStopMachine}) })
		return func() bool { return e.any(stopped) }
	}},
	// The CPUs are halted at every commit, so ActiveOSR must never act.
	{"osr", "commit", slotCommit, true, "no commit ran under it, or OSR acted", func(e *env) func() bool {
		e.each(func(sys *core.System) {
			sys.RT.SetCommitOptions(core.CommitOptions{Mode: core.ModeStopMachine, OnActive: core.ActiveOSR})
		})
		return func() bool { return e.any(stopped) && e.all(osrIdle) }
	}},
	{"paused", "snapshot", slotLeg, false, "a call halted before the pause", func(e *env) func() bool {
		e.pause = true
		return func() bool { return !e.late }
	}},
	{"restored", "snapshot", slotLeg, false, "a restored machine starts before the pause", func(e *env) func() bool {
		e.pause, e.restore = true, true
		return func() bool { return !e.early }
	}},
}

func stopped(s *core.System) bool { return s.RT.Stats.StopMachines > 0 }
func osrIdle(s *core.System) bool {
	return s.RT.Stats.OSRTransfers+s.RT.Stats.OSRFallbacks+s.RT.Stats.DeferredPatches == 0
}

// spent attaches a plan of the one point to every system. Its check
// needs some plan to fire, and each that fires to do so before every
// measurement and the final call on its system.
func spent(pt faultinject.Point) func(e *env) func() bool {
	return func(e *env) func() bool {
		fired := func(s *core.System) bool { return s.Machine.Injector().(*faultinject.Plan).Remaining() == 0 }
		var pending []*core.System // unfired at a measurement
		e.each(func(sys *core.System) { faultinject.Exact(pt).Attach(sys.Machine) })
		e.probes = append(e.probes, func(sys *core.System) {
			if !fired(sys) {
				pending = append(pending, sys)
			}
		})
		return func() bool { return e.any(fired) && !slices.ContainsFunc(pending, fired) }
	}
}

// all attaches every observer row but events, whose collector would
// replace profile's, and needs each check to hold.
func init() {
	rows = append(rows, row{"all", "observer", slotObservers, false, "an observer recorded nothing", func(e *env) func() bool {
		var checks []func() bool
		for _, r := range rows {
			if r.group == "observer" && r.name != "events" && r.name != "all" {
				checks = append(checks, r.attach(e))
			}
		}
		return func() bool { return !slices.ContainsFunc(checks, func(c func() bool) bool { return !c() }) }
	}})
}

// env is one run of a workload under a set of rows.
type env struct {
	t              *testing.T
	obs            core.Observers       // handed to every builder
	hooks          []func(*core.System) // applied to every system once built
	probes         []func(*core.System) // applied before each measurement and final call
	systems        []*core.System
	cells          []cell // the last one is open
	pause, restore bool   // the snapshot leg
	late, early    bool   // a call halted before the pause, a restore starts before it
}

// cell is what one system leaves behind.
type cell struct {
	name    string
	results []bench.Result
	cycles  []uint64 // every CPU's final cycle counter
	stats   cpu.Stats
	guest   uint64 // the final call's result
	console string
	snap    []byte // the leg's mid-call capture
	digest  string // the final snapshot's digest
}

func (e *env) each(h func(*core.System)) { e.hooks = append(e.hooks, h) }

// boot is the hook every workload builds its systems through: it
// attaches the rows and opens the cell. sys is called only without err.
func (e *env) boot(name string, sys func() *core.System, err error) *core.System {
	e.t.Helper()
	if err != nil {
		e.t.Fatalf("%s: %v", name, err)
	}
	e.cells = append(e.cells, cell{name: name})
	return e.attach(sys())
}

func (e *env) attach(sys *core.System) *core.System {
	for _, h := range e.hooks {
		h(sys)
	}
	e.systems = append(e.systems, sys)
	return sys
}

// probe runs the probes on the open cell's system.
func (e *env) probe() {
	for _, p := range e.probes {
		p(e.systems[len(e.systems)-1])
	}
}

func (e *env) result(measure func() (bench.Result, error)) {
	e.probe()
	r, err := measure()
	must(e.t, err)
	e.cells[len(e.cells)-1].results = append(e.cells[len(e.cells)-1].results, r)
}

func (e *env) any(ok func(*core.System) bool) bool { return slices.ContainsFunc(e.systems, ok) }
func (e *env) all(ok func(*core.System) bool) bool {
	return !e.any(func(s *core.System) bool { return !ok(s) })
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// finish closes the open cell: it runs entry(arg) to the halt and
// records what the system leaves. A snapshot leg pauses the call 1000
// cycles in for a capture; the restored leg ends it on a fresh machine,
// attached like every other, restored from that capture.
func (e *env) finish(entry string, arg uint64) {
	e.probe()
	t, sys, c := e.t, e.systems[len(e.systems)-1], &e.cells[len(e.cells)-1]
	t.Helper()
	m := sys.Machine
	must(t, m.StartCall(m.CPU, entry, arg))
	if e.pause {
		mid := m.CPU.Cycles() + 1000
		_, err := m.CPU.RunUntil(mid, m.MaxSteps)
		must(t, err)
		e.late = e.late || m.CPU.Halted()
		s := capture(t, m, sys.RT)
		if c.snap = s.Encode(nil); e.restore {
			m, err = machine.New(m.Image)
			must(t, err)
			rt, err := core.NewRuntime(m.Image, &core.UserPlatform{M: m})
			must(t, err)
			e.obs.Attach(m, rt)
			sys = e.attach(&core.System{Machine: m, RT: rt})
			must(t, snapshot.Apply(s, m, rt))
			e.early = e.early || m.CPU.Cycles() < mid
		}
	}
	_, err := m.CPU.Run(m.MaxSteps)
	must(t, err)
	if !m.CPU.Halted() {
		t.Fatalf("%s: %s did not halt", c.name, entry)
	}
	for _, cp := range m.CPUs() {
		c.cycles = append(c.cycles, cp.Cycles())
	}
	c.guest, c.stats, c.console = m.CPU.Reg(0), m.TotalStats(), string(m.Console())
	c.digest, err = snapshot.Digest(capture(t, m, sys.RT).Encode(nil))
	must(t, err)
}

// capture snapshots m and rt with RuntimeState.OpSeq zeroed: the runtime
// numbers its operations only for a sink that carries commit-causality
// spans.
func capture(t *testing.T, m *machine.Machine, rt *core.Runtime) *snapshot.Snapshot {
	t.Helper()
	raw, err := snapshot.Capture(nil, m, rt)
	must(t, err)
	s, err := snapshot.Decode(raw)
	must(t, err)
	s.Runtime.OpSeq = 0
	return s
}

// A workload is one program of the evaluation. It builds each system
// through env.boot, measures through env.result and closes its cell
// with env.finish.
type workload struct {
	name  string
	pairs bool     // every pair of rows that composes runs here too
	image bool     // it only builds images (TestImageGoldens)
	na    []string // rows whose check cannot hold here
	run   func(e *env)
}

var (
	kopts    = kernelsim.MeasureOpts{Samples: 3, Iters: 10, Warmup: 1}
	smpLabel = map[bool]string{false: "up", true: "smp"}
	// E1 and E3 commit only in their builders, before these attach.
	commitRows = []string{"exhausted", "retried", "stop-machine", "osr"}
)

// workloads is in the order of testdata/images.golden.
var workloads = []workload{
	{name: "e1", pairs: true, na: commitRows, run: func(e *env) {
		for _, b := range []kernelsim.Fig1Binding{kernelsim.Fig1Static, kernelsim.Fig1Dynamic, kernelsim.Fig1Multiverse} {
			for _, smp := range []bool{false, true} {
				f, err := kernelsim.BuildFig1(b, smp, e.obs)
				e.boot(fmt.Sprintf("fig1/%d/%s", b, smpLabel[smp]), f.System, err)
				e.result(func() (bench.Result, error) { return f.Measure(kopts) })
				e.finish("bench_fig1", 100)
			}
		}
	}},
	{name: "e2", pairs: true, run: func(e *env) {
		for k := kernelsim.SpinMainline; k <= kernelsim.SpinStaticUP; k++ {
			s, err := kernelsim.BuildSpin(k, e.obs)
			e.boot(fmt.Sprintf("spin/%d", k), s.System, err)
			for _, smp := range []bool{false, true} {
				if !smp || k != kernelsim.SpinStaticUP { // the UP-only kernel has no SMP mode
					must(e.t, s.SetSMP(smp))
					e.result(func() (bench.Result, error) { return s.Measure(kopts) })
				}
			}
			e.finish("bench_spin", 50)
		}
	}},
	{name: "e3", na: commitRows, run: func(e *env) {
		// The hypervisor is a device outside the snapshot: every
		// machine gets one, so a restored Xen guest has it too.
		e.each(func(sys *core.System) { sys.Machine.CPU.SetHypervisor(&kernelsim.Xen{}) })
		for k := kernelsim.PVCurrent; k <= kernelsim.PVDisabled; k++ {
			for _, host := range []kernelsim.PVEnv{kernelsim.EnvNative, kernelsim.EnvXen} {
				if k != kernelsim.PVDisabled || host != kernelsim.EnvXen { // BuildPV refuses that pair
					p, err := kernelsim.BuildPV(k, host, e.obs)
					e.boot(fmt.Sprintf("pvops/%d/%d", k, host), p.System, err)
					e.result(func() (bench.Result, error) { return p.Measure(kopts) })
					e.finish("bench_pv", 50)
				}
			}
		}
	}},
	{name: "e10", image: true, run: func(e *env) {
		for _, k := range []kernelsim.AltKernel{kernelsim.AltMacro, kernelsim.AltMultiverse} {
			for _, feat := range []bool{false, true} {
				s, err := kernelsim.BuildAlt(k, feat, e.obs)
				e.boot(fmt.Sprintf("alt/%d/%v", k, feat), s.System, err)
			}
		}
	}},
	{name: "e7", image: true, run: func(e *env) {
		sys, err := kernelsim.BuildManyCallSites(kernelsim.PaperCallSites, e.obs)
		e.boot("callsites", func() *core.System { return sys }, err)
	}},
	{name: "e4", pairs: true, run: func(e *env) {
		for _, b := range []muslsim.Build{muslsim.Plain, muslsim.Multiverse} {
			m, err := muslsim.BuildMusl(b, e.obs)
			e.boot(fmt.Sprintf("musl/%d", b), m.System, err)
			for _, multi := range []bool{false, true} {
				must(e.t, m.SetThreads(multi))
				for _, f := range muslsim.Funcs() {
					e.result(func() (bench.Result, error) { return m.Measure(f, 2, 5) })
				}
			}
			e.finish("bench_fputc", 100)
		}
	}},
	{name: "e5", run: func(e *env) {
		for _, b := range []grepsim.Build{grepsim.Plain, grepsim.Multiverse} {
			g, err := grepsim.BuildGrep(b, e.obs)
			e.boot(fmt.Sprintf("grep/%d", b), g.System, err)
			must(e.t, g.LoadCorpus(grepsim.Corpus(256)))
			must(e.t, g.SetMode(false))
			e.result(func() (bench.Result, error) { return g.Measure(1) })
			e.finish("grep_run", 256)
		}
	}},
	{name: "e6", run: func(e *env) {
		for _, b := range []pysim.Build{pysim.Plain, pysim.Multiverse} {
			p, err := pysim.BuildPython(b, e.obs)
			e.boot(fmt.Sprintf("python/%d", b), p.System, err)
			must(e.t, p.SetGCEnabled(false))
			e.result(func() (bench.Result, error) { return p.Measure(3, 10) })
			e.finish("bench_alloc", 50)
		}
	}},
	{name: "fleet", image: true, run: func(e *env) { program(e, "fleet.mvc", fleet.GuestSource) }},
	{name: "trace-smoke", image: true, run: func(e *env) { program(e, "mv-trace-smoke", traceSmokeSrc) }},
	{name: "ckpt-smoke", pairs: true, run: func(e *env) {
		sys := program(e, "mv-ckpt-smoke", ckptSmokeSrc)
		must(e.t, sys.SetSwitch("mode", 1))
		_, err := sys.RT.Commit()
		must(e.t, err)
		e.finish("spin", 400)
	}},
}

func program(e *env, name, text string) *core.System {
	sys, err := core.BuildSystem(core.GenOptions{}, &e.obs, core.Source{Name: name, Text: text})
	return e.boot(name, func() *core.System { return sys }, err)
}

// measure runs w under set and checks each row where it applies.
func (w workload) measure(t *testing.T, set []row) []cell {
	e := &env{t: t}
	checks := make([]func() bool, len(set))
	for i, r := range set {
		checks[i] = r.attach(e)
	}
	w.run(e)
	for i, r := range set {
		if ok, na := checks[i](), slices.Contains(w.na, r.name); !na && !ok {
			t.Errorf("%s: %s", r.name, r.fails)
		} else if na && ok && len(set) == 1 {
			t.Errorf("%s is marked not applicable on %s, but its check holds", r.name, w.name)
		}
	}
	return e.cells
}

// The table's cells belong to these tests: the names of the tests the
// table replaced run the rows owners gives them, on its workloads, alone
// and in each pair they lead; TestAttachmentsMoveNothing runs the rest.
func TestAttachmentsMoveNothing(t *testing.T)        { table(t) }
func TestSuperblockInvarianceFig1(t *testing.T)      { table(t) }
func TestSuperblockArchStatsInvariance(t *testing.T) { table(t) }
func TestSuperblockInvarianceMusl(t *testing.T)      { table(t) }
func TestFaultInjectorInvarianceSpin(t *testing.T)   { table(t) }
func TestFaultInjectorInvarianceMusl(t *testing.T)   { table(t) }
func TestExhaustedPlanIsInert(t *testing.T)          { table(t) }
func TestFlightRecorderInvarianceFig1(t *testing.T)  { table(t) }
func TestFlightRecorderInvarianceMusl(t *testing.T)  { table(t) }
func TestMetricsInvarianceFig1(t *testing.T)         { table(t) }
func TestMetricsInvarianceMusl(t *testing.T)         { table(t) }
func TestTracerInvarianceFig1(t *testing.T)          { table(t) }
func TestTracerInvarianceMusl(t *testing.T)          { table(t) }
func TestObserversMoveNothingFig1(t *testing.T)      { table(t) }
func TestObserversMoveNothingCkptSmoke(t *testing.T) { table(t) }
func TestStopMachineModeInvarianceSpin(t *testing.T) { table(t) }
func TestStopMachineModeInvarianceMusl(t *testing.T) { table(t) }
func TestOSRConfiguredParityE1(t *testing.T)         { table(t) }
func TestOSRConfiguredParityE4(t *testing.T)         { table(t) }
func TestSnapshotRestoreInvarianceFig1(t *testing.T) { table(t) }
func TestSnapshotRestoreInvarianceMusl(t *testing.T) { table(t) }

var owners = map[string]string{
	"TestSuperblockInvarianceFig1": "e1/inert", "TestSuperblockArchStatsInvariance": "e1/step",
	"TestSuperblockInvarianceMusl": "e4/inert e4/step", "TestFaultInjectorInvarianceSpin": "e2/inert e2/step",
	"TestFaultInjectorInvarianceMusl": "e4/exhausted e4/retried", "TestExhaustedPlanIsInert": "e2/exhausted e2/retried",
	"TestFlightRecorderInvarianceFig1": "e1/flight", "TestFlightRecorderInvarianceMusl": "e4/flight",
	"TestMetricsInvarianceFig1": "e1/metrics", "TestMetricsInvarianceMusl": "e4/metrics",
	"TestTracerInvarianceFig1": "e1/events e1/profile", "TestTracerInvarianceMusl": "e4/events e4/profile",
	"TestObserversMoveNothingFig1":      "e1/itrace e1/sampler e1/all",
	"TestObserversMoveNothingCkptSmoke": "ckpt-smoke/profile ckpt-smoke/itrace ckpt-smoke/sampler ckpt-smoke/all",
	"TestStopMachineModeInvarianceSpin": "e2/stop-machine", "TestStopMachineModeInvarianceMusl": "e4/stop-machine",
	"TestOSRConfiguredParityE1": "e2/osr", "TestOSRConfiguredParityE4": "e4/osr",
	"TestSnapshotRestoreInvarianceFig1": "e1/paused e1/restored", "TestSnapshotRestoreInvarianceMusl": "e4/paused e4/restored",
}

// owns reports whether t runs the cells a row (workload/row) leads.
func owns(t *testing.T, key string) bool {
	for test, keys := range owners {
		if slices.Contains(strings.Fields(keys), key) {
			return test == t.Name()
		}
	}
	return t.Name() == "TestAttachmentsMoveNothing"
}

// refs holds each workload's reference runs by row, made by the first
// test that needs them: the bare run (""), and the paused leg and each
// row that moves state run alone.
var refs = map[string]map[string][]cell{}

// table runs, on each workload, each row that t owns alone and, on a
// pair workload, paired with each later row that composes. Every cell
// must equal the bare run's, final digests those of the run's moving
// row alone (or the bare run's), and captures without a moving row the
// paused leg's.
func table(t *testing.T) {
	for _, w := range workloads {
		var sets [][]row
		for i, a := range rows {
			if !w.image && owns(t, w.name+"/"+a.name) {
				sets = append(sets, []row{a})
				for _, b := range rows[i+1:] {
					if w.pairs && a.slots&b.slots == 0 {
						sets = append(sets, []row{a, b})
					}
				}
			}
		}
		if refs[w.name] == nil && len(sets) > 0 {
			refs[w.name] = map[string][]cell{"": w.measure(t, nil)}
			for _, r := range rows {
				if r.moves || r.name == "paused" {
					refs[w.name][r.name] = w.measure(t, []row{r})
				}
			}
		}
		for _, set := range sets {
			name := w.name
			for _, r := range set {
				name += "/" + r.group + "." + r.name
			}
			ref := refs[w.name]
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				compare(t, set, ref, w.measure(t, set))
			})
		}
	}
}

// compare reports every cell of got that moved from the bare run's, or
// from the reference digests and captures. It blanks what a row moves by
// design on both sides first.
func compare(t *testing.T, set []row, ref map[string][]cell, got []cell) {
	t.Helper()
	bare := ref[""]
	if len(got) == 0 || len(got) != len(bare) {
		t.Fatalf("%d cells, bare run %d", len(got), len(bare))
	}
	moves := ""
	for _, r := range set {
		if r.moves {
			moves += r.name // two moving rows name no reference
		}
	}
	for i, c := range got {
		if d := ref[moves]; d != nil && c.digest != d[i].digest {
			t.Errorf("%s: final digest %s, want %s", c.name, c.digest, d[i].digest)
		}
		if moves == "" && c.snap != nil && !bytes.Equal(c.snap, ref["paused"][i].snap) {
			t.Errorf("%s: the capture at the pause moved", c.name)
		}
		b := bare[i]
		c.snap, c.digest, b.snap, b.digest = nil, "", nil, ""
		for _, r := range set {
			switch r.name {
			case "step": // single steps and superblocks differ in Decode* and Block*
				for _, s := range []*cpu.Stats{&c.stats, &b.stats} {
					s.DecodeHits, s.DecodeMisses, s.BlockBuilds, s.BlockHits, s.BlockInsts, s.BlockInvalidates = 0, 0, 0, 0, 0, 0
				}
			case "retried": // the retry's backoff
				c.cycles, b.cycles = nil, nil
			}
		}
		if !reflect.DeepEqual(c, b) {
			t.Errorf("%s moved:\nbare: %+v\ngot:  %+v", c.name, b, c)
		}
	}
}

// TestTraceGoldens pins the Chrome trace and the folded profile of a
// small profiled run of E1 (Figure 1, multiverse, SMP) and E4 (musl,
// multiverse) by length and SHA-256, so a change to how observers ride
// the interpreter cannot move an exported event. Rewrite with -update.
func TestTraceGoldens(t *testing.T) {
	golden := func(name string, run func(obs core.Observers)) {
		col := trace.NewCollector(trace.Options{Profile: true})
		run(core.Observers{Trace: col})
		var chrome, folded bytes.Buffer
		must(t, col.WriteChromeTrace(&chrome))
		must(t, col.WriteFolded(&folded))
		for ext, b := range map[string][]byte{".json.sha256": chrome.Bytes(), ".folded.sha256": folded.Bytes()} {
			checkGolden(t, name+ext, fmt.Sprintf("%d bytes, sha256 %x\n", len(b), sha256.Sum256(b)))
		}
	}
	golden("fig1_multiverse_smp", func(obs core.Observers) {
		f, err := kernelsim.BuildFig1(kernelsim.Fig1Multiverse, true, obs)
		must(t, err)
		_, err = f.Measure(kernelsim.MeasureOpts{Samples: 4, Iters: 10, Warmup: 1})
		must(t, err)
	})
	golden("musl_multiverse", func(obs core.Observers) {
		m, err := muslsim.BuildMusl(muslsim.Multiverse, obs)
		must(t, err)
		must(t, m.SetThreads(false))
		for _, f := range muslsim.Funcs() {
			_, err := m.Measure(f, 3, 5)
			must(t, err)
		}
	})
}
