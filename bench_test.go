// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (see DESIGN.md §3 for the experiment index).
//
// Each benchmark drives the simulated machine and reports the
// simulated cost as the custom metric "cycles/op" — that column is the
// reproduction of the paper's numbers; the ns/op column only measures
// the host running the simulator. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/grepsim"
	"repro/internal/isa"
	"repro/internal/kernelsim"
	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/muslsim"
	"repro/internal/pysim"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

func benchOpts() kernelsim.MeasureOpts {
	return kernelsim.MeasureOpts{Samples: 30, Iters: 100, Warmup: 3}
}

// reportCycles runs sample() once per b.N iteration batch and reports
// the simulated per-op cycles.
func reportCycles(b *testing.B, sample func() (float64, error)) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		v, err := sample()
		if err != nil {
			b.Fatal(err)
		}
		last = v
	}
	b.ReportMetric(last, "cycles/op")
	b.ReportMetric(0, "ns/op") // host time is not the result
}

// --- E1: Figure 1 table ---

func BenchmarkFig1(b *testing.B) {
	for _, bind := range []kernelsim.Fig1Binding{
		kernelsim.Fig1Static, kernelsim.Fig1Dynamic, kernelsim.Fig1Multiverse,
	} {
		for _, smp := range []bool{false, true} {
			name := bind.String()
			if smp {
				name += "/SMP=true"
			} else {
				name += "/SMP=false"
			}
			b.Run(name, func(b *testing.B) {
				sys, err := kernelsim.BuildFig1(bind, smp)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				reportCycles(b, func() (float64, error) {
					res, err := sys.Measure(benchOpts())
					return res.Mean, err
				})
			})
		}
	}
}

// --- E2: Figure 4 left ---

func BenchmarkFig4Spinlock(b *testing.B) {
	for _, k := range []kernelsim.SpinKernel{
		kernelsim.SpinMainline, kernelsim.SpinIf, kernelsim.SpinMultiverse, kernelsim.SpinStaticUP,
	} {
		for _, smp := range []bool{false, true} {
			if k == kernelsim.SpinStaticUP && smp {
				continue
			}
			name := k.String()
			if smp {
				name += "/Multicore"
			} else {
				name += "/Unicore"
			}
			b.Run(name, func(b *testing.B) {
				s, err := kernelsim.BuildSpin(k)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.SetSMP(smp); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				reportCycles(b, func() (float64, error) {
					res, err := s.Measure(benchOpts())
					return res.Mean, err
				})
			})
		}
	}
}

// --- E3: Figure 4 right ---

func BenchmarkFig4PVOps(b *testing.B) {
	for _, k := range []kernelsim.PVKernel{
		kernelsim.PVCurrent, kernelsim.PVMultiverse, kernelsim.PVDisabled,
	} {
		for _, env := range []kernelsim.PVEnv{kernelsim.EnvNative, kernelsim.EnvXen} {
			if k == kernelsim.PVDisabled && env == kernelsim.EnvXen {
				continue
			}
			b.Run(k.String()+"/"+env.String(), func(b *testing.B) {
				p, err := kernelsim.BuildPV(k, env)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				reportCycles(b, func() (float64, error) {
					res, err := p.Measure(benchOpts())
					return res.Mean, err
				})
			})
		}
	}
}

// --- E4: Figure 5 ---

func BenchmarkFig5Musl(b *testing.B) {
	for _, build := range []muslsim.Build{muslsim.Plain, muslsim.Multiverse} {
		for _, multi := range []bool{false, true} {
			mode := "single"
			if multi {
				mode = "multi"
			}
			for _, f := range muslsim.Funcs() {
				b.Run(build.String()+"/"+mode+"/"+f.String(), func(b *testing.B) {
					m, err := muslsim.BuildMusl(build)
					if err != nil {
						b.Fatal(err)
					}
					if err := m.SetThreads(multi); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					reportCycles(b, func() (float64, error) {
						res, err := m.Measure(f, 20, 100)
						return res.Mean, err
					})
				})
			}
		}
	}
}

// --- Host-side interpreter throughput ---

// BenchmarkInterpreterThroughput measures how many simulated
// instructions per host second the interpreter retires on a hot loop:
// Run on the superblock threaded-dispatch layer ("superblocks"), and a
// loop of single Steps served by the always-on decode cache ("step",
// the path Run takes with a fault injector attached). Unlike the
// experiment benchmarks above, the ns/op column here IS the result:
// superblocks may not change any simulated cycle (see
// internal/difftest), only the host-side insts/sec metric. The
// acceptance bar is superblocks ≥2x over "step".
func BenchmarkInterpreterThroughput(b *testing.B) {
	const textBase, iters = uint64(0x400000), int32(10_000)
	program := func() []byte {
		var a isa.Asm
		a.Movi(1, 0)
		loop := a.Len()
		a.AluI(isa.ADDI, 1, 1)
		a.AluI(isa.XORI, 2, 5)
		a.Alu(isa.ADD, 3, 2)
		a.CmpI(1, iters)
		jccAt := a.Len()
		a.Jcc(isa.LT, int32(loop-(jccAt+6)))
		a.Hlt()
		return a.Bytes()
	}()
	// The tracer axis bounds the observability tax: a tracer rides
	// Run's superblocks, so "traced" (events only) and "profiled"
	// (Step/Call/Ret feeding the cycle profiler) compare against
	// "superblocks". The nil-tracer run must stay within a few percent
	// of the pre-tracing interpreter — each hook is one pointer-nil
	// check per block.
	modes := []struct {
		name    string
		step    bool
		collect func() *trace.Collector // nil = no tracer
	}{
		{"superblocks", false, nil},
		{"step", true, nil},
		{"traced", false, func() *trace.Collector {
			return trace.NewCollector(trace.Options{})
		}},
		{"profiled", false, func() *trace.Collector {
			return trace.NewCollector(trace.Options{Profile: true})
		}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			m := mem.New()
			if err := m.Map(textBase, mem.PageSize, mem.RWX); err != nil {
				b.Fatal(err)
			}
			if err := m.Write(textBase, program); err != nil {
				b.Fatal(err)
			}
			c := cpu.New(m, cpu.DefaultConfig())
			if mode.collect != nil {
				col := mode.collect()
				col.SetSymbols(trace.NewSymTable([]trace.Sym{
					{Name: "hotloop", Addr: textBase, Size: uint64(len(program))},
				}))
				c.SetTracer(col.NewStream("cpu0", c.Cycles))
			}
			measureInsts(b, c, textBase, 0, mode.step)
		})
	}
}

// BenchmarkInterpreterDataPath is the throughput benchmark's loop over
// the guest data path instead of the ALU: each iteration loads and
// stores 8- and 4-byte words on a data page and calls a function that
// updates another word, its CALL and RET pushing and popping the
// return address on the stack page. insts/sec thus includes the mem
// layer's page lookups and scalar accesses.
func BenchmarkInterpreterDataPath(b *testing.B) {
	const textBase, dataBase, stackBase = uint64(0x400000), uint64(0x600000), uint64(0x7F0000)
	const iters = int32(10_000)
	var entry uint64
	program := func() []byte {
		var a isa.Asm
		fn := a.Len()
		a.Ld(5, 4, 8, 16)
		a.Alu(isa.ADD, 5, 2)
		a.St(4, 5, 8, 16)
		a.Ret()
		entry = textBase + uint64(a.Len())
		a.Movi(1, 0)
		a.Movi(4, int64(dataBase))
		loop := a.Len()
		a.Ld(2, 4, 8, 0)
		a.AluI(isa.ADDI, 2, 1)
		a.St(4, 2, 8, 0)
		a.Ld(3, 4, 4, 8)
		a.St(4, 3, 4, 12)
		callAt := a.Len()
		a.Call(int32(fn - (callAt + isa.CallSiteLen)))
		a.AluI(isa.ADDI, 1, 1)
		a.CmpI(1, iters)
		jccAt := a.Len()
		a.Jcc(isa.LT, int32(loop-(jccAt+6)))
		a.Hlt()
		return a.Bytes()
	}()
	for _, mode := range []struct {
		name string
		step bool
	}{{"superblocks", false}, {"step", true}} {
		b.Run(mode.name, func(b *testing.B) {
			m := mem.New()
			for _, r := range []struct {
				addr uint64
				prot mem.Prot
			}{{textBase, mem.RX}, {dataBase, mem.RW}, {stackBase, mem.RW}} {
				if err := m.Map(r.addr, mem.PageSize, r.prot); err != nil {
					b.Fatal(err)
				}
			}
			if err := m.WriteForce(textBase, program); err != nil {
				b.Fatal(err)
			}
			c := cpu.New(m, cpu.DefaultConfig())
			measureInsts(b, c, entry, stackBase+mem.PageSize, mode.step)
		})
	}
}

// measureInsts runs the program at entry to its HLT once per b.N
// iteration, with SP reset to sp, and reports the simulated
// instructions retired per host second. With step set it drives the
// CPU by single Steps instead of Run.
func measureInsts(b *testing.B, c *cpu.CPU, entry, sp uint64, step bool) {
	b.Helper()
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SetPC(entry) // also clears the halted state
		c.SetReg(isa.SP, sp)
		if step {
			for !c.Halted() {
				if err := c.Step(); err != nil {
					b.Fatal(err)
				}
				insts++
			}
			continue
		}
		n, err := c.Run(10_000_000)
		if err != nil {
			b.Fatal(err)
		}
		insts += n
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/sec")
}

// snapshotSrc is a request server shaped like a fleet machine's guest:
// a multiverse switch, a multiversed handler and per-tenant state.
// machine.New maps its few image pages and the 64-page stack.
const snapshotSrc = `
	multiverse int mode;
	ulong requests;
	ulong tenant_state[16];
	multiverse ulong serve(ulong v) {
		if (mode) { v = v ^ (v >> 13); }
		tenant_state[v & 15] = tenant_state[v & 15] + v;
		requests = requests + 1;
		return v;
	}
	ulong serve_batch(ulong n, ulong seed) {
		ulong x = seed;
		ulong i;
		for (i = 0; i < n; i++) {
			x = x * 6364136223846793005 + 1442695040888963407;
			serve(x);
		}
		return requests;
	}
`

// BenchmarkSnapshot measures the snapshot layer on a fleet-shaped
// machine that has committed and served requests: capture into a
// fresh sealed container; capture into the previous container, as a
// fleet checkpoint does; restore (Decode, a fresh machine.New and
// NewRuntime, Apply); and the container's digest. MB/s is container
// bytes per second.
func BenchmarkSnapshot(b *testing.B) {
	img, _, err := core.BuildImage(core.GenOptions{}, core.Source{Name: "server.mvc", Text: snapshotSrc})
	if err != nil {
		b.Fatal(err)
	}
	boot := func() (*machine.Machine, *core.Runtime) {
		m, err := machine.New(img)
		if err != nil {
			b.Fatal(err)
		}
		rt, err := core.NewRuntime(img, &core.UserPlatform{M: m})
		if err != nil {
			b.Fatal(err)
		}
		return m, rt
	}
	m, rt := boot()
	if err := m.WriteGlobal("mode", 4, 1); err != nil {
		b.Fatal(err)
	}
	if _, err := rt.Commit(); err != nil {
		b.Fatal(err)
	}
	if _, err := m.CallNamed("serve_batch", 64, 1); err != nil {
		b.Fatal(err)
	}
	data, err := snapshot.Capture(nil, m, rt)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("capture", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if data, err = snapshot.Capture(nil, m, rt); err != nil {
				b.Fatal(err)
			}
		}
	})
	into, err := snapshot.Capture(nil, m, rt)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("capture_into", func(b *testing.B) {
		b.SetBytes(int64(len(into)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if into, err = snapshot.Capture(into, m, rt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap, err := snapshot.Decode(data)
			if err != nil {
				b.Fatal(err)
			}
			fresh, freshRT := boot()
			if err := snapshot.Apply(snap, fresh, freshRT); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("digest", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := snapshot.Digest(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBoot measures booting one fleet machine: machine.New loads
// the fleet guest's image and maps its stack, then core.NewRuntime
// binds the runtime to it. Every fleet restart and migration boots a
// fresh machine this way before it applies a snapshot.
func BenchmarkBoot(b *testing.B) {
	img, _, err := core.BuildImage(core.GenOptions{}, core.Source{Name: "fleet.mvc", Text: fleet.GuestSource})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("boot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := machine.New(img)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.NewRuntime(img, &core.UserPlatform{M: m}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFleet measures one supervised fleet per op, built and run
// to the end with a fixed seed, in the shape of an op of mvperf's
// fleet workload: 8 machines over 24 rounds on min(2, NumCPU) shards,
// with chaos kills and two fault points per machine ("chaos").
// requests/op is the requests the fleet served.
func BenchmarkFleet(b *testing.B) {
	cfg := fleet.Config{
		Seed:        1,
		Shards:      min(2, runtime.NumCPU()),
		Machines:    8,
		Rounds:      24,
		Chaos:       true,
		FaultPoints: 2,
	}
	b.Run("chaos", func(b *testing.B) {
		b.ReportAllocs()
		var served uint64
		for i := 0; i < b.N; i++ {
			fl, err := fleet.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := fl.Run()
			if err != nil {
				b.Fatal(err)
			}
			if res.Served != res.Scheduled || res.Failed != 0 {
				b.Fatalf("served %d of %d requests; %d machines failed", res.Served, res.Scheduled, res.Failed)
			}
			served = res.Served
		}
		b.ReportMetric(float64(served), "requests/op")
	})
}

// --- E5: grep end-to-end ---

func BenchmarkGrep(b *testing.B) {
	for _, build := range []grepsim.Build{grepsim.Plain, grepsim.Multiverse} {
		b.Run(build.String(), func(b *testing.B) {
			g, err := grepsim.BuildGrep(build)
			if err != nil {
				b.Fatal(err)
			}
			if err := g.SetMode(false); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			reportCycles(b, func() (float64, error) {
				res, err := g.Measure(3)
				return res.Mean, err
			})
		})
	}
}

// --- E6: cPython allocation path ---

func BenchmarkCPythonGCAlloc(b *testing.B) {
	for _, build := range []pysim.Build{pysim.Plain, pysim.Multiverse} {
		b.Run(build.String(), func(b *testing.B) {
			p, err := pysim.BuildPython(build)
			if err != nil {
				b.Fatal(err)
			}
			if err := p.SetGCEnabled(false); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			reportCycles(b, func() (float64, error) {
				res, err := p.Measure(10, 100)
				return res.Mean, err
			})
		})
	}
}

// --- E7: mass call-site patching ---

// BenchmarkCommitManyCallsites times one commit of the E7 kernel in
// each commit mode (parked, stop, poke). Every iteration flips
// config_smp, so each commit rewrites all 1162 call sites. A guest call
// before timing leaves the CPU halted, as it is between the
// reconfigure workload's operations.
func BenchmarkCommitManyCallsites(b *testing.B) {
	for _, mode := range []core.CommitMode{core.ModeParked, core.ModeStopMachine, core.ModeTextPoke} {
		b.Run(mode.String(), func(b *testing.B) {
			sys, err := kernelsim.BuildManyCallSites(kernelsim.PaperCallSites)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sys.Machine.CallNamed("subsys_0"); err != nil {
				b.Fatal(err)
			}
			sys.RT.SetCommitOptions(core.CommitOptions{Mode: mode})
			smp := false
			b.ReportAllocs()
			b.ResetTimer()
			var sites int
			for i := 0; i < b.N; i++ {
				smp = !smp
				rep, err := kernelsim.TimeCommit(sys, smp)
				if err != nil {
					b.Fatal(err)
				}
				sites = rep.SitesTouched
			}
			b.ReportMetric(float64(sites), "sites/commit")
		})
	}
}

// BenchmarkICacheRefill times the guest sweep that follows a commit on
// the E7 kernel: each iteration flushes the whole text segment on every
// CPU, as a commit's flushes drop the lines it patched, then calls four
// subsys_* functions, which refill their icache lines and rebuild the
// superblocks ("superblocks") or, with a fault plan arming on every
// CPU a fetch fault that never fires, which holds them to single
// steps, the decode cache alone ("step"). fills/op
// counts the line fills per iteration; B/op and allocs/op are what
// those refills cost the host.
func BenchmarkICacheRefill(b *testing.B) {
	for _, mode := range []struct {
		name string
		step bool
	}{{"superblocks", false}, {"step", true}} {
		b.Run(mode.name, func(b *testing.B) {
			sys, err := kernelsim.BuildManyCallSites(kernelsim.PaperCallSites)
			if err != nil {
				b.Fatal(err)
			}
			m := sys.Machine
			var text link.Segment
			for _, seg := range m.Image.Segments {
				if seg.Prot&mem.Exec != 0 {
					text = seg
				}
			}
			if mode.step {
				var pts []faultinject.Point
				for i := range m.CPUs() {
					pts = append(pts, faultinject.Point{Kind: faultinject.KindFetchFault, CPU: i, Cycle: math.MaxUint64})
				}
				faultinject.Exact(pts...).Attach(m)
			}
			var fns []string
			for k := 0; k < 4; k++ {
				fns = append(fns, fmt.Sprintf("subsys_%d", k*131))
			}
			sweep := func() {
				m.FlushICacheAll(text.Addr, uint64(len(text.Data)))
				for _, fn := range fns {
					if _, err := m.CallNamed(fn); err != nil {
						b.Fatal(err)
					}
				}
			}
			sweep()
			fills := m.TotalStats().ICacheFills
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep()
			}
			b.StopTimer()
			if blocks := m.TotalStats().BlockInsts > 0; blocks == mode.step {
				b.Fatalf("instructions ran in blocks: %v", blocks)
			}
			b.ReportMetric(float64(m.TotalStats().ICacheFills-fills)/float64(b.N), "fills/op")
		})
	}
}

// variantsSource is a fixed unit in the shape of the largest units of
// mvperf's compile corpus: four multiversed functions over three
// switches of domain 4 (64 assignments each). Each function has a
// threshold guard per switch and then 40 statements that cycle through
// an equality test, a shift, a loop and arithmetic; 16 callers call
// them.
func variantsSource() core.Source {
	var b strings.Builder
	for k := 0; k < 3; k++ {
		fmt.Fprintf(&b, "multiverse(0, 1, 2, 3) int cfg%d;\n", k)
	}
	b.WriteString("long acc;\n")
	for f := 0; f < 4; f++ {
		fmt.Fprintf(&b, "multiverse long f%d(long x) {\n\tlong r = x;\n", f)
		for k := 0; k < 3; k++ {
			fmt.Fprintf(&b, "\tif (cfg%d > %d) { r = r * %d + %d; } else { r = r - %d; }\n",
				k, (k+f)%3, 11+k, 23+f, 37+k)
		}
		for j := 0; j < 40; j++ {
			switch j % 4 {
			case 0:
				fmt.Fprintf(&b, "\tif (cfg%d == %d) { r = r + %d; }\n", j%3, j%4, 10+j)
			case 1:
				fmt.Fprintf(&b, "\tr = r ^ (r >> %d);\n", 10+j%6)
			case 2:
				fmt.Fprintf(&b, "\tfor (long i%d = 0; i%d < %d; i%d++) { r = r + (i%d ^ %d); }\n",
					j, j, 2+j/2%2, j, j, 10+j)
			default:
				fmt.Fprintf(&b, "\tr = r * %d + %d;\n", 10+j, 50+j)
			}
		}
		b.WriteString("\treturn r;\n}\n")
	}
	for c := 0; c < 16; c++ {
		fmt.Fprintf(&b, "void s%d(void) { acc += f%d(%d); acc ^= f%d(%d); }\n", c, c%4, 10+c, (c+1)%4, 20+c)
	}
	return core.Source{Name: "variants", Text: b.String()}
}

// BenchmarkCompile measures the compile pipeline phase by phase on the
// E7 kernel's source (1161 call sites): parse; compile_unit (variant
// generation, optimization and codegen on a checked unit, re-parsed
// outside the timer since it rewrites the unit); link of the unit's
// object; and build_image, the whole pipeline with check. variants is
// compile_unit on variantsSource, whose 256 assignments the E7
// kernel's two single-switch functions cannot exercise. MB/s is source
// bytes per second.
func BenchmarkCompile(b *testing.B) {
	src := kernelsim.ManyCallSitesSource(kernelsim.PaperCallSites)
	checked := func(src core.Source) *cc.Unit {
		u, err := cc.Parse(src.Name, src.Text)
		if err != nil {
			b.Fatal(err)
		}
		if err := cc.Check(u); err != nil {
			b.Fatal(err)
		}
		return u
	}
	b.Run("parse", func(b *testing.B) {
		b.SetBytes(int64(len(src.Text)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cc.Parse(src.Name, src.Text); err != nil {
				b.Fatal(err)
			}
		}
	})
	compileUnit := func(src core.Source) func(*testing.B) {
		return func(b *testing.B) {
			b.SetBytes(int64(len(src.Text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				u := checked(src)
				b.StartTimer()
				if _, _, err := core.CompileUnit(u, core.GenOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("compile_unit", compileUnit(src))
	b.Run("link", func(b *testing.B) {
		o, _, err := core.CompileUnit(checked(src), core.GenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(src.Text)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := link.Link(o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("build_image", func(b *testing.B) {
		b.SetBytes(int64(len(src.Text)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.BuildImage(core.GenOptions{}, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("variants", compileUnit(variantsSource()))
}

// --- E8: BTB ablation ---

func BenchmarkAblationBTB(b *testing.B) {
	for _, bind := range []kernelsim.Fig1Binding{kernelsim.Fig1Dynamic, kernelsim.Fig1Multiverse} {
		for _, cold := range []bool{false, true} {
			name := bind.String() + "/warm"
			if cold {
				name = bind.String() + "/cold"
			}
			b.Run(name, func(b *testing.B) {
				sys, err := kernelsim.BuildFig1(bind, false)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				reportCycles(b, func() (float64, error) {
					if cold {
						res, err := sys.MeasureColdBTB(benchOpts())
						return res.Mean, err
					}
					res, err := sys.Measure(benchOpts())
					return res.Mean, err
				})
			})
		}
	}
}

// --- E9: mechanism ablation ---

func BenchmarkAblationMechanism(b *testing.B) {
	configs := []struct {
		name string
		mod  func(rt *core.Runtime)
	}{
		{"full", func(rt *core.Runtime) {}},
		{"no-inlining", func(rt *core.Runtime) { rt.DisableInlining = true }},
		{"prologue-only", func(rt *core.Runtime) { rt.PrologueOnly = true }},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			s, err := kernelsim.BuildSpin(kernelsim.SpinMultiverse)
			if err != nil {
				b.Fatal(err)
			}
			cfg.mod(s.Runtime())
			if err := s.SetSMP(false); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			reportCycles(b, func() (float64, error) {
				res, err := s.Measure(benchOpts())
				return res.Mean, err
			})
		})
	}
}

// --- E10: alternative() macros vs multiverse ---

func BenchmarkAlternativeVsMultiverse(b *testing.B) {
	for _, k := range []kernelsim.AltKernel{kernelsim.AltMacro, kernelsim.AltMultiverse} {
		for _, feature := range []bool{false, true} {
			name := k.String() + "/off"
			if feature {
				name = k.String() + "/on"
			}
			b.Run(name, func(b *testing.B) {
				a, err := kernelsim.BuildAlt(k, feature)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				reportCycles(b, func() (float64, error) {
					res, err := a.Measure(benchOpts())
					return res.Mean, err
				})
			})
		}
	}
}
