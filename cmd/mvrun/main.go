// Command mvrun loads a linked image into the simulated machine,
// optionally commits the multiverse configuration, calls a function,
// and reports the result, the console output and the cycle count.
//
//	mvrun [-entry main] [-args a,b,...] [-set var=value]... [-commit] [-audit] [-wx] \
//	      [-trace out.json] [-profile out.folded] [-flight out.json] [-flight-snap] \
//	      [-watchdog] [-watchdog-rules name=value,...] \
//	      [-checkpoint cycles|on-commit] [-checkpoint-out file.snap] [-restore file.snap] \
//	      [-metrics-addr :9090] [-sample out.jsonl] [-repeat n] image
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

type setFlags []string

func (s *setFlags) String() string     { return strings.Join(*s, ",") }
func (s *setFlags) Set(v string) error { *s = append(*s, v); return nil }

var (
	entry      = flag.String("entry", "main", "function to call")
	args       = flag.String("args", "", "comma-separated integer arguments")
	commit     = flag.Bool("commit", false, "run multiverse_commit() before calling")
	audit      = flag.Bool("audit", false, "run the text-image auditor before and after calling; fail on any violation")
	wx         = flag.Bool("wx", false, "enforce the strict W^X memory policy")
	itrace     = flag.Bool("itrace", false, "print every executed instruction")
	state      = flag.Bool("state", false, "print the multiverse binding state before running")
	traceLimit = flag.Int("trace-limit", 200, "stop instruction tracing after this many instructions")
	traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto)")
	profileOut = flag.String("profile", "", "write flamegraph-compatible folded stacks of simulated cycles")
	flightOut  = flag.String("flight", "",
		"write the flight-recorder dump (last commit-lifecycle/fault events) to this file; on failure it holds the failure-point dump (mvtrace renders it)")
	watchdog      = flag.Bool("watchdog", false, "arm the cycle-domain invariant watchdog; exit non-zero if any rule fires")
	watchdogRules = flag.String("watchdog-rules", "",
		"override watchdog thresholds, name=value,... (rules: rendezvous-latency, deferred-depth, flush-retry-storm, invalidation-storm); implies -watchdog")

	metricsAddr = flag.String("metrics-addr", "",
		"serve Prometheus text on /metrics and a JSON snapshot on /metrics.json at this address for the duration of the run")
	samplePath = flag.String("sample", "",
		"write periodic metric samples to this file (mvtop -file replays it)")
	sampleEvery = flag.Uint64("sample-every", 100000, "simulated cycles between samples")
	sampleFmt   = flag.String("sample-format", "jsonl", "sample file format: jsonl or csv")
	checkpoint  = flag.String("checkpoint", "",
		"capture a deterministic machine snapshot: a simulated-cycle count (pause the run there), or on-commit (right after -commit)")
	checkpointOut = flag.String("checkpoint-out", "", "snapshot output path (default <image>.snap)")
	restorePath   = flag.String("restore", "",
		"restore machine+runtime state from a snapshot and run the interrupted call to completion (excludes -set/-commit/-args/-repeat)")
	flightSnap = flag.Bool("flight-snap", false,
		"with -flight: also write a machine snapshot next to the flight dump when a failure is recorded (<flight>.snap)")

	repeat = flag.Int("repeat", 1, "call the entry function this many times")

	sets setFlags
)

func main() {
	flag.Var(&sets, "set", "set a global or configuration switch, var=value (repeatable)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mvrun [flags] image")
		os.Exit(2)
	}
	if err := run(flag.Arg(0)); err != nil {
		fmt.Fprintf(os.Stderr, "mvrun: %v\n", err)
		os.Exit(1)
	}
}

func run(path string) (err error) {
	// Validate the checkpoint/restore flag grammar before touching the
	// image, so misuse fails fast.
	ckptPath := *checkpointOut
	if ckptPath == "" {
		ckptPath = path + ".snap"
	}
	var ckptCycle uint64
	ckptOnCommit := false
	switch {
	case *checkpoint == "":
	case *checkpoint == "on-commit":
		ckptOnCommit = true
		if !*commit {
			return fmt.Errorf("-checkpoint on-commit needs -commit (nothing commits otherwise)")
		}
	default:
		n, perr := strconv.ParseUint(*checkpoint, 0, 64)
		if perr != nil || n == 0 {
			return fmt.Errorf("bad -checkpoint %q: want a positive cycle count or on-commit", *checkpoint)
		}
		ckptCycle = n
	}
	if *restorePath != "" {
		if len(sets) > 0 || *commit {
			return fmt.Errorf("-restore excludes -set and -commit: the snapshot already carries its committed configuration")
		}
		// -args/-repeat are checked after the snapshot is read: they
		// apply when it holds no call in flight (an on-commit
		// checkpoint), and conflict only with resuming a mid-call one.
	}
	if *flightSnap && *flightOut == "" {
		return fmt.Errorf("-flight-snap needs -flight (it rides the flight recorder's failure hook)")
	}

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	img, err := link.ReadImage(f)
	f.Close()
	if err != nil {
		return err
	}
	var mopts []machine.Option
	if *wx {
		mopts = append(mopts, machine.WithWX())
	}
	m, err := machine.New(img, mopts...)
	if err != nil {
		return err
	}
	rt, err := core.NewRuntime(img, &core.UserPlatform{M: m})
	if err != nil {
		return err
	}

	// saveSnapshot captures the whole machine+runtime state and writes
	// it to the checkpoint path. Capture requires quiescence in the
	// runtime (no open commit transaction), which holds everywhere this
	// is called: between block dispatches (RunUntil) or right after a
	// completed commit.
	saveSnapshot := func(label string) error {
		enc, serr := snapshot.Capture(nil, m, rt)
		if serr != nil {
			return fmt.Errorf("checkpoint: %w", serr)
		}
		digest, derr := snapshot.Digest(enc)
		if derr != nil {
			return derr
		}
		if werr := os.WriteFile(ckptPath, enc, 0o644); werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "mvrun: checkpoint (%s) cycle %d digest %s -> %s\n",
			label, m.CPU.Cycles(), digest, ckptPath)
		return nil
	}

	var obs core.Observers
	if *traceOut != "" || *profileOut != "" {
		obs.Trace = trace.NewCollector(trace.Options{Profile: *profileOut != ""})
	}

	if *flightOut != "" {
		rec := trace.NewRecorder(0)
		obs.Flight = rec
		if *flightSnap {
			// On failure, freeze the machine alongside the event ring:
			// the snapshot restores to the exact failure-point state, so
			// the dump can be debugged in mvdbg without a re-run. The
			// runtime reports failures only from a quiescent state (the
			// commit transaction is unwound before NoteFailure), so
			// capture is safe here.
			snapPath := *flightOut + ".snap"
			rec.OnFailure = func(reason string, d *trace.FlightDump) {
				enc, serr := snapshot.Capture(nil, m, rt)
				if serr == nil {
					serr = os.WriteFile(snapPath, enc, 0o644)
				}
				if serr != nil {
					fmt.Fprintf(os.Stderr, "mvrun: flight snapshot: %v\n", serr)
					return
				}
				fmt.Fprintf(os.Stderr, "mvrun: failure %q: machine snapshot -> %s\n", reason, snapPath)
			}
		}
		defer func() {
			// A failure that reached the recorder (commit abort, audit
			// violation) already produced the dump worth keeping; a clean
			// run dumps whatever the ring holds at exit.
			d := rec.LastDump()
			if d == nil || err == nil {
				reason := "end-of-run"
				if err != nil {
					reason = err.Error()
				}
				dd := rec.Dump(reason)
				d = &dd
			}
			if werr := writeFile(*flightOut, d.WriteJSON); werr != nil {
				if err == nil {
					err = werr
				}
				return
			}
			fmt.Fprintf(os.Stderr, "mvrun: flight dump (%d events, %q) -> %s\n",
				len(d.Events), d.Reason, *flightOut)
		}()
	}

	if *watchdog || *watchdogRules != "" {
		rules, rerr := trace.ParseWatchdogRules(*watchdogRules)
		if rerr != nil {
			return rerr
		}
		wd := trace.NewWatchdog(rules)
		obs.Watchdog = wd
		defer func() {
			if !wd.Fired() {
				return
			}
			for _, a := range wd.Alerts() {
				fmt.Fprintf(os.Stderr, "mvrun: watchdog: rule %s fired at cycle %d (value %d > threshold %d, span %d)\n",
					a.Rule, a.Cycle, a.Value, a.Threshold, a.Span)
			}
			if err == nil {
				err = fmt.Errorf("watchdog: %d invariant violation(s)", len(wd.Alerts()))
			}
		}()
	}

	if *metricsAddr != "" || *samplePath != "" {
		obs.Metrics = metrics.New()
	}
	obs.Attach(m, rt)
	reg := obs.Metrics
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ln.Close()
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := reg.WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := reg.WriteJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		go http.Serve(ln, mux) //nolint:errcheck // shut down by ln.Close on return
		fmt.Fprintf(os.Stderr, "mvrun: serving metrics on http://%s/metrics (until the run ends)\n", ln.Addr())
	}

	var samp *metrics.Sampler
	if *samplePath != "" {
		format, err := metrics.ParseSampleFormat(*sampleFmt)
		if err != nil {
			return err
		}
		f, err := os.Create(*samplePath)
		if err != nil {
			return err
		}
		defer f.Close()
		samp = metrics.NewSampler(reg, f, *sampleEvery, format)
	}

	// Restore replaces memory, CPUs and runtime bindings wholesale, so
	// it happens after every attachment (which only touches host wiring)
	// and instead of -set/-commit (excluded above: the snapshot already
	// embodies the committed configuration).
	var restored *snapshot.Snapshot
	if *restorePath != "" {
		data, rerr := os.ReadFile(*restorePath)
		if rerr != nil {
			return rerr
		}
		snap, derr := snapshot.Decode(data)
		if derr != nil {
			return fmt.Errorf("%s: %w", *restorePath, derr)
		}
		if aerr := snapshot.Apply(snap, m, rt); aerr != nil {
			return fmt.Errorf("restore %s: %w", *restorePath, aerr)
		}
		digest, derr := snapshot.Digest(data)
		if derr != nil {
			return derr
		}
		fmt.Fprintf(os.Stderr, "mvrun: restored %s: cycle %d, %d CPU(s), digest %s\n",
			*restorePath, m.CPU.Cycles(), len(snap.CPUs), digest)
		if reg != nil {
			// The cycle counter resumes at the checkpoint, not 0; stamp
			// the base so samplers and mvtop label the first window's
			// rates against the cycles this run actually executed.
			reg.SetBaseCycle(m.CPU.Cycles())
		}
		restored = snap
	}

	for _, s := range sets {
		name, valStr, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("bad -set %q, want var=value", s)
		}
		val, err := strconv.ParseInt(valStr, 0, 64)
		if err != nil {
			return err
		}
		sym, ok := img.Symbols[name]
		if !ok {
			return fmt.Errorf("no symbol %q", name)
		}
		size := 8
		if sym.Size > 0 && sym.Size < 8 {
			size = int(sym.Size)
		}
		if err := m.Mem.WriteUint(sym.Addr, size, uint64(val)); err != nil {
			return err
		}
	}
	if *commit {
		res, err := rt.Commit()
		if err != nil {
			return err
		}
		fmt.Printf("commit: %d bound, %d generic\n", res.Committed, res.Generic)
		if ckptOnCommit {
			if err := saveSnapshot("on-commit"); err != nil {
				return err
			}
		}
	}
	if *audit {
		if err := rt.Audit(); err != nil {
			return fmt.Errorf("audit (pre-run): %w", err)
		}
		fmt.Println("audit: ok")
	}

	// Instruction tracing and the metric sampler are tracers that
	// observe only Step; they tee onto whatever -trace/-profile
	// attached. Like every tracer they ride the superblocks, so they
	// move neither the run nor a checkpoint.
	var steps []trace.Tracer
	if *itrace {
		printed := 0
		steps = append(steps, trace.StepFunc(func(pc, cycles uint64, in *isa.Inst) {
			if printed >= *traceLimit {
				if printed == *traceLimit {
					fmt.Println("  ... trace limit reached")
					printed++
				}
				return
			}
			printed++
			if name, ok := img.SymbolAt(pc); ok {
				if sym, found := img.Symbols[name]; found && sym.Addr == pc {
					fmt.Printf("%s:\n", name)
				}
			}
			fmt.Printf("  %#08x: %s\n", pc, in.Format(pc))
		}))
	}
	if samp != nil {
		steps = append(steps, trace.StepFunc(func(pc, cycles uint64, in *isa.Inst) { samp.Tick(cycles) }))
	}
	m.CPU.SetTracer(trace.NewTee(append(steps, m.CPU.Tracer())...))

	if *state {
		fmt.Print(rt.StateReport())
	}

	var callArgs []uint64
	if *args != "" {
		for _, a := range strings.Split(*args, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(a), 0, 64)
			if err != nil {
				return err
			}
			callArgs = append(callArgs, v)
		}
	}
	if *repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1, got %d", *repeat)
	}

	// runToHalt drives the boot CPU to the halt stub, pausing once at
	// the checkpoint cycle (if one was requested and lies ahead) to
	// capture a snapshot. RunUntil only pauses between block dispatches,
	// so the capture point is always an instruction boundary and the
	// paused run retires bit-identical cycles and statistics.
	runToHalt := func() error {
		c := m.CPU
		if ckptCycle > 0 {
			if c.Cycles() >= ckptCycle {
				fmt.Fprintf(os.Stderr, "mvrun: checkpoint skipped: already at cycle %d (>= %d)\n",
					c.Cycles(), ckptCycle)
			} else {
				if _, rerr := c.RunUntil(ckptCycle, m.MaxSteps); rerr != nil {
					return rerr
				}
				if c.Halted() {
					fmt.Fprintf(os.Stderr, "mvrun: checkpoint skipped: run halted at cycle %d before %d\n",
						c.Cycles(), ckptCycle)
				} else if serr := saveSnapshot(fmt.Sprintf("cycle %d", ckptCycle)); serr != nil {
					return serr
				}
			}
		}
		if !c.Halted() {
			if _, rerr := c.Run(m.MaxSteps); rerr != nil {
				return rerr
			}
		}
		return nil
	}

	start := m.CPU.Cycles()
	startInstr := m.CPU.Stats().Instructions // nonzero after a restore
	var ret uint64
	switch {
	case restored != nil && (m.CPU.PC() != 0 || m.CPU.Halted()):
		// The snapshot holds an interrupted call (pc mid-function, halt
		// stub on the stack); run it out. -checkpoint N still composes,
		// which is how the restore difftest re-checkpoints a restored
		// run and compares digests against an uninterrupted one.
		if *args != "" || *repeat != 1 {
			return fmt.Errorf("-restore resumes the interrupted call; -args and -repeat do not apply")
		}
		if m.CPU.Halted() {
			fmt.Fprintln(os.Stderr, "mvrun: snapshot was captured at a halt; nothing left to execute")
		} else if rerr := runToHalt(); rerr != nil {
			return rerr
		}
		ret = m.CPU.Reg(0)
		fmt.Printf("restored-run = %d (%#x)\n", int64(ret), ret)
	default:
		// Either a plain run, or a restore of a snapshot with no call
		// in flight (an on-commit checkpoint fires before the entry
		// call): start -entry normally against the restored state.
		if restored != nil {
			fmt.Fprintf(os.Stderr, "mvrun: snapshot holds no call in flight; calling %q against the restored state\n", *entry)
		}
		for i := 0; i < *repeat; i++ {
			if i == 0 && ckptCycle > 0 {
				// A cycle checkpoint lands mid-call, so drive the first
				// call by hand: start it, pause at the requested cycle,
				// capture, continue to the halt stub.
				if serr := m.StartCall(m.CPU, *entry, callArgs...); serr != nil {
					return serr
				}
				if rerr := runToHalt(); rerr != nil {
					return rerr
				}
				ret = m.CPU.Reg(0)
				continue
			}
			ret, err = m.CallNamed(*entry, callArgs...)
			if err != nil {
				return err
			}
		}
		fmt.Printf("%s(%s) = %d (%#x)\n", *entry, *args, int64(ret), ret)
		if *repeat > 1 {
			fmt.Printf("repeat: %d calls\n", *repeat)
		}
	}
	fmt.Printf("cycles: %d, instructions: %d\n",
		m.CPU.Cycles()-start, m.CPU.Stats().Instructions-startInstr)
	if *audit {
		if err := rt.Audit(); err != nil {
			return fmt.Errorf("audit (post-run): %w", err)
		}
	}
	if samp != nil {
		samp.Sample() // final row, so short runs always record something
		if err := samp.Err(); err != nil {
			return fmt.Errorf("sampler: %w", err)
		}
		fmt.Printf("samples: %d rows -> %s\n", samp.Rows(), *samplePath)
	}
	if out := m.Console(); len(out) > 0 {
		fmt.Printf("console: %q\n", out)
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, obs.Trace.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Printf("trace: %d events -> %s\n", len(obs.Trace.Events()), *traceOut)
		// Per-CPU drop accounting on stderr: a stream that overflowed
		// its ring buffer silently lost its oldest events, and the user
		// should know which CPU's view is truncated.
		for _, ss := range obs.Trace.StreamStats() {
			fmt.Fprintf(os.Stderr, "mvrun: trace stream %-8s %8d events, %d dropped\n",
				ss.Label, ss.Events, ss.Dropped)
			if ss.Dropped > 0 {
				fmt.Fprintf(os.Stderr, "mvrun: trace stream %s overflowed; oldest events were overwritten\n", ss.Label)
			}
		}
	}
	if *profileOut != "" {
		if err := writeFile(*profileOut, obs.Trace.WriteFolded); err != nil {
			return err
		}
		fmt.Printf("profile: %d stacks -> %s\n", len(obs.Trace.Profile().Folded), *profileOut)
	}
	return nil
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
