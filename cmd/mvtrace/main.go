// Command mvtrace pretty-prints flight-recorder dumps: the bounded
// event ring the always-on recorder snapshots when a commit aborts, the
// text auditor trips or a chaos property fails. It reads either a
// standalone dump (mvrun -flight, mvstress's <artifact>.flight.json) or
// an mvstress repro artifact with an embedded "flight" field.
//
//	mvtrace [-timeline] dump.json
//	mvtrace -snap state.snap
//
// With -snap the argument is a deterministic machine snapshot (mvrun
// -checkpoint / -flight-snap, mvstress artifacts) and mvtrace prints
// its header — cycle, image hash, CPU/page/runtime inventory (how many
// pages carry bytes: only written ones do), each CPU's resident icache
// lines, marking stale every line older than its page — and the
// canonical digest two byte-identical machine states share.
//
// The default view is a flat table — one row per event with its cycle,
// causality span, kind and decoded payload. With -timeline events are
// grouped by commit-causality span and each span is rendered as a
// phase timeline (stop-machine, herd, poke, rollback) with per-phase
// latencies and proportional bars, so the shape of a failing commit —
// rendezvous, then poke phases, then rollback — reads at a glance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/mem"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

var (
	timeline = flag.Bool("timeline", false, "group events by causality span and render per-span phase timelines")
	snapView = flag.Bool("snap", false, "the argument is a machine snapshot (.snap): print its header and digest")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mvtrace [-timeline] dump.json\n       mvtrace -snap state.snap\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *snapView {
		if err := renderSnap(os.Stdout, flag.Arg(0)); err != nil {
			fmt.Fprintf(os.Stderr, "mvtrace: %v\n", err)
			os.Exit(1)
		}
		return
	}
	d, err := readDump(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mvtrace: %v\n", err)
		os.Exit(1)
	}
	if err := render(os.Stdout, d, *timeline); err != nil {
		fmt.Fprintf(os.Stderr, "mvtrace: %v\n", err)
		os.Exit(1)
	}
}

// renderSnap prints a machine snapshot's header and canonical digest —
// the quick "what state is this, and is it the same state as that one"
// view (two snapshots of the same simulated machine state print the
// same digest, byte for byte). A resident icache line whose version
// differs from its page's is stale: its CPU still executes the bytes
// the page held before a write no flush followed, which is what a
// dropped shootdown leaves in a -flight-snap failure snapshot.
func renderSnap(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	digest, err := snapshot.Digest(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	s, err := snapshot.Decode(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "snapshot: %s\n", path)
	fmt.Fprintf(w, "  digest   %s\n", digest)
	if len(s.CPUs) > 0 {
		fmt.Fprintf(w, "  cycle    %d\n", s.CPUs[0].Cycles)
	}
	fmt.Fprintf(w, "  image    %x\n", s.ImageSum)
	written := 0
	versions := make(map[uint64]uint64, len(s.Pages))
	for _, p := range s.Pages {
		if p.Version != 0 {
			written++
		}
		versions[p.PN] = p.Version
	}
	fmt.Fprintf(w, "  pages    %d (%d written, %d KiB carried; the rest never written), console %d bytes\n",
		len(s.Pages), written, written*mem.PageSize/1024, len(s.Console))
	for i, c := range s.CPUs {
		state := "running"
		if c.Halted {
			state = "halted"
		}
		fmt.Fprintf(w, "  cpu%-4d  pc=%#x cycles=%d %s\n", i, c.PC, c.Cycles, state)
		for _, l := range c.ICache {
			fmt.Fprintf(w, "           line %#x version %d", l.PN<<mem.PageShift, l.Version)
			if v, mapped := versions[l.PN]; !mapped {
				fmt.Fprint(w, "  stale: page unmapped")
			} else if v != l.Version {
				fmt.Fprintf(w, "  stale: page at version %d", v)
			}
			fmt.Fprintln(w)
		}
	}
	if s.Runtime == nil {
		fmt.Fprintf(w, "  runtime  none (machine-only snapshot)\n")
		return nil
	}
	committed := 0
	for _, f := range s.Runtime.Funcs {
		if f.CommittedAddr != 0 {
			committed++
		}
	}
	fmt.Fprintf(w, "  runtime  %d function(s) (%d bound), %d fn-ptr(s), %d deferred op(s), op-seq %d\n",
		len(s.Runtime.Funcs), committed, len(s.Runtime.FnPtrs), len(s.Runtime.Deferred), s.Runtime.OpSeq)
	return nil
}

// readDump loads a flight dump from path: either a bare FlightDump or
// an mvstress repro artifact whose "flight" field embeds one.
func readDump(path string) (*trace.FlightDump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var wrapped struct {
		Flight *trace.FlightDump `json:"flight"`
	}
	if err := json.Unmarshal(data, &wrapped); err == nil && wrapped.Flight != nil {
		return wrapped.Flight, nil
	}
	var d trace.FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: not a flight dump: %v", path, err)
	}
	if d.Events == nil && d.Reason == "" {
		return nil, fmt.Errorf("%s: not a flight dump (no reason, no events)", path)
	}
	return &d, nil
}

// render writes the dump to w in the selected view.
func render(w io.Writer, d *trace.FlightDump, timeline bool) error {
	fmt.Fprintf(w, "flight dump: reason=%q cycle=%d events=%d", d.Reason, d.Cycle, len(d.Events))
	if d.Dropped > 0 {
		fmt.Fprintf(w, " (ring overwrote %d older events)", d.Dropped)
	}
	fmt.Fprintln(w)
	evs, err := decodeEvents(d)
	if err != nil {
		return err
	}
	if timeline {
		return renderTimeline(w, evs)
	}
	return renderTable(w, evs)
}

func decodeEvents(d *trace.FlightDump) ([]trace.Event, error) {
	evs := make([]trace.Event, len(d.Events))
	for i, fe := range d.Events {
		ev, err := fe.Event()
		if err != nil {
			return nil, err
		}
		evs[i] = ev
	}
	return evs, nil
}

func renderTable(w io.Writer, evs []trace.Event) error {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "CYCLE\tSPAN\tKIND\tADDR\tDETAIL")
	for _, ev := range evs {
		span, addr := "-", "-"
		if ev.Span != 0 {
			span = strconv.FormatUint(ev.Span, 10)
		}
		if ev.Addr != 0 {
			addr = fmt.Sprintf("%#x", ev.Addr)
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\n",
			ev.Cycle, span, ev.Kind.Name(), addr, trace.EventDetail(ev))
	}
	return tw.Flush()
}

// spanGroup is one causality span's events, in dump order.
type spanGroup struct {
	span uint64
	evs  []trace.Event
}

// groupSpans splits events by span, preserving first-appearance order.
// Unspanned events (span 0) form a trailing group.
func groupSpans(evs []trace.Event) []*spanGroup {
	var groups []*spanGroup
	index := map[uint64]*spanGroup{}
	var loose *spanGroup
	for _, ev := range evs {
		if ev.Span == 0 {
			if loose == nil {
				loose = &spanGroup{}
			}
			loose.evs = append(loose.evs, ev)
			continue
		}
		g := index[ev.Span]
		if g == nil {
			g = &spanGroup{span: ev.Span}
			index[ev.Span] = g
			groups = append(groups, g)
		}
		g.evs = append(g.evs, ev)
	}
	if loose != nil {
		groups = append(groups, loose)
	}
	return groups
}

// spanLabel summarizes what operation a span's events trace.
func spanLabel(evs []trace.Event) string {
	op, outcome := "", ""
	for _, ev := range evs {
		switch ev.Kind {
		case trace.KindCommitBegin:
			if op == "" {
				op = "commit"
			}
		case trace.KindRevertBegin:
			if op == "" {
				op = "revert"
			}
		case trace.KindDrainBegin:
			if op == "" {
				op = "drain"
			}
		case trace.KindCommitAbort:
			outcome = "aborted"
		case trace.KindCommitEnd, trace.KindRevertEnd:
			if outcome == "" {
				outcome = "ok"
			}
		}
	}
	switch {
	case op == "" && outcome == "":
		return ""
	case outcome == "":
		return op
	case op == "":
		return outcome
	}
	return op + " " + outcome
}

const barWidth = 32

// bar renders a proportional [start,end] bar against [first,last].
func bar(first, last, start, end uint64) string {
	if last <= first {
		return ""
	}
	total := last - first
	lo := int(uint64(barWidth) * (start - first) / total)
	hi := int(uint64(barWidth) * (end - first) / total)
	if hi <= lo {
		hi = lo + 1
	}
	if hi > barWidth {
		hi = barWidth
	}
	return "|" + strings.Repeat(" ", lo) + strings.Repeat("=", hi-lo) +
		strings.Repeat(" ", barWidth-hi) + "|"
}

func renderTimeline(w io.Writer, evs []trace.Event) error {
	for _, g := range groupSpans(evs) {
		first := g.evs[0].Cycle
		last := g.evs[len(g.evs)-1].Cycle
		if g.span == 0 {
			fmt.Fprintf(w, "\nunspanned: %d event(s)\n", len(g.evs))
		} else {
			header := fmt.Sprintf("span %d", g.span)
			if label := spanLabel(g.evs); label != "" {
				header += " (" + label + ")"
			}
			fmt.Fprintf(w, "\n%s: cycles %d..%d (%d cycles, %d events)\n",
				header, first, last, last-first, len(g.evs))
		}
		tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
		// Phase pairs collapse to one line at the PhaseEnd, annotated
		// with the latency since the matching PhaseBegin.
		open := map[string]uint64{}
		for _, ev := range g.evs {
			switch ev.Kind {
			case trace.KindPhaseBegin:
				open[ev.Name] = ev.Cycle
				continue
			case trace.KindPhaseEnd:
				begin, ok := open[ev.Name]
				if !ok {
					begin = first
				}
				delete(open, ev.Name)
				fmt.Fprintf(tw, "  +%d\tphase %s\t%d cycles\t%s\n",
					begin-first, ev.Name, ev.Cycle-begin, bar(first, last, begin, ev.Cycle))
				continue
			}
			fmt.Fprintf(tw, "  +%d\t%s\t%s\t%s\n",
				ev.Cycle-first, ev.Kind.Name(), trace.EventDetail(ev), bar(first, last, ev.Cycle, ev.Cycle))
		}
		// A phase left open means the failure struck mid-phase — worth
		// calling out rather than silently dropping.
		for name, begin := range open {
			fmt.Fprintf(tw, "  +%d\tphase %s\tunfinished\t%s\n",
				begin-first, name, bar(first, last, begin, last))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
