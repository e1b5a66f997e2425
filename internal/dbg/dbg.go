// Package dbg is the time-travel debugger engine behind cmd/mvdbg.
//
// A Session owns one simulated machine plus its multiverse runtime and
// exposes a deterministic timeline made of *moves*: cycle advances
// (run), host-driven runtime operations (set/commit/revert) and call
// starts. Because execution is bit-deterministic and pausing with
// cpu.RunUntil is invariant (the difftests pin both), going backwards
// needs no inverse interpreter: `back N` restores the nearest earlier
// keyframe snapshot and re-executes the logged moves forward to the
// target cycle, landing on a state whose snapshot digest is identical
// to the one forward execution produced the first time — including
// through commits that used the BRK text-poke protocol.
//
// Keyframes are full machine snapshots (internal/snapshot) captured
// every few moves, so rewind cost is bounded by the keyframe interval,
// not by distance from cycle zero.
//
// Rewinding keeps the future: after `back`, the moves ahead of the new
// position stay on the timeline and `run` replays them — the logged
// set/commit/revert operations fire at their recorded cycles — so
// going back and forward again reproduces the original states, digest
// for digest. Only issuing a *new* write operation (call, set, commit,
// revert) mid-timeline discards the stale future, exactly like an
// editor's undo history.
package dbg

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// keyframeEvery is the keyframe interval in moves: rewinding replays
// at most this many moves past the restored snapshot.
const keyframeEvery = 8

// breakChunk is the run granularity (in cycles) while breakpoints are
// armed: the run pauses at each chunk boundary to scan for newly
// recorded events. Pausing is cycle-invariant, so chunking never
// changes what the program computes — only where the debugger stops.
const breakChunk = 2048

// runToHalt is the recorded target of a bare `run`: drive the CPU to
// the halt stub rather than to a cycle threshold.
const runToHalt = ^uint64(0)

type moveKind uint8

const (
	moveCall moveKind = iota
	moveRun
	moveSet
	moveCommit
	moveRevert
)

// move is one timeline step. Replaying the same move sequence from
// the same snapshot reproduces the same machine state bit for bit —
// that is the whole time-travel mechanism.
type move struct {
	kind   moveKind
	target uint64   // moveRun: absolute cycle to run until (runToHalt: to the halt stub)
	name   string   // moveCall: entry symbol; moveSet: global
	value  uint64   // moveSet: value
	args   []uint64 // moveCall
	// failed records that the operation errored when first executed
	// (e.g. a commit refused because the function was active). The
	// abort itself mutates state (statistics, flight events), so the
	// move stays on the timeline and replay expects the same failure.
	failed bool
	// postCycle is the cycle counter after the move — the timeline
	// coordinate `back` searches.
	postCycle uint64
}

// Options configures a Session.
type Options struct {
	// Commit is the runtime's commit-mode policy (parked, stop-machine,
	// text-poke; refuse or defer on activeness). It is host wiring, not
	// machine state, so the session re-applies it after every restore.
	Commit core.CommitOptions
	// MaxSteps bounds each run move; 0 uses the machine default.
	MaxSteps uint64
	// Snapshot, when non-empty, is an encoded machine snapshot (a
	// mvrun checkpoint, a -flight-snap failure capture, or a chaos
	// <artifact>.snap pin) applied to the fresh system before the
	// timeline starts: position zero is the snapshot's state, so the
	// debugger opens directly at the captured point — typically the
	// failure — with no re-run. It must match the session's image.
	Snapshot []byte
}

// Session is one debugging timeline over one image.
type Session struct {
	img  *link.Image
	opts Options

	m  *machine.Machine
	rt *core.Runtime
	// rec is the always-on flight recorder: the spans view and the
	// break-event scans read it. It is rebuilt (empty) on every
	// restore, so its history covers the timeline since the last
	// rewind — the replayed moves repopulate it deterministically.
	rec *trace.Recorder
	wd  *trace.Watchdog

	// moves is the full timeline; pos is the current position in it.
	// pos < len(moves) after a rewind: the future is retained and a
	// subsequent Run *replays* it (set/commit/revert at their logged
	// places), landing on bit-identical states. Issuing a new write
	// operation mid-timeline truncates the stale future first.
	moves     []move
	pos       int
	keyframes map[int][]byte // encoded snapshots, keyed by move position
	breaks    map[string]bool

	initialCycle uint64
	seenEvents   uint64 // recorder events already scanned for breaks
	seenAlerts   int    // watchdog alerts already scanned
}

// New builds a session: a fresh machine and runtime for the image and
// the position-zero keyframe.
func New(img *link.Image, opts Options) (*Session, error) {
	s := &Session{
		img:       img,
		opts:      opts,
		keyframes: make(map[int][]byte),
		breaks:    make(map[string]bool),
	}
	if err := s.freshSystem(); err != nil {
		return nil, err
	}
	if len(opts.Snapshot) != 0 {
		snap, err := snapshot.Decode(opts.Snapshot)
		if err != nil {
			return nil, fmt.Errorf("dbg: snapshot: %w", err)
		}
		if err := snapshot.Apply(snap, s.m, s.rt); err != nil {
			return nil, fmt.Errorf("dbg: snapshot: %w", err)
		}
	}
	s.initialCycle = s.m.CPU.Cycles()
	if err := s.keyframe(0); err != nil {
		return nil, err
	}
	return s, nil
}

// freshSystem replaces the session's machine/runtime pair with a
// pristine one and re-attaches the observability wiring.
func (s *Session) freshSystem() error {
	m, err := machine.New(s.img)
	if err != nil {
		return err
	}
	rt, err := core.NewRuntime(s.img, &core.UserPlatform{M: m})
	if err != nil {
		return err
	}
	rt.SetCommitOptions(s.opts.Commit)
	rules, err := trace.ParseWatchdogRules("")
	if err != nil {
		return err
	}
	rec, wd := trace.NewRecorder(0), trace.NewWatchdog(rules)
	core.Observers{Flight: rec, Watchdog: wd}.Attach(m, rt)
	if s.opts.MaxSteps != 0 {
		m.MaxSteps = s.opts.MaxSteps
	}
	s.m, s.rt, s.rec, s.wd = m, rt, rec, wd
	s.seenEvents, s.seenAlerts = 0, 0
	return nil
}

// Machine exposes the live machine (tests inspect it).
func (s *Session) Machine() *machine.Machine { return s.m }

// Runtime exposes the live runtime (tests inspect it).
func (s *Session) Runtime() *core.Runtime { return s.rt }

// Cycles returns the current timeline position in simulated cycles.
func (s *Session) Cycles() uint64 { return s.m.CPU.Cycles() }

// Digest captures the current machine+runtime state and returns its
// canonical snapshot digest.
func (s *Session) Digest() (string, error) {
	snap, err := snapshot.Capture(nil, s.m, s.rt)
	if err != nil {
		return "", err
	}
	return snapshot.Digest(snap)
}

func (s *Session) keyframe(pos int) error {
	snap, err := snapshot.Capture(nil, s.m, s.rt)
	if err != nil {
		return fmt.Errorf("keyframe: %w", err)
	}
	s.keyframes[pos] = snap
	return nil
}

// stateCycle returns the cycle counter at move boundary i.
func (s *Session) stateCycle(i int) uint64 {
	if i == 0 {
		return s.initialCycle
	}
	return s.moves[i-1].postCycle
}

// record appends an executed move at the current (end) position and
// drops a keyframe on interval boundaries.
func (s *Session) record(mv move) error {
	mv.postCycle = s.m.CPU.Cycles()
	s.moves = append(s.moves, mv)
	s.pos = len(s.moves)
	if len(s.moves)%keyframeEvery == 0 {
		return s.keyframe(len(s.moves))
	}
	return nil
}

// truncate discards the retained future before a new write operation
// diverges the timeline. If the session sits mid-way through a run
// move (a rewind landed inside it), the already re-executed part is
// first logged as its own run move so later rewinds can replay it.
func (s *Session) truncate() error {
	if s.pos < len(s.moves) {
		s.moves = s.moves[:s.pos]
		for k := range s.keyframes {
			if k > s.pos {
				delete(s.keyframes, k)
			}
		}
	}
	if c := s.m.CPU.Cycles(); c > s.stateCycle(s.pos) {
		return s.record(move{kind: moveRun, target: c})
	}
	return nil
}

// apply re-executes a logged move during replay. Moves recorded as
// failed must fail again; everything else must succeed — a mismatch
// means determinism broke, which is a bug worth a loud error.
func (s *Session) apply(mv *move) error {
	var err error
	switch mv.kind {
	case moveCall:
		err = s.m.StartCall(s.m.CPU, mv.name, mv.args...)
	case moveRun:
		c := s.m.CPU
		switch {
		case c.Halted():
		case mv.target == runToHalt:
			_, err = c.Run(s.m.MaxSteps)
		case c.Cycles() < mv.target:
			_, err = c.RunUntil(mv.target, s.m.MaxSteps)
		}
	case moveSet:
		err = s.writeGlobal(mv.name, mv.value)
	case moveCommit:
		_, err = s.rt.Commit()
	case moveRevert:
		err = s.rt.Revert()
	}
	if mv.failed {
		if err == nil {
			return fmt.Errorf("replay diverged: %s succeeded but originally failed", mv.describe())
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("replay diverged: %s: %w", mv.describe(), err)
	}
	return nil
}

func (mv *move) describe() string {
	switch mv.kind {
	case moveCall:
		return fmt.Sprintf("call %s", mv.name)
	case moveRun:
		if mv.target == runToHalt {
			return "run (to halt)"
		}
		return fmt.Sprintf("run until cycle %d", mv.target)
	case moveSet:
		return fmt.Sprintf("set %s=%d", mv.name, mv.value)
	case moveCommit:
		return "commit"
	case moveRevert:
		return "revert"
	}
	return "?"
}

func (s *Session) writeGlobal(name string, v uint64) error {
	sym, ok := s.img.Symbols[name]
	if !ok {
		return fmt.Errorf("no symbol %q", name)
	}
	size := 8
	if sym.Size > 0 && sym.Size < 8 {
		size = int(sym.Size)
	}
	return s.m.Mem.WriteUint(sym.Addr, size, v)
}

// seekTo rewinds the timeline to move position p: restore the nearest
// keyframe at or before p and replay the logged moves up to p. The
// future (moves p and beyond) is retained — a subsequent Run replays
// it rather than re-recording, so forward motion after a rewind lands
// on bit-identical states.
func (s *Session) seekTo(p int) error {
	best := 0
	for k := range s.keyframes {
		if k <= p && k > best {
			best = k
		}
	}
	snap, err := snapshot.Decode(s.keyframes[best])
	if err != nil {
		return fmt.Errorf("keyframe %d: %w", best, err)
	}
	if err := s.freshSystem(); err != nil {
		return err
	}
	if err := snapshot.Apply(snap, s.m, s.rt); err != nil {
		return fmt.Errorf("keyframe %d: %w", best, err)
	}
	for i := best; i < p; i++ {
		if err := s.apply(&s.moves[i]); err != nil {
			return err
		}
	}
	s.pos = p
	s.syncEventCursor()
	return nil
}

// syncEventCursor marks every currently recorded event and alert as
// seen, so break scans only trip on events newer than this point.
func (s *Session) syncEventCursor() {
	d := s.rec.Dump("dbg-cursor")
	s.seenEvents = d.Dropped + uint64(len(d.Events))
	s.seenAlerts = len(s.wd.Alerts())
}

// scanBreaks reports the first armed break event recorded since the
// last scan ("" when none).
func (s *Session) scanBreaks() string {
	d := s.rec.Dump("dbg-break-scan")
	total := d.Dropped + uint64(len(d.Events))
	fresh := total - s.seenEvents
	s.seenEvents = total
	if fresh > uint64(len(d.Events)) {
		fresh = uint64(len(d.Events))
	}
	hit := ""
	for _, fe := range d.Events[uint64(len(d.Events))-fresh:] {
		ev, err := fe.Event()
		if err != nil {
			continue
		}
		switch ev.Kind {
		case trace.KindCommitBegin, trace.KindCommitEnd, trace.KindCommitAbort:
			if s.breaks["commit"] && hit == "" {
				hit = fmt.Sprintf("commit (%s at cycle %d, span %d)", ev.Kind.Name(), ev.Cycle, ev.Span)
			}
		case trace.KindTrap:
			if s.breaks["trap"] && hit == "" {
				hit = fmt.Sprintf("trap (BRK fetch at %#x, cycle %d)", ev.Addr, ev.Cycle)
			}
		}
	}
	if s.breaks["watchdog"] {
		alerts := s.wd.Alerts()
		if len(alerts) > s.seenAlerts && hit == "" {
			a := alerts[s.seenAlerts]
			hit = fmt.Sprintf("watchdog (rule %s at cycle %d, value %d > %d)",
				a.Rule, a.Cycle, a.Value, a.Threshold)
		}
		s.seenAlerts = len(alerts)
	}
	return hit
}

// Call starts entry(args) on the boot CPU: registers loaded, the halt
// stub pushed as the return address. It does not execute anything —
// follow with Run.
func (s *Session) Call(entry string, args ...uint64) error {
	if err := s.truncate(); err != nil {
		return err
	}
	if err := s.m.StartCall(s.m.CPU, entry, args...); err != nil {
		return err
	}
	return s.record(move{kind: moveCall, name: entry, args: args})
}

// Run advances up to n simulated cycles (to the halt stub if n is 0),
// stopping early at an armed break event. After a rewind the timeline
// still holds the original future, and Run first *replays* it — logged
// set/commit/revert moves fire at their recorded places — before any
// fresh execution is recorded; break scanning resumes once the replay
// is exhausted. It returns a human-readable stop description.
func (s *Session) Run(n uint64) (string, error) {
	c := s.m.CPU
	if c.Halted() && s.pos == len(s.moves) {
		return "", fmt.Errorf("machine is halted (cycle %d); back up or start a new call", c.Cycles())
	}
	target, toHalt := c.Cycles()+n, n == 0

	// Replay phase: consume retained moves up to the target cycle.
	replayed := false
	for s.pos < len(s.moves) {
		if !toHalt && c.Cycles() >= target {
			return fmt.Sprintf("stopped at cycle %d (replaying history, %d move(s) ahead)",
				c.Cycles(), len(s.moves)-s.pos), nil
		}
		replayed = true
		mv := &s.moves[s.pos]
		if mv.kind == moveRun && !c.Halted() {
			t, bounded := mv.target, false
			if !toHalt && (t == runToHalt || t > target) {
				t, bounded = target, true
			}
			var err error
			if t == runToHalt {
				_, err = c.Run(s.m.MaxSteps)
			} else if c.Cycles() < t {
				_, err = c.RunUntil(t, s.m.MaxSteps)
			}
			if err != nil {
				return "", err
			}
			if bounded && !c.Halted() && (mv.target == runToHalt || c.Cycles() < mv.postCycle) {
				return fmt.Sprintf("stopped at cycle %d (replaying history, %d move(s) ahead)",
					c.Cycles(), len(s.moves)-s.pos), nil
			}
			s.pos++
			continue
		}
		if err := s.apply(mv); err != nil {
			return "", err
		}
		s.pos++
	}
	if replayed {
		// Replayed events must not retrigger armed breaks: they already
		// fired (or were scanned) on the original pass.
		s.syncEventCursor()
		if c.Halted() {
			return fmt.Sprintf("halted at cycle %d (r0=%d)", c.Cycles(), c.Reg(0)), nil
		}
		if !toHalt && c.Cycles() >= target {
			return fmt.Sprintf("stopped at cycle %d", c.Cycles()), nil
		}
	}
	armed := len(s.breaks) > 0
	for !c.Halted() && (toHalt || c.Cycles() < target) {
		next := c.Cycles() + breakChunk
		if !armed {
			next = target
		}
		if !toHalt && next > target {
			next = target
		}
		if toHalt && !armed {
			if _, err := c.Run(s.m.MaxSteps); err != nil {
				return "", err
			}
			break
		}
		if _, err := c.RunUntil(next, s.m.MaxSteps); err != nil {
			return "", err
		}
		if armed {
			if hit := s.scanBreaks(); hit != "" {
				if err := s.record(move{kind: moveRun, target: c.Cycles()}); err != nil {
					return "", err
				}
				return fmt.Sprintf("break: %s — stopped at cycle %d", hit, c.Cycles()), nil
			}
		}
	}
	recTarget := target
	if toHalt {
		recTarget = runToHalt
	}
	if err := s.record(move{kind: moveRun, target: recTarget}); err != nil {
		return "", err
	}
	if c.Halted() {
		return fmt.Sprintf("halted at cycle %d (r0=%d)", c.Cycles(), c.Reg(0)), nil
	}
	return fmt.Sprintf("stopped at cycle %d", c.Cycles()), nil
}

// Back rewinds n simulated cycles: restore the nearest keyframe at or
// before the target cycle and re-execute forward to it. The rewound-
// over future stays on the timeline — `run` replays it (including any
// commits, BRK pokes and all) and lands on digest-identical states;
// only a new write operation discards it. If the target falls inside a
// logged run move the re-execution stops at the first block boundary
// at or after the target; if it falls inside a host operation (a
// commit's internal cycles) the session stops at the operation
// boundary just before it.
func (s *Session) Back(n uint64) (string, error) {
	cur := s.m.CPU.Cycles()
	target := s.initialCycle
	if cur-s.initialCycle > n {
		target = cur - n
	}
	// Largest position whose post-state is at or before the target.
	p := 0
	for i := 0; i < s.pos; i++ {
		if s.moves[i].postCycle <= target {
			p = i + 1
		}
	}
	if err := s.seekTo(p); err != nil {
		return "", err
	}
	c := s.m.CPU
	if p < len(s.moves) && s.moves[p].kind == moveRun && !c.Halted() && c.Cycles() < target {
		// The target lands inside this run move: re-execute its prefix.
		// No recording — the move itself is still ahead on the timeline
		// and the position is simply "part-way through it".
		if _, err := c.RunUntil(target, s.m.MaxSteps); err != nil {
			return "", err
		}
		mv := &s.moves[p]
		if mv.target != runToHalt && c.Cycles() >= mv.postCycle {
			s.pos++ // the boundary overshoot consumed the whole move
		}
	}
	ahead := ""
	if rem := len(s.moves) - s.pos; rem > 0 {
		ahead = fmt.Sprintf("; %d move(s) retained ahead — run replays them", rem)
	}
	if got := c.Cycles(); got != target {
		return fmt.Sprintf("rewound to cycle %d (first boundary at or after %d)%s", got, target, ahead), nil
	}
	return fmt.Sprintf("rewound to cycle %d%s", target, ahead), nil
}

// Set writes a global/switch and logs the move. Like every new write
// operation it truncates a retained (rewound-over) future first: the
// timeline diverges here.
func (s *Session) Set(name string, v uint64) error {
	if err := s.truncate(); err != nil {
		return err
	}
	if err := s.writeGlobal(name, v); err != nil {
		return err
	}
	return s.record(move{kind: moveSet, name: name, value: v})
}

// Commit runs multiverse_commit under the session's commit options.
// A refused commit stays on the timeline (the abort mutates counters
// and flight events) and the error is reported.
func (s *Session) Commit() (core.CommitResult, error) {
	if err := s.truncate(); err != nil {
		return core.CommitResult{}, err
	}
	res, err := s.rt.Commit()
	if rerr := s.record(move{kind: moveCommit, failed: err != nil}); rerr != nil {
		return res, rerr
	}
	return res, err
}

// Revert runs multiverse_revert and logs the move.
func (s *Session) Revert() error {
	if err := s.truncate(); err != nil {
		return err
	}
	err := s.rt.Revert()
	if rerr := s.record(move{kind: moveRevert, failed: err != nil}); rerr != nil {
		return rerr
	}
	return err
}

// ToggleBreak arms/disarms a break class: commit, trap or watchdog.
func (s *Session) ToggleBreak(class string) (bool, error) {
	switch class {
	case "commit", "trap", "watchdog":
	default:
		return false, fmt.Errorf("unknown break class %q (want commit, trap or watchdog)", class)
	}
	if s.breaks[class] {
		delete(s.breaks, class)
		return false, nil
	}
	// Arm from "now": events already recorded don't retrigger.
	s.syncEventCursor()
	s.breaks[class] = true
	return true, nil
}

// Breaks lists the armed break classes, sorted.
func (s *Session) Breaks() []string {
	out := make([]string, 0, len(s.breaks))
	for k := range s.breaks {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Where describes the current position: cycle, pc (symbolized),
// halted state and timeline length.
func (s *Session) Where() string {
	c := s.m.CPU
	loc := fmt.Sprintf("%#x", c.PC())
	if name, ok := s.img.SymbolAt(c.PC()); ok {
		loc = fmt.Sprintf("%s+%#x (%s)", name, c.PC()-s.img.Symbols[name].Addr, loc)
	}
	state := "running"
	if c.Halted() {
		state = fmt.Sprintf("halted, r0=%d", c.Reg(0))
	}
	timeline := fmt.Sprintf("%d moves", len(s.moves))
	if s.pos < len(s.moves) {
		timeline = fmt.Sprintf("move %d of %d, future retained", s.pos, len(s.moves))
	}
	return fmt.Sprintf("cycle %d  pc=%s  %s  [%s, %d keyframes]",
		c.Cycles(), loc, state, timeline, len(s.keyframes))
}

// State renders the runtime binding report plus the position line.
func (s *Session) State() string {
	return s.Where() + "\n" + s.rt.StateReport()
}

// Disassemble decodes count instructions starting at addr (the
// current pc if addr is the empty string; otherwise a symbol name or
// a hex/decimal address).
func (s *Session) Disassemble(addr string, count int) (string, error) {
	pc := s.m.CPU.PC()
	if addr != "" {
		if a, err := s.m.Symbol(addr); err == nil {
			pc = a
		} else if v, perr := strconv.ParseUint(addr, 0, 64); perr == nil {
			pc = v
		} else {
			return "", fmt.Errorf("neither a symbol nor an address: %q", addr)
		}
	}
	if count <= 0 {
		count = 8
	}
	var b strings.Builder
	for i := 0; i < count; i++ {
		// MemCallSiteLen (9) is the longest encoding; a couple of
		// spare bytes keep this robust to future ops.
		buf, n := make([]byte, isa.MemCallSiteLen+3), 0
		for ; n < len(buf); n++ {
			if s.m.Mem.Read(pc+uint64(n), buf[n:n+1]) != nil {
				break
			}
		}
		if n == 0 {
			fmt.Fprintf(&b, "%#08x: <unmapped>\n", pc)
			break
		}
		in, err := isa.Decode(buf[:n])
		if err != nil {
			fmt.Fprintf(&b, "%#08x: .byte %#02x\n", pc, buf[0])
			pc++
			continue
		}
		marker := "  "
		if pc == s.m.CPU.PC() {
			marker = "=>"
		}
		if name, ok := s.img.SymbolAt(pc); ok && s.img.Symbols[name].Addr == pc {
			fmt.Fprintf(&b, "%s:\n", name)
		}
		fmt.Fprintf(&b, "%s %#08x: %s\n", marker, pc, in.Format(pc))
		pc += uint64(in.Len)
	}
	return b.String(), nil
}

// Spans summarizes the flight recorder's commit-causality spans since
// the last rewind (rewinding rebuilds the recorder; replay repopulates
// it deterministically).
func (s *Session) Spans() string {
	d := s.rec.Dump("dbg-spans")
	type group struct {
		span        uint64
		first, last uint64
		n           int
		kinds       map[string]int
	}
	var order []uint64
	groups := map[uint64]*group{}
	for _, fe := range d.Events {
		ev, err := fe.Event()
		if err != nil {
			continue
		}
		g := groups[ev.Span]
		if g == nil {
			g = &group{span: ev.Span, first: ev.Cycle, kinds: map[string]int{}}
			groups[ev.Span] = g
			order = append(order, ev.Span)
		}
		g.last = ev.Cycle
		g.n++
		g.kinds[ev.Kind.Name()]++
	}
	if len(order) == 0 {
		return "no recorded events\n"
	}
	var b strings.Builder
	if d.Dropped > 0 {
		fmt.Fprintf(&b, "(ring overwrote %d older events)\n", d.Dropped)
	}
	for _, id := range order {
		g := groups[id]
		kinds := make([]string, 0, len(g.kinds))
		for k := range g.kinds {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		parts := make([]string, len(kinds))
		for i, k := range kinds {
			parts[i] = fmt.Sprintf("%s×%d", k, g.kinds[k])
		}
		label := fmt.Sprintf("span %d", g.span)
		if g.span == 0 {
			label = "unspanned"
		}
		fmt.Fprintf(&b, "%-10s cycles %d..%d  %d event(s): %s\n",
			label, g.first, g.last, g.n, strings.Join(parts, ", "))
	}
	return b.String()
}
