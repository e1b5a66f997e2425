package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/isa"
)

// The cycle-attribution profiler.
//
// Attribution model: the interpreter calls Step(pc, cycles, in) once
// per instruction, before executing it, in single steps and
// superblocks alike. The cycle delta between two
// consecutive Steps — the cost of the instruction in between, plus
// any interrupt serviced after it — is charged to the call stack that
// was current when time advanced. Call/Ret maintain that stack from
// the executed CALL/CLLM/CLLR/RET instructions; a generic prologue
// that was patched to JMP into a variant body shows up naturally,
// because the leaf frame follows the pc through the symbol table
// rather than trusting the stack alone.
//
// The steady-state fast path does no map lookups and no string work:
// while the pc stays inside one symbol's range and the stack depth is
// unchanged, deltas accumulate into a pending counter that is flushed
// into the folded-stack map only when the leaf or the stack changes.

// maxStackDepth bounds the recorded stack; deeper frames fold into
// the deepest recorded one.
const maxStackDepth = 64

// Profiler aggregates cycle attribution across all streams.
type Profiler struct {
	syms   *SymTable
	folded map[string]uint64 // "frame;frame;leaf" -> cycles
	flat   map[string]uint64 // leaf function -> self cycles
	calls  map[string]uint64 // "caller;callee" -> call count
}

func newProfiler() *Profiler {
	return &Profiler{
		folded: make(map[string]uint64),
		flat:   make(map[string]uint64),
		calls:  make(map[string]uint64),
	}
}

// profCursor is the per-stream profiler state.
type profCursor struct {
	started bool
	last    uint64 // cycle stamp of the previous Step
	pending uint64 // cycles not yet flushed into the maps

	stack    []string
	overflow int // frames beyond maxStackDepth

	leaf   string // symbol containing the current pc
	lo, hi uint64 // validity range of leaf
	key    string // folded key for (stack, leaf)
}

// invalidate forces re-resolution of the leaf on the next Step (used
// when the symbol table changes).
func (c *profCursor) invalidate() { c.lo, c.hi = 1, 0 }

func (c *profCursor) rebuildKey() {
	if n := len(c.stack); n > 0 {
		k := strings.Join(c.stack, ";")
		if c.leaf != c.stack[n-1] {
			k += ";" + c.leaf
		}
		c.key = k
	} else {
		c.key = c.leaf
	}
}

func (s *Stream) flushProf(p *Profiler) {
	c := &s.cur
	if c.pending == 0 {
		return
	}
	if c.key == "" {
		c.rebuildKey()
	}
	p.folded[c.key] += c.pending
	p.flat[c.leaf] += c.pending
	c.pending = 0
}

// Step implements Tracer; it feeds the profiler and is a no-op unless
// profiling is enabled.
func (s *Stream) Step(pc, cycles uint64, in *isa.Inst) {
	p := s.col.prof
	if p == nil {
		return
	}
	c := &s.cur
	if c.started {
		c.pending += cycles - c.last
	}
	c.last = cycles
	c.started = true
	if pc < c.lo || pc >= c.hi {
		s.flushProf(p)
		c.leaf, c.lo, c.hi = p.syms.Resolve(pc)
		c.rebuildKey()
	}
}

// Call implements Tracer: it records a call edge and pushes the
// callee frame. The in-flight call instruction's cost still flushes
// under the caller's key (the key is rebuilt only when the pc enters
// the callee).
func (s *Stream) Call(pc, target uint64) {
	p := s.col.prof
	if p == nil {
		return
	}
	c := &s.cur
	if pc < c.lo || pc >= c.hi {
		// First event before any Step, or a stale leaf: resolve now so
		// the edge gets a real caller.
		s.flushProf(p)
		c.leaf, c.lo, c.hi = p.syms.Resolve(pc)
		c.rebuildKey()
	}
	callee := p.syms.Name(target)
	p.calls[c.leaf+";"+callee]++
	if len(c.stack) >= maxStackDepth {
		c.overflow++
		return
	}
	s.flushProf(p)
	if len(c.stack) == 0 {
		// Seed the base frame: the function execution started in was
		// never pushed by a Call, but it belongs at the stack's root.
		c.stack = append(c.stack, c.leaf)
	}
	c.stack = append(c.stack, callee)
	// The key keeps attributing to the caller until the pc actually
	// enters the callee; entering it triggers the leaf-range miss in
	// Step, which flushes and rebuilds.
}

// Ret implements Tracer: it pops the deepest frame. Unbalanced
// returns (e.g. into harness stubs) are ignored.
func (s *Stream) Ret(pc, target uint64) {
	p := s.col.prof
	if p == nil {
		return
	}
	c := &s.cur
	if c.overflow > 0 {
		c.overflow--
		return
	}
	if len(c.stack) == 0 {
		return
	}
	s.flushProf(p)
	c.stack = c.stack[:len(c.stack)-1]
	c.key = "" // rebuilt lazily on the next flush
}

// flushCursors finalizes every stream's pending attribution.
func (c *Collector) flushCursors() {
	if c.prof == nil {
		return
	}
	for _, s := range c.streams {
		s.flushProf(c.prof)
	}
}

// ProfileSummary is the aggregated profiler output.
type ProfileSummary struct {
	// Folded maps "frame;frame;leaf" stacks to simulated cycles —
	// flamegraph.pl / speedscope compatible when rendered one per
	// line as "stack count".
	Folded map[string]uint64
	// Flat maps each function to its self cycles.
	Flat map[string]uint64
	// Calls maps "caller;callee" edges to call counts.
	Calls map[string]uint64
}

// Profile returns the aggregated attribution, or nil when profiling
// is disabled.
func (c *Collector) Profile() *ProfileSummary {
	if c.prof == nil {
		return nil
	}
	c.flushCursors()
	return &ProfileSummary{Folded: c.prof.folded, Flat: c.prof.flat, Calls: c.prof.calls}
}

// WriteFolded writes the folded stacks in flamegraph.pl format, one
// "stack cycles" pair per line, sorted for deterministic output.
func (c *Collector) WriteFolded(w io.Writer) error {
	p := c.Profile()
	if p == nil {
		return fmt.Errorf("trace: profiling not enabled on this collector")
	}
	keys := make([]string, 0, len(p.Folded))
	for k := range p.Folded {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, p.Folded[k]); err != nil {
			return err
		}
	}
	return nil
}
