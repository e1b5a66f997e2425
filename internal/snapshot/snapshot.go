// Package snapshot serializes complete simulated-machine state —
// memory pages with protections and write-versions, per-CPU
// architectural and microarchitectural state (including resident
// icache lines), the console, and the runtime's binding/deferred/span
// state — into a versioned, CRC-protected binary container.
//
// The format is deterministic: capturing the same simulated instant
// twice yields byte-identical files, so Digest (SHA-256 of the
// payload) identifies a machine state. Restoring a snapshot and
// running to completion retires bit-identical cycles, statistics (but
// cpu.CacheStats) and state reports as the uninterrupted run — the
// property the checkpoint/restore difftests pin and the time-travel
// debugger (cmd/mvdbg) is built on.
package snapshot

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/mem"
)

// Snapshot is the complete state of a simulated machine at one
// instant, plus the identity of the image it was loaded from. Callers
// get one only from Decode, and it aliases the container it was
// decoded from (see Decode).
type Snapshot struct {
	// ImageSum ties the snapshot to the loaded image (entry point,
	// halt stub, and every segment's address, protection and bytes).
	// Apply refuses a snapshot taken from a different image.
	ImageSum [32]byte

	Console  []byte
	Pages    []mem.PageState
	MemStats mem.Stats
	CPUs     []cpu.State // primary first, AddCPU threads in creation order; CPUs[0].Cycles names the instant

	// Runtime is nil when the snapshot was captured without a
	// multiverse runtime attached.
	Runtime *core.RuntimeState
}

// ImageSum returns the image-identity hash Capture embeds and Apply
// checks: img.Sum, computed once per image.
func ImageSum(img *link.Image) [32]byte { return img.Sum() }

// ErrNotQuiesced is the typed, retryable error Capture returns when
// the runtime is inside an open commit/revert transaction. Commits
// are atomic — there is no observable mid-commit state — but the
// condition clears as soon as the operation finishes, so supervisors
// should match it with errors.Is and retry the capture rather than
// treat the machine as corrupt.
var ErrNotQuiesced = core.ErrNotQuiesced

// Capture writes the sealed container holding the machine's complete
// state into buf's storage and returns it; see Encode for how buf is
// used. Pages are read straight from the address space, and only
// written ones are copied, once. rt may be nil when no runtime is
// attached; when present it must be commit-quiesced — capturing inside
// an open transaction fails with ErrNotQuiesced. Every export runs
// before the first byte of buf is written, so on error buf still holds
// what it held.
func Capture(buf []byte, m *machine.Machine, rt *core.Runtime) ([]byte, error) {
	s := &Snapshot{
		ImageSum: ImageSum(m.Image),
		Console:  m.Console(),
		Pages:    m.Mem.ExportPages(),
		MemStats: m.Mem.Stats,
	}
	for _, c := range m.CPUs() {
		s.CPUs = append(s.CPUs, c.ExportState())
	}
	if rt != nil {
		rs, err := rt.ExportState()
		if err != nil {
			return nil, err
		}
		s.Runtime = &rs
	}
	return s.Encode(buf), nil
}

// Apply restores a snapshot onto a machine freshly constructed from
// the same image (and, when the snapshot carries runtime state, a
// runtime freshly constructed against that machine). Secondary
// hardware threads are added as needed; the address space is replaced
// wholesale; each CPU's derived caches start empty; the runtime's
// binding state is imported last so its per-site byte windows are
// re-read from the restored memory.
func Apply(s *Snapshot, m *machine.Machine, rt *core.Runtime) error {
	if got := ImageSum(m.Image); got != s.ImageSum {
		return fmt.Errorf("snapshot: taken from a different image (segment/entry hash mismatch)")
	}
	if len(s.CPUs) == 0 {
		return fmt.Errorf("snapshot: no CPU state")
	}
	if (s.Runtime != nil) != (rt != nil) {
		if rt == nil {
			return fmt.Errorf("snapshot: carries runtime state but no runtime was supplied")
		}
		return fmt.Errorf("snapshot: carries no runtime state but a runtime was supplied")
	}
	for len(m.CPUs()) < len(s.CPUs) {
		if _, err := m.AddCPU(); err != nil {
			return fmt.Errorf("snapshot: adding hardware thread: %w", err)
		}
	}
	if len(m.CPUs()) != len(s.CPUs) {
		return fmt.Errorf("snapshot: machine has %d hardware threads, snapshot %d", len(m.CPUs()), len(s.CPUs))
	}
	if err := m.Mem.ImportPages(s.Pages); err != nil {
		return err
	}
	m.Mem.SetStats(s.MemStats)
	for i, c := range m.CPUs() {
		if err := c.ImportState(s.CPUs[i]); err != nil {
			return fmt.Errorf("snapshot: cpu %d: %w", i, err)
		}
	}
	m.RestoreConsole(s.Console)
	if rt != nil {
		if err := rt.ImportState(*s.Runtime); err != nil {
			return err
		}
	}
	return nil
}

// Encode serializes the snapshot into the versioned container. A
// sizing pass runs the encoder first. The container overwrites buf's
// storage when its capacity holds it; otherwise it goes into one fresh
// allocation whose capacity is the allocator's size class for the
// container, so a later container a few bytes longer still fits. buf
// may be nil, and must not back a Snapshot still in use (Decode
// aliases its input).
func (s *Snapshot) Encode(buf []byte) []byte {
	size := writer{sizing: true}
	s.put(&size)
	n := headerLen + size.n + 4
	if cap(buf) < n {
		buf = slices.Grow([]byte(nil), n)
	}
	w := writer{b: buf[:headerLen]}
	s.put(&w)
	return seal(w.b)
}

// put writes the payload.
func (s *Snapshot) put(w *writer) {
	w.raw(s.ImageSum[:])
	w.bytes(s.Console)
	w.u32(uint32(len(s.Pages)))
	for i := range s.Pages {
		p := &s.Pages[i]
		w.u64(p.PN)
		w.u8(uint8(p.Prot))
		w.u64(p.Version)
		if p.Version != 0 { // a never-written page is all zero
			w.bytes(p.Data)
		}
	}
	putCounters(w, &s.MemStats)
	w.u32(uint32(len(s.CPUs)))
	for i := range s.CPUs {
		putCPU(w, &s.CPUs[i])
	}
	if s.Runtime == nil {
		w.u8(0)
	} else {
		w.u8(1)
		putRuntime(w, s.Runtime)
	}
}

// Decode validates the container (magic, version, length, CRC) and
// parses the payload. Corrupt or truncated input yields an error,
// never a panic. The snapshot aliases data: its byte fields (console,
// page data, icache line bytes) are views of the input, not copies, so
// data must stay unchanged while the snapshot is in use. Apply copies
// everything it keeps, so once Apply returns, data is free again.
func Decode(data []byte) (*Snapshot, error) {
	payload, err := unseal(data)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	s := &Snapshot{}
	copy(s.ImageSum[:], r.take(32))
	s.Console = r.bytes()
	for i, n := 0, r.count(8+1+8); i < n && r.err == nil; i++ {
		p := mem.PageState{PN: r.u64(), Prot: mem.Prot(r.u8()), Version: r.u64()}
		if p.Version != 0 {
			p.Data = r.bytes()
		}
		s.Pages = append(s.Pages, p)
	}
	getCounters(r, &s.MemStats)
	for i, n := 0, r.count(8); i < n && r.err == nil; i++ {
		var c cpu.State
		getCPU(r, &c)
		s.CPUs = append(s.CPUs, c)
	}
	if r.u8() != 0 {
		var rs core.RuntimeState
		getRuntime(r, &rs)
		s.Runtime = &rs
	}
	if r.err == nil && r.off != len(r.b) {
		r.fail("%d trailing bytes after snapshot body", len(r.b)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	return s, nil
}

func putCPU(w *writer, s *cpu.State) {
	w.u32(uint32(len(s.Regs)))
	for _, v := range s.Regs {
		w.u64(v)
	}
	w.u64(s.PC)
	w.u64(s.Cycles)
	putBool(w, s.Halted)
	w.u64(uint64(s.CmpA))
	w.u64(uint64(s.CmpB))
	// Every BTB entry is one presence byte: 0 for the zero entry, or 1
	// followed by its fields. s.BTB lists only the present ones.
	w.u32(uint32(s.BTBSize))
	next := 0
	for i := range s.BTB {
		e := &s.BTB[i]
		w.zeros(e.Index - next)
		w.u8(1)
		putBool(w, e.Valid)
		w.u64(e.Tag)
		w.u8(e.Counter)
		w.u64(e.Target)
		next = e.Index + 1
	}
	w.zeros(s.BTBSize - next)
	w.u32(uint32(len(s.RAS)))
	for _, v := range s.RAS {
		w.u64(v)
	}
	w.u64(uint64(s.RASN))
	w.u8(s.Mode)
	putBool(w, s.IntrOn)
	w.u64(s.IntrPeriod)
	w.u64(s.IntrCost)
	w.u64(s.NextIntr)
	w.u32(uint32(len(s.ICache)))
	for i := range s.ICache {
		ls := &s.ICache[i]
		w.u64(ls.PN)
		w.u64(ls.Version)
		w.bytes(ls.Bytes)
	}
	putCounters(w, &s.Stats)
}

func getCPU(r *reader, s *cpu.State) {
	if n := r.count(8); n != len(s.Regs) && r.err == nil {
		r.fail("cpu state has %d registers, want %d", n, len(s.Regs))
	}
	if r.err != nil {
		return
	}
	for i := range s.Regs {
		s.Regs[i] = r.u64()
	}
	s.PC = r.u64()
	s.Cycles = r.u64()
	s.Halted = getBool(r)
	s.CmpA = int64(r.u64())
	s.CmpB = int64(r.u64())
	s.BTBSize = r.count(1)
	for i := 0; i < s.BTBSize && r.err == nil; i++ {
		switch r.u8() {
		case 0: // the zero entry
		case 1:
			e := cpu.BTBState{Index: i, Valid: getBool(r), Tag: r.u64(), Counter: r.u8(), Target: r.u64()}
			if e == (cpu.BTBState{Index: i}) && r.err == nil {
				r.fail("BTB entry %d before offset %d is marked present but is the zero entry", i, r.off)
			}
			s.BTB = append(s.BTB, e)
		default:
			r.fail("BTB entry %d presence byte out of range at offset %d", i, r.off-1)
		}
	}
	for i, n := 0, r.count(8); i < n && r.err == nil; i++ {
		s.RAS = append(s.RAS, r.u64())
	}
	s.RASN = int(r.u64())
	s.Mode = r.u8()
	s.IntrOn = getBool(r)
	s.IntrPeriod = r.u64()
	s.IntrCost = r.u64()
	s.NextIntr = r.u64()
	for i, n := 0, r.count(8+8+4); i < n && r.err == nil; i++ {
		s.ICache = append(s.ICache, cpu.ICLineState{PN: r.u64(), Version: r.u64(), Bytes: r.bytes()})
	}
	getCounters(r, &s.Stats)
}

func putRuntime(w *writer, s *core.RuntimeState) {
	w.u32(uint32(len(s.Funcs)))
	for i := range s.Funcs {
		f := &s.Funcs[i]
		w.str(f.Name)
		w.u64(f.Generic)
		w.u64(f.CommittedAddr)
		putBool(w, f.PrologueOn)
		w.bytes(f.SavedPrologue[:])
	}
	w.u32(uint32(len(s.FnPtrs)))
	for _, p := range s.FnPtrs {
		w.u64(p.Addr)
		putBool(w, p.Committed)
		w.u64(p.Target)
	}
	w.u32(uint32(len(s.Deferred)))
	for _, d := range s.Deferred {
		w.str(d.Name)
		w.u8(d.Kind)
	}
	putCounters(w, &s.Stats)
	w.u64(s.OpSeq)
}

func getRuntime(r *reader, s *core.RuntimeState) {
	for i, n := 0, r.count(4+8+8+1+4); i < n && r.err == nil; i++ {
		f := core.FuncBindingState{Name: r.str(), Generic: r.u64(), CommittedAddr: r.u64()}
		f.PrologueOn = getBool(r)
		saved := r.bytes()
		if r.err == nil && len(saved) != len(f.SavedPrologue) {
			r.fail("saved prologue holds %d bytes, want %d", len(saved), len(f.SavedPrologue))
		}
		copy(f.SavedPrologue[:], saved)
		s.Funcs = append(s.Funcs, f)
	}
	for i, n := 0, r.count(8+1+8); i < n && r.err == nil; i++ {
		s.FnPtrs = append(s.FnPtrs, core.FnPtrBindingState{Addr: r.u64(), Committed: getBool(r), Target: r.u64()})
	}
	for i, n := 0, r.count(4+1); i < n && r.err == nil; i++ {
		s.Deferred = append(s.Deferred, core.DeferredOpState{Name: r.str(), Kind: r.u8()})
	}
	getCounters(r, &s.Stats)
	s.OpSeq = r.u64()
}

func putBool(w *writer, v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func getBool(r *reader) bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("boolean byte out of range at offset %d", r.off-1)
		return false
	}
}

// putCounters serializes a flat statistics struct (all int or uint64
// fields, passed by pointer) by reflection, field-count-prefixed: a
// counter added to cpu.RunStats, mem.Stats or core.RuntimeStats is
// picked up automatically, and a reader built for a different field
// count reports format drift instead of silently misparsing.
func putCounters(w *writer, v any) {
	rv := reflect.ValueOf(v).Elem()
	w.u32(uint32(rv.NumField()))
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			w.u64(f.Uint())
		case reflect.Int:
			w.u64(uint64(f.Int()))
		default:
			panic(fmt.Sprintf("snapshot: %s.%s is %s, counters must be int or uint64",
				rv.Type(), rv.Type().Field(i).Name, f.Kind()))
		}
	}
}

func getCounters(r *reader, out any) {
	rv := reflect.ValueOf(out).Elem()
	if n := r.count(8); n != rv.NumField() && r.err == nil {
		r.fail("%s block has %d counters, want %d (format drift)", rv.Type(), n, rv.NumField())
	}
	if r.err != nil {
		return
	}
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		v := r.u64()
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(v)
		case reflect.Int:
			f.SetInt(int64(v))
		}
	}
}
