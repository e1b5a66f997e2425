package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/mem"
)

// testSrc exercises every serialized subsystem: two switches and a
// multiversed function (runtime binding state), globals (data pages),
// and a loop long enough to warm the predictors, decode cache and
// superblocks.
const testSrc = `
	multiverse int mode;
	multiverse int verbose;
	long work;
	long extra;
	multiverse void step(void) {
		if (mode) {
			work += 3;
			if (verbose) { extra++; }
		} else {
			work += 1;
		}
	}
	long spin(long n) {
		long i;
		for (i = 0; i < n; i++) { step(); }
		return work;
	}
	long total(void) { return work + extra; }
`

type sys struct {
	m  *machine.Machine
	rt *core.Runtime
}

// buildPair constructs two machine+runtime pairs from one image — the
// restore situation: same image, fresh state.
func buildPair(t *testing.T) (*sys, *sys) {
	t.Helper()
	img, _, err := core.BuildImage(core.GenOptions{}, core.Source{Name: "snap.mvc", Text: testSrc})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *sys {
		m, err := machine.New(img)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := core.NewRuntime(img, &core.UserPlatform{M: m})
		if err != nil {
			t.Fatal(err)
		}
		return &sys{m: m, rt: rt}
	}
	return mk(), mk()
}

func (s *sys) setSwitch(t *testing.T, name string, v int64) {
	t.Helper()
	if err := s.m.WriteGlobal(name, 4, uint64(v)); err != nil {
		t.Fatal(err)
	}
}

func (s *sys) call(t *testing.T, name string, args ...uint64) uint64 {
	t.Helper()
	v, err := s.m.CallNamed(name, args...)
	if err != nil {
		t.Fatalf("call %s: %v", name, err)
	}
	return v
}

// warm runs the program into an interesting state: committed variant,
// warmed caches, non-trivial console.
func (s *sys) warm(t *testing.T) {
	t.Helper()
	s.setSwitch(t, "mode", 1)
	s.setSwitch(t, "verbose", 1)
	if _, err := s.rt.Commit(); err != nil {
		t.Fatal(err)
	}
	s.call(t, "spin", 500)
	s.m.RestoreConsole([]byte("console so far"))
}

// decodeCapture captures m (and rt, when non-nil) and decodes the
// container, the way every restore starts.
func decodeCapture(t *testing.T, m *machine.Machine, rt *core.Runtime) *Snapshot {
	t.Helper()
	data, err := Capture(nil, m, rt)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	a, _ := buildPair(t)
	a.warm(t)
	data, err := Capture(nil, a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := a.rt.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	want := &Snapshot{
		ImageSum: ImageSum(a.m.Image),
		Console:  a.m.Console(),
		Pages:    a.m.Mem.ExportPages(),
		MemStats: a.m.Mem.Stats,
		Runtime:  &rs,
	}
	for _, c := range a.m.CPUs() {
		want.CPUs = append(want.CPUs, c.ExportState())
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("decode round-trip diverged:\nexported: %+v\ndecoded:  %+v", want, got)
	}
	// Decoding must be canonical: re-encoding reproduces the input.
	if !bytes.Equal(got.Encode(nil), data) {
		t.Fatal("re-encode of decoded snapshot differs from original bytes")
	}
}

// TestEncodeAllocatesOnce pins the sizing pass and the reuse
// contract. Encode(nil) allocates its container once, sized by the
// sizing pass and rounded up to the allocator's size class, so a size
// computed too small — which would grow the buffer while encoding —
// shows up as a second allocation. A container with room is
// overwritten in place with no allocation, and one a byte too small is
// replaced by a fresh rounded container, not grown.
//
// "Once" is counted against slices.Grow on the container's size, which
// allocates once in a normal build; race builds turn off the compiler's
// append-of-make fusion, and slices.Grow allocates twice there.
func TestEncodeAllocatesOnce(t *testing.T) {
	a, _ := buildPair(t)
	a.warm(t)
	snap := decodeCapture(t, a.m, a.rt)
	var data, fresh []byte
	n := testing.AllocsPerRun(20, func() { data = snap.Encode(nil) })
	if once := testing.AllocsPerRun(20, func() { fresh = slices.Grow([]byte(nil), len(data)) }); n != once {
		t.Fatalf("Encode made %v allocations, want %v, as one fresh container costs", n, once)
	}
	size := writer{sizing: true}
	snap.put(&size)
	if n := headerLen + size.n + 4; n != len(data) {
		t.Fatalf("sizing pass counts %d bytes, container holds %d", n, len(data))
	}
	rounded := cap(fresh)
	if cap(data) != rounded {
		t.Fatalf("container is %d bytes in a %d-byte buffer, want the size class's %d", len(data), cap(data), rounded)
	}

	want := slices.Clone(data)
	base := &data[0]
	if n := testing.AllocsPerRun(20, func() { data = snap.Encode(data) }); n != 0 {
		t.Fatalf("Encode into its own container made %v allocations, want 0", n)
	}
	if &data[0] != base {
		t.Fatal("Encode into a container with room replaced it")
	}
	if !bytes.Equal(data, want) {
		t.Fatal("Encode into a reused container changed the bytes")
	}

	got := snap.Encode(make([]byte, 0, len(want)-1))
	if cap(got) != rounded {
		t.Fatalf("Encode into a too-small container returned capacity %d, want a fresh %d, not a grown buffer", cap(got), rounded)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("Encode into a too-small container changed the bytes")
	}
}

func TestDigestNamesMachineState(t *testing.T) {
	a, _ := buildPair(t)
	a.warm(t)
	e1, err := Capture(nil, a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Capture(nil, a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e1, e2) {
		t.Fatal("two captures of the same instant are not byte-equal")
	}
	d1, err := Digest(e1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1) != 64 {
		t.Fatalf("digest %q is not hex SHA-256", d1)
	}
	a.call(t, "spin", 1)
	e3, err := Capture(nil, a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := Digest(e3)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d3 {
		t.Fatal("digest unchanged after executing instructions")
	}
}

// TestApplyResumesBitIdentical is the package-local restore difftest:
// state captured between calls, applied to a fresh machine from the
// same image, and both continued identically must agree on every
// observable — cycles, statistics but the CacheStats (the restored
// CPU refills its caches as it runs), state report, console, results.
// The container is overwritten right after Apply, so the restored
// machine must not alias it: the decoded snapshot's byte fields are
// views of the container, and every importer must copy what it keeps.
// (The full mid-call RunUntil version over E1/E4 lives in
// internal/difftest.)
func TestApplyResumesBitIdentical(t *testing.T) {
	a, b := buildPair(t)
	a.warm(t)
	data, err := Capture(nil, a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(snap, b.m, b.rt); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xEE
	}

	// Continue both runs through the same tail, including a revert and
	// recommit so the runtime layer keeps working after restore.
	tail := func(s *sys) (uint64, uint64) {
		s.call(t, "spin", 100)
		if err := s.rt.Revert(); err != nil {
			t.Fatal(err)
		}
		s.setSwitch(t, "verbose", 0)
		if _, err := s.rt.Commit(); err != nil {
			t.Fatal(err)
		}
		r1 := s.call(t, "spin", 50)
		r2 := s.call(t, "total")
		return r1, r2
	}
	a1, a2 := tail(a)
	b1, b2 := tail(b)

	if a1 != b1 || a2 != b2 {
		t.Fatalf("results diverged: uninterrupted (%d,%d) restored (%d,%d)", a1, a2, b1, b2)
	}
	if ac, bc := a.m.CPU.Cycles(), b.m.CPU.Cycles(); ac != bc {
		t.Fatalf("cycles diverged: uninterrupted %d restored %d", ac, bc)
	}
	as, bs := a.m.TotalStats(), b.m.TotalStats()
	as.CacheStats, bs.CacheStats = cpu.CacheStats{}, cpu.CacheStats{}
	if as != bs {
		t.Fatalf("stats diverged:\nuninterrupted %+v\nrestored      %+v", as, bs)
	}
	if ar, br := a.rt.StateReport(), b.rt.StateReport(); ar != br {
		t.Fatalf("state reports diverged:\nuninterrupted:\n%s\nrestored:\n%s", ar, br)
	}
	if !bytes.Equal(a.m.Console(), b.m.Console()) {
		t.Fatalf("console diverged: %q vs %q", a.m.Console(), b.m.Console())
	}

	// The final machine states must agree down to the digest.
	sa, err := Capture(nil, a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Capture(nil, b.m, b.rt)
	if err != nil {
		t.Fatal(err)
	}
	da, _ := Digest(sa)
	db, _ := Digest(sb)
	if da != db {
		t.Fatalf("final digests diverged: %s vs %s", da, db)
	}
}

func TestApplyRejectsDifferentImage(t *testing.T) {
	a, _ := buildPair(t)
	a.warm(t)
	snap := decodeCapture(t, a.m, a.rt)
	other, err := core.BuildSystem(core.GenOptions{}, nil,
		core.Source{Name: "other.mvc", Text: `long f(void) { return 7; }`})
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(snap, other.Machine, other.RT); err == nil {
		t.Fatal("applied a snapshot to a different image")
	}
}

func TestApplyRuntimePresenceMustMatch(t *testing.T) {
	a, b := buildPair(t)
	a.warm(t)
	snap := decodeCapture(t, a.m, a.rt)
	if err := Apply(snap, b.m, nil); err == nil {
		t.Fatal("applied runtime-bearing snapshot without a runtime")
	}
	bare := decodeCapture(t, a.m, nil)
	if err := Apply(bare, b.m, b.rt); err == nil {
		t.Fatal("applied runtime-free snapshot onto a runtime")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	a, _ := buildPair(t)
	a.warm(t)
	data, err := Capture(nil, a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Decode(nil); err == nil {
		t.Error("decoded empty input")
	}
	// Every truncation must fail cleanly: the container length check
	// catches all of them before the payload is even parsed.
	for _, n := range []int{1, 7, 8, headerLen - 1, headerLen, headerLen + 4, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:n]); err == nil {
			t.Errorf("decoded %d-byte truncation", n)
		}
	}
	// A flipped bit anywhere in the payload trips the CRC; in the
	// header it trips magic/version/length validation.
	for _, off := range []int{0, 9, 13, 17, headerLen, headerLen + 100, len(data) / 2, len(data) - 2} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Errorf("decoded snapshot with byte %d corrupted", off)
		}
	}
	// Trailing garbage changes the container length.
	if _, err := Decode(append(append([]byte(nil), data...), 0xee)); err == nil {
		t.Error("decoded snapshot with trailing garbage")
	}
}

// TestRefusesVersion1 pins the format bumps: a version-1 container,
// whose pages and BTB entries were dense, and a version-2 one, whose
// lines carried derived-cache offsets and whose CPUs carried cache
// counters, are refused by name.
func TestRefusesVersion1(t *testing.T) {
	a, _ := buildPair(t)
	data, err := Capture(nil, a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range []uint32{1, 2} {
		binary.LittleEndian.PutUint32(data[8:], old)
		_, decodeErr := Decode(data)
		_, digestErr := Digest(data)
		for what, err := range map[string]error{"Decode": decodeErr, "Digest": digestErr} {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", old)) || !strings.Contains(err.Error(), "want 3") {
				t.Errorf("%s of a version-%d container: err = %v, want one naming versions %d and 3", what, old, err, old)
			}
		}
	}
}

// TestFreshBootCarriesNoZeros: a machine that has only booted has
// never written its stack and has run no branch, so its container must
// spend no bytes on those pages' data or on the empty BTB entries: each
// never-written page costs its 17-byte header and each empty entry one
// presence byte.
func TestFreshBootCarriesNoZeros(t *testing.T) {
	a, _ := buildPair(t)
	data, err := Capture(nil, a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	var written []mem.PageState
	for _, p := range s.Pages {
		if p.Version != 0 {
			written = append(written, p)
		} else if p.Data != nil {
			t.Errorf("never-written page %#x decodes with %d bytes of data", p.PN, len(p.Data))
		}
	}
	zero := len(s.Pages) - len(written)
	if zero == 0 {
		t.Fatal("a fresh machine has no never-written page")
	}
	lines := 0
	for _, c := range s.CPUs {
		lines += len(c.ICache)
	}
	if limit := (len(written)+lines)*mem.PageSize + 16<<10; len(data) >= limit {
		t.Errorf("fresh container is %d bytes, want under %d (%d written pages, %d icache lines)",
			len(data), limit, len(written), lines)
	}

	all := s.Pages
	s.Pages = written
	if d := len(data) - len(s.Encode(nil)); d != 17*zero {
		t.Errorf("%d never-written pages cost %d bytes, want %d", zero, d, 17*zero)
	}
	s.Pages = all
	if btb := s.CPUs[0].BTB; len(btb) != 0 {
		t.Fatalf("a fresh machine has non-zero BTB entries %+v, want none", btb)
	}
	size := s.CPUs[0].BTBSize
	s.CPUs[0].BTBSize = 0
	if d := len(data) - len(s.Encode(nil)); d != size {
		t.Errorf("%d empty BTB entries cost %d bytes, want %d", size, d, size)
	}
}

// TestDecodeRejectsNonCanonicalBTB: an empty BTB entry has one
// encoding, a 0 presence byte. A presence byte other than 0 or 1, and
// a present entry whose fields are all zero, are refused.
func TestDecodeRejectsNonCanonicalBTB(t *testing.T) {
	a, _ := buildPair(t)
	a.warm(t)
	s := decodeCapture(t, a.m, a.rt)
	// The BTB count follows CmpB, and entry 0 is made empty.
	const marker = 0x0b7b_c0de_5eed_f00d
	s.CPUs[0].CmpB = marker
	s.CPUs[0].BTB = slices.DeleteFunc(s.CPUs[0].BTB, func(e cpu.BTBState) bool { return e.Index == 0 })
	enc := s.Encode(nil)
	at := bytes.Index(enc, binary.LittleEndian.AppendUint64(nil, marker)) + 8 + 4
	if at < 12 || enc[at] != 0 {
		t.Fatalf("empty BTB entry 0 not found after CmpB (at %d)", at)
	}
	body := append([]byte(nil), enc[:len(enc)-4]...) // unsealed: header and payload
	body[at] = 2
	if _, err := Decode(seal(body)); err == nil || !strings.Contains(err.Error(), "presence byte") {
		t.Errorf("BTB presence byte 2: err = %v, want a presence-byte error", err)
	}
	body = slices.Concat(enc[:at], []byte{1}, make([]byte, 1+8+1+8), enc[at+1:len(enc)-4])
	if _, err := Decode(seal(body)); err == nil || !strings.Contains(err.Error(), "zero entry") {
		t.Errorf("present all-zero BTB entry: err = %v, want a zero-entry error", err)
	}
}

// FuzzSnapshotDecode seals each input as a payload, so mutations reach
// the field parser rather than the CRC. Decode must never panic, and a
// snapshot it accepts and Apply restores onto a fresh machine must
// capture back to the input byte for byte: one machine state, one
// container.
func FuzzSnapshotDecode(f *testing.F) {
	img, _, err := core.BuildImage(core.GenOptions{}, core.Source{Name: "snap.mvc", Text: testSrc})
	if err != nil {
		f.Fatal(err)
	}
	fresh := func(tb testing.TB) (*machine.Machine, *core.Runtime) {
		m, err := machine.New(img)
		if err != nil {
			tb.Fatal(err)
		}
		rt, err := core.NewRuntime(img, &core.UserPlatform{M: m})
		if err != nil {
			tb.Fatal(err)
		}
		return m, rt
	}
	m, rt := fresh(f)
	if _, err := m.CallNamed("spin", 50); err != nil {
		f.Fatal(err)
	}
	payloadOf := func(rt *core.Runtime) []byte {
		c, err := Capture(nil, m, rt)
		if err != nil {
			f.Fatal(err)
		}
		return c[headerLen : len(c)-4]
	}
	valid := payloadOf(rt)
	// The seed must carry present BTB entries beside empty ones, so the
	// fuzzer mutates both encodings.
	if got, err := Decode(seal(append(make([]byte, headerLen), valid...))); err != nil ||
		len(got.CPUs[0].BTB) == 0 || len(got.CPUs[0].BTB) == got.CPUs[0].BTBSize {
		f.Fatalf("seed container does not mix present and empty BTB entries (decode err %v)", err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(payloadOf(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		data := seal(append(make([]byte, headerLen), payload...))
		s, err := Decode(data)
		if err != nil {
			return
		}
		m, rt := fresh(t)
		if s.Runtime == nil {
			rt = nil
		}
		if err := Apply(s, m, rt); err != nil {
			return
		}
		again, err := Capture(nil, m, rt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("a restored snapshot captures back to another container")
		}
	})
}

// TestCaptureMidCommitNotQuiesced drives a real mid-commit instant —
// a poke-step fault point hands control to the harness between two
// phases of the breakpoint protocol, while the commit transaction is
// open — and pins that Capture fails with the typed, retryable
// ErrNotQuiesced, and that the capture succeeds once the commit
// finishes.
//
// The mid-commit capture targets a copy of a valid container with room
// to spare, which must come back byte-identical: a failed capture
// writes nothing, so a checkpoint it was to replace survives.
func TestCaptureMidCommitNotQuiesced(t *testing.T) {
	a, _ := buildPair(t)
	a.rt.SetCommitOptions(core.CommitOptions{Mode: core.ModeTextPoke})
	valid, err := Capture(nil, a.m, a.rt)
	if err != nil {
		t.Fatal(err)
	}
	target := append(make([]byte, 0, 2*len(valid)), valid...)
	plan := faultinject.Exact(faultinject.Point{Kind: faultinject.KindPokeStep, Op: 0})
	var midErr error
	var fired int
	plan.OnPokeStep = func(phase int, addr, n uint64) {
		if fired == 0 {
			_, midErr = Capture(target, a.m, a.rt)
		}
		fired++
	}
	plan.Attach(a.m)
	defer faultinject.Detach(a.m)

	a.setSwitch(t, "mode", 1)
	if _, err := a.rt.Commit(); err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatal("poke-step point never fired; commit did not go through the breakpoint protocol")
	}
	if !errors.Is(midErr, ErrNotQuiesced) {
		t.Fatalf("mid-commit Capture = %v, want errors.Is ErrNotQuiesced", midErr)
	}
	if !bytes.Equal(target, valid) {
		t.Fatal("a failed mid-commit Capture overwrote the container it was given")
	}
	if _, err := Capture(nil, a.m, a.rt); err != nil {
		t.Fatalf("post-commit Capture = %v, want success once quiesced", err)
	}
}
