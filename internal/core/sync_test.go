package core

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/trace"
)

// stepInto steps the system's primary CPU (after StartCall) until the
// PC lands in [lo, hi), failing the test if it never does.
func stepInto(t *testing.T, sys *System, lo, hi uint64) {
	t.Helper()
	c := sys.Machine.CPU
	for i := 0; i < 100_000; i++ {
		if pc := c.PC(); pc >= lo && pc < hi && !c.Halted() {
			return
		}
		if c.Halted() {
			t.Fatalf("CPU halted before reaching [%#x,%#x)", lo, hi)
		}
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatalf("CPU never reached [%#x,%#x)", lo, hi)
}

// stepToHalt runs the primary CPU to the halt stub.
func stepToHalt(t *testing.T, sys *System) {
	t.Helper()
	c := sys.Machine.CPU
	for i := 0; i < 1_000_000 && !c.Halted(); i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Halted() {
		t.Fatal("CPU did not halt")
	}
}

// parkInCommittedVariant commits A=1,B=1, then starts foo on the
// primary CPU and steps it until the PC is inside the committed
// variant body of multi. Returns multi's funcState.
func parkInCommittedVariant(t *testing.T, sys *System) *funcState {
	t.Helper()
	setAndCommit(t, sys, map[string]int64{"A": 1, "B": 1})
	fs := sys.RT.byName["multi"]
	if fs == nil || fs.committed == nil {
		t.Fatal("multi not committed")
	}
	v := fs.committed
	if err := sys.Machine.StartCall(sys.Machine.CPU, "foo"); err != nil {
		t.Fatal(err)
	}
	stepInto(t, sys, v.Addr, v.Addr+uint64(v.Size))
	return fs
}

// TestCommitRefusedWhileFunctionActive: with a CPU executing inside
// the committed variant, a re-commit under ActiveRefuse must abort
// with ErrFunctionActive, leave the binding untouched, and keep the
// image audit-clean; after the CPU halts, the same commit succeeds.
func TestCommitRefusedWhileFunctionActive(t *testing.T) {
	sys := buildFig2(t)
	fs := parkInCommittedVariant(t, sys)
	was := fs.committed

	sys.RT.SetCommitOptions(CommitOptions{Mode: ModeStopMachine, OnActive: ActiveRefuse})
	if err := sys.SetSwitch("B", 0); err != nil {
		t.Fatal(err)
	}
	_, err := sys.RT.Commit()
	if !errors.Is(err, ErrFunctionActive) {
		t.Fatalf("commit on active function: err = %v, want ErrFunctionActive", err)
	}
	if !errors.Is(err, ErrCommitAborted) {
		t.Errorf("refusal did not abort the transaction: %v", err)
	}
	if fs.committed != was {
		t.Error("refused commit still changed the binding")
	}
	if sys.RT.Stats.ActiveRefusals != 1 {
		t.Errorf("ActiveRefusals = %d, want 1", sys.RT.Stats.ActiveRefusals)
	}
	if err := sys.RT.Audit(); err != nil {
		t.Fatalf("audit after refused commit: %v", err)
	}

	stepToHalt(t, sys)
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatalf("commit after quiesce: %v", err)
	}
	if fs.committed == was {
		t.Error("post-quiesce commit did not rebind")
	}
}

// TestRevertRefusedWhileFunctionActive: RevertFunc under ActiveRefuse
// must also respect the activeness check.
func TestRevertRefusedWhileFunctionActive(t *testing.T) {
	sys := buildFig2(t)
	fs := parkInCommittedVariant(t, sys)
	sys.RT.SetCommitOptions(CommitOptions{Mode: ModeStopMachine, OnActive: ActiveRefuse})
	err := sys.RT.RevertFunc(fs.fd.Generic)
	if !errors.Is(err, ErrFunctionActive) {
		t.Fatalf("revert of active function: err = %v, want ErrFunctionActive", err)
	}
	if fs.committed == nil {
		t.Error("refused revert still tore down the binding")
	}
}

// TestCommitDeferredWhileFunctionActive: under ActiveDefer the commit
// succeeds with the rebinding queued; DrainDeferred applies it once
// the CPU has halted.
func TestCommitDeferredWhileFunctionActive(t *testing.T) {
	sys := buildFig2(t)
	fs := parkInCommittedVariant(t, sys)
	was := fs.committed

	sys.RT.SetCommitOptions(CommitOptions{Mode: ModeStopMachine, OnActive: ActiveDefer})
	if err := sys.SetSwitch("B", 0); err != nil {
		t.Fatal(err)
	}
	res, err := sys.RT.Commit()
	if err != nil {
		t.Fatalf("deferring commit: %v", err)
	}
	if res.Deferred != 1 {
		t.Fatalf("res.Deferred = %d, want 1", res.Deferred)
	}
	if got := sys.RT.DeferredCount(); got != 1 {
		t.Fatalf("DeferredCount = %d, want 1", got)
	}
	if fs.committed != was {
		t.Error("deferred commit changed the binding immediately")
	}

	// Still active: a drain must keep it queued.
	if n, err := sys.RT.DrainDeferred(); err != nil || n != 0 {
		t.Fatalf("drain while active: n=%d err=%v, want 0,nil", n, err)
	}

	stepToHalt(t, sys)
	n, err := sys.RT.DrainDeferred()
	if err != nil {
		t.Fatalf("drain after quiesce: %v", err)
	}
	if n != 1 {
		t.Fatalf("drained %d ops, want 1", n)
	}
	if sys.RT.DeferredCount() != 0 {
		t.Error("queue not empty after drain")
	}
	if fs.committed == was || fs.committed == nil {
		t.Error("drain did not apply the deferred rebinding")
	}
	if sys.RT.Stats.DeferredPatches != 1 || sys.RT.Stats.DeferredDrained != 1 {
		t.Errorf("deferred stats = %+v", sys.RT.Stats)
	}
	if err := sys.RT.Audit(); err != nil {
		t.Fatalf("audit after drain: %v", err)
	}
	// Semantics: the drained B=0 variant no longer calls logmsg.
	logs := call(t, sys, "logs")
	call(t, sys, "foo")
	if call(t, sys, "logs") != logs {
		t.Error("drained binding still runs the B=1 variant")
	}
}

// TestStackActivenessViaReturnAddress: the CPU's PC sits in calc (a
// plain helper), but the return address into multi's committed variant
// is live on its stack — the conservative stack walk must still report
// the variant active.
func TestStackActivenessViaReturnAddress(t *testing.T) {
	sys := buildFig2(t)
	fs := parkInCommittedVariant(t, sys)
	v := fs.committed

	// Step onward until the PC leaves the variant for calc's body; the
	// frame that will return into the variant is now on the stack.
	calcAddr := sys.Machine.MustSymbol("calc")
	stepInto(t, sys, calcAddr, calcAddr+1)

	sys.RT.SetCommitOptions(CommitOptions{Mode: ModeStopMachine, OnActive: ActiveRefuse})
	if !sys.RT.isActive(fs) {
		t.Fatalf("variant [%#x,%#x) not reported active despite a live return address",
			v.Addr, v.Addr+uint64(v.Size))
	}
	if err := sys.SetSwitch("B", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RT.Commit(); !errors.Is(err, ErrFunctionActive) {
		t.Fatalf("commit with live return address: err = %v, want ErrFunctionActive", err)
	}
	stepToHalt(t, sys)
}

// TestTextPokeModeCommit: commits in ModeTextPoke go through the BRK
// protocol (TextPokes counted), end audit-clean with no residual BRK,
// and preserve commit semantics.
func TestTextPokeModeCommit(t *testing.T) {
	sys := buildFig2(t)
	sys.RT.SetCommitOptions(CommitOptions{Mode: ModeTextPoke})
	setAndCommit(t, sys, map[string]int64{"A": 1, "B": 0})
	if sys.RT.Stats.TextPokes == 0 {
		t.Fatal("ModeTextPoke commit performed no pokes")
	}
	if err := sys.RT.Audit(); err != nil {
		t.Fatalf("audit after poke-mode commit: %v", err)
	}
	call(t, sys, "foo")
	if call(t, sys, "calcs") != 1 || call(t, sys, "logs") != 0 {
		t.Error("poke-mode commit broke variant semantics")
	}
	if err := sys.RT.Revert(); err != nil {
		t.Fatal(err)
	}
	if err := sys.RT.Audit(); err != nil {
		t.Fatalf("audit after poke-mode revert: %v", err)
	}
}

// pokeSiteSrc calls a multiversed function from one site inside a
// loop, so a commit pokes that site while CPUs hold superblocks over
// it.
const pokeSiteSrc = `
multiverse int mode;
long hits;
multiverse void f(void) { if (mode) { hits += 2; } else { hits += 1; } }
void loop(long n) { long i; for (i = 0; i < n; i++) { f(); } }
`

func buildPokeSite(t *testing.T) (*System, uint64) {
	t.Helper()
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "poke.mvc", Text: pokeSiteSrc})
	if err != nil {
		t.Fatal(err)
	}
	f, ok := sys.RT.FuncByName("f")
	if !ok || len(sys.RT.sites[f]) != 1 {
		t.Fatal("f has no single call site")
	}
	sys.RT.SetCommitOptions(CommitOptions{Mode: ModeTextPoke})
	return sys, sys.RT.sites[f][0].desc.Addr
}

// TestTextPokeProtocol commits under ModeTextPoke while a CPU sits with
// its PC on the call site being poked: the phases arrive at PokeHook in
// order 1, 2, 3; during phases 1 and 2 the site starts with BRK and
// the racing CPU traps resumably on it, never decoding a hybrid; once
// the poke completes, the CPU executes the new call into the variant.
func TestTextPokeProtocol(t *testing.T) {
	sys, site := buildPokeSite(t)
	c := sys.Machine.CPU
	if err := sys.Machine.StartCall(c, "loop", 3); err != nil {
		t.Fatal(err)
	}
	stepInto(t, sys, site, site+1)
	var old [isa.CallSiteLen]byte
	if err := sys.Machine.Mem.Read(site, old[:]); err != nil {
		t.Fatal(err)
	}

	var phases []int
	var poked [isa.CallSiteLen]byte
	sys.Machine.PokeHook = func(phase int, addr, n uint64) {
		if addr != site {
			return // the commit's other pokes
		}
		phases = append(phases, phase)
		if n != isa.CallSiteLen {
			t.Errorf("phase %d: n = %d, want %d", phase, n, isa.CallSiteLen)
		}
		if err := sys.Machine.Mem.Read(site, poked[:]); err != nil {
			t.Fatal(err)
		}
		if phase == 3 {
			return
		}
		if poked[0] != byte(isa.BRK) {
			t.Errorf("phase %d: first byte %#02x, want BRK", phase, poked[0])
		}
		err := c.Step()
		if tf := cpu.AsTrap(err); tf == nil || tf.PC != site {
			t.Fatalf("phase %d: racing step = %v, want a trap at the site", phase, err)
		}
		c.PauseSpin()
	}
	setAndCommit(t, sys, map[string]int64{"mode": 1})
	sys.Machine.PokeHook = nil
	if !slices.Equal(phases, []int{1, 2, 3}) {
		t.Fatalf("site phases = %v, want [1 2 3]", phases)
	}
	if traps := c.Stats().Traps; traps != 2 {
		t.Errorf("Traps = %d, want 2", traps)
	}
	if poked == old {
		t.Fatal("the commit left the call site unchanged")
	}
	variant := sys.RT.byName["f"].committed
	if err := c.Step(); err != nil {
		t.Fatalf("post-poke step: %v", err)
	}
	if c.PC() != variant.Addr {
		t.Errorf("post-poke pc = %#x, want the variant at %#x", c.PC(), variant.Addr)
	}
}

// TestTextPokeInvalidatesSuperblocks warms two CPUs to superblock
// steady state over the call site, then commits under ModeTextPoke:
// the poke's flushes must kill blocks on every CPU, and each CPU must
// then run the loop exactly as a system that committed before any
// block was built.
func TestTextPokeInvalidatesSuperblocks(t *testing.T) {
	run := func(sys *System, c *cpu.CPU) uint64 {
		t.Helper()
		before := c.Stats().Instructions
		if err := sys.Machine.StartCall(c, "loop", 100); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(1 << 30); err != nil {
			t.Fatal(err)
		}
		return c.Stats().Instructions - before
	}
	cold, _ := buildPokeSite(t)
	setAndCommit(t, cold, map[string]int64{"mode": 1})
	want := run(cold, cold.Machine.CPU)

	sys, _ := buildPokeSite(t)
	if _, err := sys.Machine.AddCPU(); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetSwitch("mode", 1); err != nil {
		t.Fatal(err)
	}
	for _, c := range sys.Machine.CPUs() {
		run(sys, c)
		if dynamic := run(sys, c); dynamic == want {
			t.Fatalf("the generic body retires %d instructions, as many as the variant", dynamic)
		}
		if c.Stats().BlockBuilds == 0 {
			t.Fatal("no superblocks built over the loop")
		}
	}
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, c := range sys.Machine.CPUs() {
		if c.Stats().BlockInvalidates == 0 {
			t.Errorf("cpu %d: the poke invalidated no superblocks", i)
		}
		if got := run(sys, c); got != want {
			t.Errorf("cpu %d: loop retired %d instructions after the poke, want %d; a stale block ran", i, got, want)
		}
	}
}

// livePlatform reports one extra live code address, as if a CPU's
// stack held a return address there.
type livePlatform struct {
	*UserPlatform
	live uint64
}

func (p *livePlatform) LiveCodeAddrs() ([]uint64, bool) {
	addrs, complete := p.UserPlatform.LiveCodeAddrs()
	return append(addrs, p.live), complete
}

// TestPokeGuardRefusesLiveInteriorAddress: a live return address
// strictly inside a call-site window is no instruction boundary of the
// old or the new call, so a poke-mode commit must refuse that site's
// poke, roll back the sites and prologues it already poked, and leave
// the image byte-identical and audit-clean.
func TestPokeGuardRefusesLiveInteriorAddress(t *testing.T) {
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "three.mvc", Text: threeFuncsSrc})
	if err != nil {
		t.Fatal(err)
	}
	f3, ok := sys.RT.FuncByName("f3")
	if !ok || len(sys.RT.sites[f3]) != 1 {
		t.Fatal("f3 has no single call site")
	}
	site := sys.RT.sites[f3][0].desc.Addr
	rt, err := NewRuntime(sys.Machine.Image, &livePlatform{UserPlatform: &UserPlatform{M: sys.Machine}, live: site + 2})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetCommitOptions(CommitOptions{Mode: ModeTextPoke})
	if err := sys.SetSwitch("A", 1); err != nil {
		t.Fatal(err)
	}
	pre := snapshotExec(t, sys)

	_, err = rt.Commit()
	if !errors.Is(err, ErrCommitAborted) || !strings.Contains(err.Error(), "not a common instruction boundary") {
		t.Fatalf("commit with a live address inside site %#x: err = %v, want an aborted, refused poke", site, err)
	}
	if rt.Stats.TextPokes == 0 || rt.Stats.SitesRolledBack == 0 {
		t.Fatalf("the refusal came before any poke landed (pokes=%d, rolled back=%d)",
			rt.Stats.TextPokes, rt.Stats.SitesRolledBack)
	}
	assertExecEqual(t, sys, pre, "after the refused poke")
	if err := rt.Audit(); err != nil {
		t.Fatalf("audit after the refused poke: %v", err)
	}
}

// instBoundariesRef is the map-based boundary set the poke guard once
// built twice per poke, kept as instBoundary's reference: the
// addresses at which an instruction of code (loaded at base) begins.
// Undecodable bytes end the walk.
func instBoundariesRef(base uint64, code []byte) map[uint64]bool {
	out := make(map[uint64]bool, len(code))
	off := 0
	for off < len(code) {
		out[base+uint64(off)] = true
		in, err := isa.Decode(code[off:])
		if err != nil {
			break
		}
		off += in.Len
	}
	return out
}

// TestInstBoundaryMatchesReference checks the poke guard's boundary
// test against the reference set at every offset of real patch
// windows, with each window as both the old and the new content.
func TestInstBoundaryMatchesReference(t *testing.T) {
	const base = 0x40_1000
	call := isa.EncodeCall(0x1234)
	var cllm, sti, mov isa.Asm
	cllm.CallM(0x60_0000)
	sti.Sti()
	mov.Mov(1, 2)
	type window struct {
		name string
		code []byte
	}
	narrow := []window{
		{"call", call[:]},
		{"inline-empty", encodePatched(nil)},
		{"inline-sti", encodePatched(sti.Bytes())},
		{"inline-mov", encodePatched(mov.Bytes())},
		{"inline-full", encodePatched(bytes.Repeat([]byte{byte(isa.PAUSE)}, isa.CallSiteLen))},
		{"undecodable-tail", []byte{byte(isa.NOP), 0xFF, byte(isa.NOP), byte(isa.NOP), byte(isa.NOP)}},
	}
	// A pointer site's window: its CLLM, or a 5-byte patch padded with
	// NOPN to the 9-byte unit, as patchSite installs it.
	wide := []window{{"cllm", cllm.Bytes()}}
	for _, w := range narrow {
		code := append(append([]byte(nil), w.code...), isa.EncodeNop(isa.MemCallSiteLen-isa.CallSiteLen)...)
		wide = append(wide, window{w.name + "+nopn", code})
	}
	for _, set := range [][]window{narrow, wide} {
		for _, old := range set {
			oldRef := instBoundariesRef(base, old.code)
			for off := range old.code {
				if got, want := instBoundary(old.code, off), oldRef[base+uint64(off)]; got != want {
					t.Errorf("%s: instBoundary at +%d = %v, reference %v", old.name, off, got, want)
				}
			}
			for _, data := range set {
				dataRef := instBoundariesRef(base, data.code)
				for off := 1; off < len(data.code); off++ {
					a := base + uint64(off)
					got := instBoundary(old.code, off) && instBoundary(data.code, off)
					if want := oldRef[a] && dataRef[a]; got != want {
						t.Errorf("%s -> %s: common boundary at +%d = %v, reference %v", old.name, data.name, off, got, want)
					}
				}
			}
		}
	}
}

// TestAuditRejectsResidualBRK: a BRK instruction surviving in a site
// the runtime believes patched is exactly what a torn poke would leave
// behind; the auditor must name it.
func TestAuditRejectsResidualBRK(t *testing.T) {
	sys := buildFig2(t)
	setAndCommit(t, sys, map[string]int64{"A": 1, "B": 1})
	var st *siteState
	for _, sites := range sys.RT.sites {
		for _, s := range sites {
			if s.patched {
				st = s
			}
		}
	}
	if st == nil {
		t.Fatal("no patched site to corrupt")
	}
	// Simulate a stranded poke: BRK in memory AND in the shadow, so the
	// shadow-compare passes and the code check must catch it.
	brk := []byte{byte(isa.BRK)}
	if err := sys.Machine.Mem.WriteForce(st.desc.Addr, brk); err != nil {
		t.Fatal(err)
	}
	st.current[0] = byte(isa.BRK)
	err := sys.RT.Audit()
	if err == nil || !strings.Contains(err.Error(), "residual BRK") {
		t.Fatalf("audit of BRK-poisoned site: %v, want residual BRK error", err)
	}
}

// osrLoopSrc is a workload whose multiversed function has a real
// frame (parameter + induction variable) and a loop OSR point present
// in every variant, so an ActiveOSR commit against a CPU parked in
// its body succeeds by live frame transfer rather than falling back.
const osrLoopSrc = `
	multiverse int S;
	long ticks;
	multiverse void spin(ulong n) {
		for (ulong i = 0; i < n; i++) {
			if (S) { ticks = ticks + 2; }
			else { ticks = ticks + 1; }
		}
	}
	void drive(void) { spin(300); }
	long get_ticks(void) { return ticks; }
`

// TestOSRCommitPurgesDeferredQueue: a function queued by an
// ActiveDefer commit and then successfully OSR-committed must be
// purged from the deferred queue — DrainDeferred must not re-apply
// the stale patch. The sting in the tail: deferred operations apply
// with the switch values current at drain time, so a stale queued op
// plus an uncommitted switch flip would rebind to a variant nobody
// ever committed.
func TestOSRCommitPurgesDeferredQueue(t *testing.T) {
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "osrloop.mvc", Text: osrLoopSrc})
	if err != nil {
		t.Fatal(err)
	}
	setAndCommit(t, sys, map[string]int64{"S": 1})
	fs := sys.RT.byName["spin"]
	if fs == nil || fs.committed == nil {
		t.Fatal("spin not committed")
	}
	was := fs.committed
	if err := sys.Machine.StartCall(sys.Machine.CPU, "drive"); err != nil {
		t.Fatal(err)
	}
	stepInto(t, sys, was.Addr, was.Addr+uint64(was.Size))

	// Queue a rebinding against the active body.
	sys.RT.SetCommitOptions(CommitOptions{Mode: ModeStopMachine, OnActive: ActiveDefer})
	if err := sys.SetSwitch("S", 0); err != nil {
		t.Fatal(err)
	}
	res, err := sys.RT.Commit()
	if err != nil {
		t.Fatalf("deferring commit: %v", err)
	}
	if res.Deferred != 1 || sys.RT.DeferredCount() != 1 {
		t.Fatalf("deferred=%d queue=%d, want 1,1", res.Deferred, sys.RT.DeferredCount())
	}

	// Same commit under ActiveOSR: lands live via frame transfer and
	// must purge the queued op. A flight recorder pins the phase spans
	// the real runtime emits (the mvtrace rendering test uses synthetic
	// events; this ties the names to the engine).
	rec := trace.NewRecorder(256)
	Observers{Flight: rec}.Attach(sys.Machine, sys.RT)
	sys.RT.SetCommitOptions(CommitOptions{Mode: ModeStopMachine, OnActive: ActiveOSR})
	res2, err := sys.RT.Commit()
	if err != nil {
		t.Fatalf("OSR commit: %v", err)
	}
	if res2.Committed != 1 {
		t.Fatalf("OSR commit result = %+v, want 1 committed", res2)
	}
	if fs.committed == was || fs.committed == nil {
		t.Fatal("OSR commit did not rebind")
	}
	bound := fs.committed
	if sys.RT.Stats.OSRTransfers == 0 {
		t.Error("OSR commit transferred no frames (fell back?)")
	}
	if sys.RT.Stats.OSRFallbacks != 0 {
		t.Errorf("OSRFallbacks = %d, want 0", sys.RT.Stats.OSRFallbacks)
	}
	if got := sys.RT.DeferredCount(); got != 0 {
		t.Fatalf("DeferredCount after OSR commit = %d, want 0 (stale op not purged)", got)
	}
	phases := map[string]bool{}
	for _, ev := range rec.Dump("osr purge test").Events {
		if ev.Kind == trace.KindPhaseBegin.Name() {
			phases[ev.Name] = true
		}
	}
	if !phases["osr-herd"] || !phases["osr-transfer"] {
		t.Errorf("OSR commit emitted phases %v, want osr-herd and osr-transfer", phases)
	}

	// The transferred CPU finishes inside the S=0 body: some iterations
	// ran at +2 under the old binding, the rest at +1.
	stepToHalt(t, sys)
	ticks := call(t, sys, "get_ticks")
	if ticks < 300 || ticks >= 600 {
		t.Errorf("ticks = %d, want in [300,600) (transfer landed mid-loop)", ticks)
	}

	// Flip the switch back WITHOUT committing. If the stale queued op
	// survived, the drain below would apply it at today's S=1 and
	// rebind behind the user's back; the purge makes it a no-op.
	if err := sys.SetSwitch("S", 1); err != nil {
		t.Fatal(err)
	}
	n, err := sys.RT.DrainDeferred()
	if err != nil {
		t.Fatalf("drain after OSR commit: %v", err)
	}
	if n != 0 {
		t.Fatalf("drain re-applied %d stale op(s), want 0", n)
	}
	if fs.committed != bound {
		t.Error("drain disturbed the OSR-committed binding")
	}
	if err := sys.RT.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	// Bound semantics: another full run adds exactly 300 (+1 each).
	call(t, sys, "drive")
	if got := call(t, sys, "get_ticks"); got != ticks+300 {
		t.Errorf("ticks after bound rerun = %d, want %d", got, ticks+300)
	}
}

// TestParkedModeUnchanged: the zero-value options keep legacy
// semantics — no activeness check even with a CPU mid-function, no
// rendezvous, no pokes.
func TestParkedModeUnchanged(t *testing.T) {
	sys := buildFig2(t)
	fs := parkInCommittedVariant(t, sys)
	if err := sys.SetSwitch("B", 0); err != nil {
		t.Fatal(err)
	}
	// Legacy contract: the caller vouches for safety; commit applies.
	if _, err := sys.RT.Commit(); err != nil {
		t.Fatalf("parked-mode commit: %v", err)
	}
	if fs.committed == nil {
		t.Error("parked-mode commit did not rebind")
	}
	s := sys.RT.Stats
	if s.StopMachines+s.TextPokes+s.DeferredPatches+s.ActiveRefusals != 0 {
		t.Errorf("parked mode touched sync machinery: %+v", s)
	}
}

// twoCallsSrc calls a multiversed function twice in a row; its variant
// calls out, so every site stays a direct call instead of inlining.
const twoCallsSrc = `
	multiverse int A;
	long n;
	void helper(void) { n++; }
	multiverse void multi(void) { if (A) { helper(); } }
	void foo(void) { multi(); multi(); }
	long count(void) { return n; }
`

// TestDrainRechecksActiveness: a queued operation must re-check
// activeness inside the drain's rendezvous, revert and commit alike.
// The CPU sits on foo's second call site when the drain starts, so the
// outer check passes; the rendezvous then herds the CPU through the
// still-patched call into the variant, and the operation must go back
// on the queue instead of rebinding under it.
func TestDrainRechecksActiveness(t *testing.T) {
	for _, c := range []struct {
		name  string
		queue func(sys *System, fs *funcState) error
	}{
		{"revert", func(sys *System, fs *funcState) error { return sys.RT.RevertFunc(fs.fd.Generic) }},
		{"commit", func(sys *System, fs *funcState) error {
			if err := sys.SetSwitch("A", 0); err != nil {
				return err
			}
			_, err := sys.RT.CommitFunc(fs.fd.Generic)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "two.mvc", Text: twoCallsSrc})
			if err != nil {
				t.Fatal(err)
			}
			setAndCommit(t, sys, map[string]int64{"A": 1})
			fs := sys.RT.byName["multi"]
			bound := fs.committed
			if bound == nil {
				t.Fatal("multi not committed")
			}
			if err := sys.Machine.StartCall(sys.Machine.CPU, "foo"); err != nil {
				t.Fatal(err)
			}
			stepInto(t, sys, bound.Addr, bound.Addr+bound.Size)
			sys.RT.SetCommitOptions(CommitOptions{Mode: ModeStopMachine, OnActive: ActiveDefer})
			if err := c.queue(sys, fs); err != nil {
				t.Fatal(err)
			}
			if sys.RT.DeferredCount() != 1 {
				t.Fatalf("DeferredCount = %d, want the %s queued", sys.RT.DeferredCount(), c.name)
			}
			sites := sys.RT.sites[fs.fd.Generic]
			if len(sites) != 2 {
				t.Fatalf("multi has %d call sites, want 2", len(sites))
			}
			second := sites[0].desc.Addr
			if sites[1].desc.Addr > second {
				second = sites[1].desc.Addr
			}
			stepInto(t, sys, second, second+1)

			n, err := sys.RT.DrainDeferred()
			if err != nil {
				t.Fatal(err)
			}
			if pc := sys.Machine.CPU.PC(); pc < bound.Addr || pc >= bound.Addr+bound.Size {
				t.Fatalf("the drain's rendezvous left the CPU at %#x, outside the variant", pc)
			}
			if n != 0 || sys.RT.DeferredCount() != 1 {
				t.Fatalf("drain applied %d op(s), %d still queued; want 0 and the %s re-queued",
					n, sys.RT.DeferredCount(), c.name)
			}
			if fs.committed != bound {
				t.Fatal("the drain rebound multi under a CPU running its variant")
			}
			if err := sys.RT.Audit(); err != nil {
				t.Fatal(err)
			}
			stepToHalt(t, sys)
			if got := call(t, sys, "count"); got != 2 {
				t.Errorf("n = %d, want 2: both calls ran the bound variant", got)
			}
			if n, err := sys.RT.DrainDeferred(); err != nil || n != 1 {
				t.Fatalf("drain after halt: n=%d err=%v, want 1,nil", n, err)
			}
			if fs.committed == bound {
				t.Errorf("the quiescent drain did not apply the %s", c.name)
			}
		})
	}
}
