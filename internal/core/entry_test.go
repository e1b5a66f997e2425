package core

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// symbolizer names an address by the smallest image symbol or variant
// body that contains it ("foo+0x5", "multi.variant1"), so goldens
// survive layout changes; other addresses print in hex.
func symbolizer(sys *System) func(uint64) string {
	type sym struct {
		name       string
		addr, size uint64
	}
	var syms []sym
	for name, s := range sys.Machine.Image.Symbols {
		syms = append(syms, sym{name, s.Addr, s.Size})
	}
	for _, fd := range sys.RT.Funcs() {
		for i, v := range fd.Variants {
			syms = append(syms, sym{fmt.Sprintf("%s.variant%d", fd.Name, i), v.Addr, v.Size})
		}
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].size != syms[j].size {
			return syms[i].size < syms[j].size
		}
		return syms[i].name < syms[j].name
	})
	return func(a uint64) string {
		for _, s := range syms {
			if a < s.addr || a >= s.addr+s.size {
				continue
			}
			if a == s.addr {
				return s.name
			}
			return fmt.Sprintf("%s+%#x", s.name, a-s.addr)
		}
		return fmt.Sprintf("%#x", a)
	}
}

// eventLog is a tracer that renders every runtime event, with the
// causality span it was emitted under, as one line.
type eventLog struct {
	sym  func(uint64) string
	span uint64
	out  *strings.Builder
}

func (l *eventLog) SetSpan(id uint64) { l.span = id }

func (l *eventLog) Emit(k trace.Kind, addr, a, b uint64) { l.EmitName(k, addr, a, b, "") }

func (l *eventLog) EmitName(k trace.Kind, addr, a, b uint64, name string) {
	av := strconv.FormatUint(a, 10)
	if k == trace.KindProloguePatch || k == trace.KindSwitchValue && b == 1 {
		av = l.sym(a) // a variant or pointer target
	}
	fmt.Fprintf(l.out, "  %s %s a=%s b=%d", k.Name(), l.sym(addr), av, b)
	if name != "" {
		fmt.Fprintf(l.out, " %q", name)
	}
	fmt.Fprintf(l.out, " span=%d\n", l.span)
}

func (*eventLog) Step(pc, cycles uint64, in *isa.Inst) {}
func (*eventLog) Call(pc, target uint64)               {}
func (*eventLog) Ret(pc, target uint64)                {}

var hexWord = regexp.MustCompile(`0x[0-9a-f]+`)

// entryRun drives one system through runtime calls, logging each
// call's events, result, error and Stats.
type entryRun struct {
	t   *testing.T
	sys *System
	log *eventLog
}

func newEntryRun(t *testing.T, out *strings.Builder, title string, mode CommitMode, src string) *entryRun {
	t.Helper()
	sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "entry.mvc", Text: src})
	if err != nil {
		t.Fatal(err)
	}
	sys.RT.SetCommitOptions(CommitOptions{Mode: mode})
	r := &entryRun{t: t, sys: sys, log: &eventLog{sym: symbolizer(sys), out: out}}
	sys.RT.Tracer = r.log
	fmt.Fprintf(out, "## %s, %v mode\n", title, mode)
	return r
}

func (r *entryRun) set(name string, v int64) {
	r.t.Helper()
	if err := r.sys.SetSwitch(name, v); err != nil {
		r.t.Fatal(err)
	}
	fmt.Fprintf(r.log.out, "set %s=%d\n", name, v)
}

func (r *entryRun) setPtr(name, target string) {
	r.t.Helper()
	if err := r.sys.SetFnPtr(name, target); err != nil {
		r.t.Fatal(err)
	}
	fmt.Fprintf(r.log.out, "set %s=%s\n", name, target)
}

// addrOf is the generic address of a multiversed function, or the
// address of a switch.
func addrOf(t *testing.T, sys *System, name string) uint64 {
	t.Helper()
	if a, ok := sys.RT.FuncByName(name); ok {
		return a
	}
	if a, ok := sys.RT.VarByName(name); ok {
		return a
	}
	t.Fatalf("no function or switch %q", name)
	return 0
}

// do logs one call: a header, the events it emits, its result and
// error, and the Stats after it.
func (r *entryRun) do(call string, f func() (any, error)) {
	fmt.Fprintf(r.log.out, "> %s\n", call)
	res, err := f()
	msg := "<nil>"
	if err != nil {
		msg = hexWord.ReplaceAllStringFunc(err.Error(), func(h string) string {
			a, _ := strconv.ParseUint(h[2:], 16, 64)
			return r.log.sym(a)
		})
	}
	fmt.Fprintf(r.log.out, "= %+v err=%s\n  stats %+v\n", res, msg, r.sys.RT.Stats)
}

func (r *entryRun) commit() {
	r.do("Commit()", func() (any, error) { return r.sys.RT.Commit() })
}

func (r *entryRun) revert() {
	r.do("Revert()", func() (any, error) { return nil, r.sys.RT.Revert() })
}

func (r *entryRun) commitFunc(name string) {
	a := addrOf(r.t, r.sys, name)
	r.do("CommitFunc("+name+")", func() (any, error) { return r.sys.RT.CommitFunc(a) })
}

func (r *entryRun) revertFunc(name string) {
	a := addrOf(r.t, r.sys, name)
	r.do("RevertFunc("+name+")", func() (any, error) { return nil, r.sys.RT.RevertFunc(a) })
}

func (r *entryRun) commitRefs(name string) {
	a := addrOf(r.t, r.sys, name)
	r.do("CommitRefs("+name+")", func() (any, error) { return r.sys.RT.CommitRefs(a) })
}

func (r *entryRun) revertRefs(name string) {
	a := addrOf(r.t, r.sys, name)
	r.do("RevertRefs("+name+")", func() (any, error) { return nil, r.sys.RT.RevertRefs(a) })
}

// ptrSrc has a function-pointer switch with a target that stays a
// direct call (it calls out) and one that inlines (an empty body).
const ptrSrc = `
	long helperCalls;
	void helper(void) { helperCalls++; }
	void native_sti(void) { helper(); }
	void nop_sti(void) { }
	multiverse void (*pv_sti)(void);
	void irq_enable(void) { pv_sti(); }
`

// TestEntryPointEvents pins what each of the six Table-1 entry points
// and DrainDeferred emit, return and count, in every commit mode:
// every runtime event (kind, address, arguments, name, causality
// span), each result and error, and Stats after every call. The
// sequences cover binding, re-binding, no-op re-commits, falling back
// to the generic, pointer switches (unset, direct call, inlined), an
// aborted commit, a deferred commit drained later, and calls that name
// no function or switch. Rewrite the golden with -update.
func TestEntryPointEvents(t *testing.T) {
	var out strings.Builder
	for _, mode := range []CommitMode{ModeParked, ModeStopMachine, ModeTextPoke} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newEntryRun(t, &out, "figure 2", mode, figure2Src)
			r.set("A", 1)
			r.set("B", 1)
			r.commit()
			r.commit()
			r.set("B", 0)
			r.commitRefs("B")
			r.revertRefs("B")
			r.set("B", 1)
			r.commitFunc("multi")
			r.revertFunc("multi")
			r.commitFunc("multi")
			r.set("A", 2) // no variant's guard holds
			r.commitFunc("multi")
			r.set("A", 1)
			r.commit()
			r.revert()
			r.do("CommitRefs(0x1234)", func() (any, error) { return r.sys.RT.CommitRefs(0x1234) })
			r.do("RevertRefs(0x1234)", func() (any, error) { return nil, r.sys.RT.RevertRefs(0x1234) })
			r.do("CommitFunc(0x1234)", func() (any, error) { return r.sys.RT.CommitFunc(0x1234) })
			r.do("RevertFunc(0x1234)", func() (any, error) { return nil, r.sys.RT.RevertFunc(0x1234) })

			r = newEntryRun(t, &out, "pointer switch", mode, ptrSrc)
			r.commit() // unset: the indirect call stays
			r.setPtr("pv_sti", "native_sti")
			r.commit()
			r.setPtr("pv_sti", "nop_sti")
			r.commitRefs("pv_sti")
			r.revertRefs("pv_sti")
			r.setPtr("pv_sti", "native_sti")
			r.commit()
			r.revert()

			// The site's write flips protection twice per write (three
			// writes in text-poke mode); the fault lands on the
			// prologue's first flip.
			r = newEntryRun(t, &out, "aborted commit", mode, figure2Src)
			r.set("A", 1)
			r.set("B", 1)
			op := uint64(2)
			if mode == ModeTextPoke {
				op = 6
			}
			plan := faultinject.Exact(faultinject.Point{Kind: faultinject.KindProtect, Op: op})
			plan.Attach(r.sys.Machine)
			r.commit()
			faultinject.Detach(r.sys.Machine)
			r.commit()

			r = newEntryRun(t, &out, "deferred commit", mode, figure2Src)
			r.set("A", 1)
			r.set("B", 1)
			r.commit()
			fs := r.sys.RT.byName["multi"]
			v := fs.committed
			if err := r.sys.Machine.StartCall(r.sys.Machine.CPU, "foo"); err != nil {
				t.Fatal(err)
			}
			stepInto(t, r.sys, v.Addr, v.Addr+v.Size)
			r.sys.RT.SetCommitOptions(CommitOptions{Mode: mode, OnActive: ActiveDefer})
			r.set("B", 0)
			r.commit()
			stepToHalt(t, r.sys)
			r.do("DrainDeferred()", func() (any, error) { return r.sys.RT.DrainDeferred() })
		})
	}
	checkGolden(t, "entry_points.golden", out.String())
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update, and reports the first differing line.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestCommitRevertRestoresText: in every commit mode, a commit followed
// by the matching revert restores the text byte for byte, whichever
// bindings the pair selects.
func TestCommitRevertRestoresText(t *testing.T) {
	const src = figure2Src + ptrSrc
	type step func(t *testing.T, sys *System) error
	pairs := []struct {
		name           string
		commit, revert step
	}{
		{"all",
			func(t *testing.T, sys *System) error { _, err := sys.RT.Commit(); return err },
			func(t *testing.T, sys *System) error { return sys.RT.Revert() }},
		{"function",
			func(t *testing.T, sys *System) error {
				_, err := sys.RT.CommitFunc(addrOf(t, sys, "multi"))
				return err
			},
			func(t *testing.T, sys *System) error { return sys.RT.RevertFunc(addrOf(t, sys, "multi")) }},
		{"switch",
			func(t *testing.T, sys *System) error { _, err := sys.RT.CommitRefs(addrOf(t, sys, "B")); return err },
			func(t *testing.T, sys *System) error { return sys.RT.RevertRefs(addrOf(t, sys, "B")) }},
		{"pointer switch",
			func(t *testing.T, sys *System) error {
				_, err := sys.RT.CommitRefs(addrOf(t, sys, "pv_sti"))
				return err
			},
			func(t *testing.T, sys *System) error { return sys.RT.RevertRefs(addrOf(t, sys, "pv_sti")) }},
	}
	for _, mode := range []CommitMode{ModeParked, ModeStopMachine, ModeTextPoke} {
		for _, p := range pairs {
			t.Run(mode.String()+"/"+p.name, func(t *testing.T) {
				sys, err := BuildSystem(GenOptions{}, nil, Source{Name: "restore.mvc", Text: src})
				if err != nil {
					t.Fatal(err)
				}
				sys.RT.SetCommitOptions(CommitOptions{Mode: mode})
				if err := sys.SetSwitch("A", 1); err != nil {
					t.Fatal(err)
				}
				if err := sys.SetSwitch("B", 1); err != nil {
					t.Fatal(err)
				}
				if err := sys.SetFnPtr("pv_sti", "native_sti"); err != nil {
					t.Fatal(err)
				}
				pre := snapshotExec(t, sys)
				before := sys.RT.Stats.SitesPatched + sys.RT.Stats.SitesInlined
				if err := p.commit(t, sys); err != nil {
					t.Fatal(err)
				}
				if sys.RT.Stats.SitesPatched+sys.RT.Stats.SitesInlined == before {
					t.Fatal("the commit patched nothing")
				}
				if err := p.revert(t, sys); err != nil {
					t.Fatal(err)
				}
				assertExecEqual(t, sys, pre, "after commit and revert")
				if err := sys.RT.Audit(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestEntryPointErrorsAreTyped: a refusal to rebind an active function
// matches ErrFunctionActive through every entry point's wrapping.
func TestEntryPointErrorsAreTyped(t *testing.T) {
	sys := buildFig2(t)
	fs := parkInCommittedVariant(t, sys)
	sys.RT.SetCommitOptions(CommitOptions{Mode: ModeStopMachine, OnActive: ActiveRefuse})
	if err := sys.SetSwitch("B", 0); err != nil {
		t.Fatal(err)
	}
	bAddr, _ := sys.RT.VarByName("B")
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"Commit", func() error { _, err := sys.RT.Commit(); return err }},
		{"CommitFunc", func() error { _, err := sys.RT.CommitFunc(fs.fd.Generic); return err }},
		{"CommitRefs", func() error { _, err := sys.RT.CommitRefs(bAddr); return err }},
		{"Revert", sys.RT.Revert},
		{"RevertFunc", func() error { return sys.RT.RevertFunc(fs.fd.Generic) }},
		{"RevertRefs", func() error { return sys.RT.RevertRefs(bAddr) }},
	} {
		if err := c.call(); !errors.Is(err, ErrFunctionActive) {
			t.Errorf("%s: err = %v, want ErrFunctionActive", c.name, err)
		}
	}
	stepToHalt(t, sys)
}
