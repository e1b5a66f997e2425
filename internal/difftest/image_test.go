package difftest

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/grepsim"
	"repro/internal/kernelsim"
	"repro/internal/link"
	"repro/internal/muslsim"
	"repro/internal/pysim"
	"repro/internal/snapshot"
)

// traceSmokeSrc is the Makefile's trace-smoke program.
const traceSmokeSrc = `multiverse int feature_enabled;
long fast_calls;
void fast_path(void) { fast_calls++; }
void slow_path(void) { }
multiverse void process(void) { if (feature_enabled) { fast_path(); } else { slow_path(); } }
void handle_request(void) { process(); }
`

// TestImageGoldens pins snapshot.ImageSum of every image the
// experiments, the fleet and the smoke programs build, so a compiler
// change that must not move generated code can be checked byte for
// byte against testdata/images.golden. Rewrite with -update.
func TestImageGoldens(t *testing.T) {
	var lines []string
	sum := func(name string, img *link.Image, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines = append(lines, fmt.Sprintf("%s %x", name, snapshot.ImageSum(img)))
	}
	type system interface{ System() *core.System }
	built := func(name string, s system, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum(name, s.System().Machine.Image, nil)
	}

	for _, b := range []kernelsim.Fig1Binding{kernelsim.Fig1Static, kernelsim.Fig1Dynamic, kernelsim.Fig1Multiverse} {
		for _, smp := range []bool{false, true} {
			s, err := kernelsim.BuildFig1(b, smp)
			built(fmt.Sprintf("fig1/%d/%s", b, smpLabel[smp]), s, err)
		}
	}
	for k := kernelsim.SpinMainline; k <= kernelsim.SpinStaticUP; k++ {
		s, err := kernelsim.BuildSpin(k)
		built(fmt.Sprintf("spin/%d", k), s, err)
	}
	for k := kernelsim.PVCurrent; k <= kernelsim.PVDisabled; k++ {
		for _, env := range []kernelsim.PVEnv{kernelsim.EnvNative, kernelsim.EnvXen} {
			if k == kernelsim.PVDisabled && env == kernelsim.EnvXen {
				continue // BuildPV refuses this pair
			}
			s, err := kernelsim.BuildPV(k, env)
			built(fmt.Sprintf("pvops/%d/%d", k, env), s, err)
		}
	}
	for _, k := range []kernelsim.AltKernel{kernelsim.AltMacro, kernelsim.AltMultiverse} {
		for _, feat := range []bool{false, true} {
			s, err := kernelsim.BuildAlt(k, feat)
			built(fmt.Sprintf("alt/%d/%v", k, feat), s, err)
		}
	}
	cs, err := kernelsim.BuildManyCallSites(kernelsim.PaperCallSites)
	if err != nil {
		t.Fatalf("callsites: %v", err)
	}
	sum("callsites", cs.Machine.Image, nil)
	for _, b := range []muslsim.Build{muslsim.Plain, muslsim.Multiverse} {
		m, err := muslsim.BuildMusl(b)
		built(fmt.Sprintf("musl/%d", b), m, err)
	}
	for _, b := range []grepsim.Build{grepsim.Plain, grepsim.Multiverse} {
		g, err := grepsim.BuildGrep(b)
		built(fmt.Sprintf("grep/%d", b), g, err)
	}
	for _, b := range []pysim.Build{pysim.Plain, pysim.Multiverse} {
		p, err := pysim.BuildPython(b)
		built(fmt.Sprintf("python/%d", b), p, err)
	}
	for _, src := range []core.Source{
		{Name: "fleet.mvc", Text: fleet.GuestSource},
		{Name: "mv-trace-smoke", Text: traceSmokeSrc},
		{Name: "mv-ckpt-smoke", Text: ckptSmokeSrc},
	} {
		img, _, err := core.BuildImage(core.GenOptions{}, src)
		sum(src.Name, img, err)
	}

	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "images.golden")
	if *updateGolden {
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
		t.Errorf("image sums differ from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
