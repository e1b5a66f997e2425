package difftest

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// traceSmokeSrc is the Makefile's trace-smoke program.
const traceSmokeSrc = `multiverse int feature_enabled;
long fast_calls;
void fast_path(void) { fast_calls++; }
void slow_path(void) { }
multiverse void process(void) { if (feature_enabled) { fast_path(); } else { slow_path(); } }
void handle_request(void) { process(); }
`

// ckptSmokeSrc is the Makefile's checkpoint-smoke program.
const ckptSmokeSrc = `multiverse int mode;
long work;
multiverse void step(void) { if (mode) { work += 3; } else { work += 1; } }
long spin(long n) { long i; for (i = 0; i < n; i++) { step(); } return work; }
`

// TestImageGoldens pins snapshot.ImageSum of every image the workload
// table builds (the experiments, the fleet guest and the smoke
// programs), so a compiler change that must not move generated code can
// be checked byte for byte against testdata/images.golden. Rewrite
// with -update.
func TestImageGoldens(t *testing.T) {
	var got strings.Builder
	for _, w := range workloads {
		e := &env{t: t}
		w.run(e)
		for i, c := range e.cells {
			fmt.Fprintf(&got, "%s %x\n", c.name, snapshot.ImageSum(e.systems[i].Machine.Image))
		}
	}
	checkGolden(t, "images.golden", got.String())
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		must(t, os.WriteFile(path, []byte(got), 0o644))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs:\ngot:\n%swant:\n%s", path, got, want)
	}
}
