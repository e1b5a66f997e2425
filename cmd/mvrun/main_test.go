package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// The two programs of the Makefile's trace-smoke and checkpoint-smoke
// targets, under the unit names mvcc gives them there.
const (
	traceSmokeSrc = `multiverse int feature_enabled;
long fast_calls;
void fast_path(void) { fast_calls++; }
void slow_path(void) { }
multiverse void process(void) { if (feature_enabled) { fast_path(); } else { slow_path(); } }
void handle_request(void) { process(); }
`
	ckptSmokeSrc = `multiverse int mode;
long work;
multiverse void step(void) { if (mode) { work += 3; } else { work += 1; } }
long spin(long n) { long i; for (i = 0; i < n; i++) { step(); } return work; }
`
)

// buildImage compiles src the way mvcc does and writes the image into
// dir.
func buildImage(t *testing.T, dir, name, src string) string {
	t.Helper()
	img, _, err := core.BuildImage(core.GenOptions{MaxVariants: core.DefaultMaxVariants},
		core.Source{Name: name, Text: src})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".img")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runMvrun calls run on img with the given flags (and -set values)
// and returns what it printed on stdout. Every flag it sets goes back
// to its default afterwards.
func runMvrun(t *testing.T, img string, flags map[string]string, set ...string) string {
	t.Helper()
	for name, v := range flags {
		if err := flag.Set(name, v); err != nil {
			t.Fatal(err)
		}
	}
	sets = set
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	defer func() {
		os.Stdout = stdout
		out.Close()
		sets = nil
		for name := range flags {
			f := flag.Lookup(name)
			f.Value.Set(f.DefValue)
		}
	}()
	if err := run(img); err != nil {
		t.Fatalf("mvrun %v: %v", flags, err)
	}
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update. A name ending in .sha256 pins only got's length and
// SHA-256, for outputs too large to keep whole.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	if strings.HasSuffix(name, ".sha256") {
		got = []byte(fmt.Sprintf("%d bytes, sha256 %x\n", len(got), sha256.Sum256(got)))
	}
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
}

// TestObserverGoldens pins what each observer writes for the
// trace-smoke and checkpoint-smoke programs: the Chrome trace and the
// folded profile, the -itrace listing of the whole run, and a metric
// sample every 1000 cycles. Rewrite with -update and review the diff.
func TestObserverGoldens(t *testing.T) {
	dir := t.TempDir()
	ts := buildImage(t, dir, "mv-trace-smoke", traceSmokeSrc)
	ck := buildImage(t, dir, "mv-ckpt-smoke", ckptSmokeSrc)

	traceOut, profOut := filepath.Join(dir, "t.json"), filepath.Join(dir, "p.folded")
	runMvrun(t, ts, map[string]string{"entry": "handle_request", "commit": "true",
		"trace": traceOut, "profile": profOut}, "feature_enabled=1")
	checkGolden(t, "trace_smoke.json", readFile(t, traceOut))
	checkGolden(t, "trace_smoke.folded", readFile(t, profOut))

	itrace := map[string]string{"itrace": "true", "trace-limit": "1000000"}
	itrace["entry"], itrace["commit"] = "handle_request", "true"
	checkGolden(t, "trace_smoke.itrace", []byte(runMvrun(t, ts, itrace, "feature_enabled=1")))

	itrace = map[string]string{"itrace": "true", "trace-limit": "1000000", "entry": "spin", "args": "400"}
	checkGolden(t, "ckpt_smoke.itrace.sha256", []byte(runMvrun(t, ck, itrace)))

	sampleOut := filepath.Join(dir, "s.csv")
	runMvrun(t, ck, map[string]string{"entry": "spin", "args": "400",
		"sample": sampleOut, "sample-format": "csv", "sample-every": "1000"})
	checkGolden(t, "ckpt_smoke.sample.csv", readFile(t, sampleOut))
}

// TestObserversKeepCheckpoint: attaching an observer never moves the
// point where a cycle checkpoint pauses the run, so -trace, -profile,
// -itrace and -sample each write the snapshot an unobserved run
// writes, byte for byte.
func TestObserversKeepCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ck := buildImage(t, dir, "mv-ckpt-smoke", ckptSmokeSrc)
	snap := func(name string, observer map[string]string) []byte {
		path := filepath.Join(dir, name+".snap")
		flags := map[string]string{"entry": "spin", "args": "400",
			"checkpoint": "1000", "checkpoint-out": path}
		for k, v := range observer {
			flags[k] = v
		}
		runMvrun(t, ck, flags)
		return readFile(t, path)
	}
	want := snap("plain", nil)
	checkGolden(t, "ckpt_smoke.1000.snap.sha256", want)
	for name, observer := range map[string]map[string]string{
		"trace":   {"trace": filepath.Join(dir, "t.json")},
		"profile": {"profile": filepath.Join(dir, "p.folded")},
		"itrace":  {"itrace": "true"},
		"sample":  {"sample": filepath.Join(dir, "s.csv"), "sample-every": "1000"},
	} {
		if got := snap(name, observer); !bytes.Equal(got, want) {
			t.Errorf("-%s moves the checkpoint: snapshot sha256 %x, unobserved %x",
				name, sha256.Sum256(got), sha256.Sum256(want))
		}
	}
}
