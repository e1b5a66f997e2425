package chaos

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestResultGoldens pins the Result of every run of a fixed sweep, in
// the shapes mvstress sweeps: sequential runs on one and two CPUs, and
// concurrent runs on one and two CPUs under each commit mode and
// activeness policy, on both workloads, for seeds 1-4 of 20 steps. A
// refactor of the harness or the runtime that must not move a run
// compares against testdata/results.golden; a change meant to move
// runs rewrites it with -update, and the diff shows which ones moved.
func TestResultGoldens(t *testing.T) {
	var cfgs []Config
	for _, w := range []string{"e1", "e4"} {
		cfgs = append(cfgs, Config{Workload: w}, Config{Workload: w, SMP: true})
		for _, mode := range []string{"stop", "poke"} {
			for _, pol := range []string{"defer", "osr"} {
				for _, n := range []int{1, 2} {
					cfgs = append(cfgs, Config{Workload: w, Concurrent: true, CPUs: n, Mode: mode, OnActive: pol})
				}
			}
		}
	}
	var lines []string
	for _, cfg := range cfgs {
		cfg.Steps = 20
		for seed := int64(1); seed <= 4; seed++ {
			res, err := Run(seed, cfg)
			if err != nil {
				t.Fatalf("%+v seed %d: %v", cfg, seed, err)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%s smp=%v cpus=%d mode=%s onactive=%s %s",
				cfg.Workload, cfg.SMP, cfg.CPUs, cfg.Mode, cfg.OnActive, got))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "results.golden")
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
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Errorf("%s line %d:\ngot:  %s", path, i+1, gl[i])
				if i < len(wl) {
					t.Errorf("want: %s", wl[i])
				}
			}
		}
		if len(wl) > len(gl) {
			t.Errorf("%s: %d lines, want %d", path, len(gl), len(wl))
		}
	}
}
