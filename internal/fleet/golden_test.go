package fleet

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestFleetFingerprintsGolden pins what mvperf's fleet workload checks
// on every op — the SHA-256 of Result.Fingerprint(), the requests served
// and the summed shard cycles — for its fleet shape (8 machines, 24
// rounds, chaos with 2 fault points) on four seeds and three shard
// counts. The determinism tests compare two runs of one tree, so they
// cannot see a change that moves both runs alike; this compares against
// testdata/fingerprints.golden. Rewrite it with -update only for a
// change meant to move fleet runs.
func TestFleetFingerprintsGolden(t *testing.T) {
	var got strings.Builder
	for _, seed := range []int64{1, 7, 11, 13} {
		for _, shards := range []int{1, 2, 4} {
			fl, err := New(Config{Seed: seed, Shards: shards, Machines: 8, Rounds: 24, Chaos: true, FaultPoints: 2})
			if err != nil {
				t.Fatal(err)
			}
			res, err := fl.Run()
			if err != nil {
				t.Fatalf("seed %d, %d shards: %v", seed, shards, err)
			}
			var cycles uint64
			for _, s := range res.Shards {
				cycles += s.Cycles
			}
			fmt.Fprintf(&got, "seed=%d shards=%d served=%d cycles=%d fingerprint=%x\n",
				seed, shards, res.Served, cycles, sha256.Sum256([]byte(res.Fingerprint())))
		}
	}
	path := filepath.Join("testdata", "fingerprints.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("%s differs:\ngot:\n%swant:\n%s", path, got.String(), want)
	}
}
