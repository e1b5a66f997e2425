// Command mvtop renders a refreshing terminal view of a multiverse
// metrics snapshot: top functions by variant residency, commit-latency
// percentiles, patch/flush rates and decode cache effectiveness.
//
// It reads the same Snapshot JSON everywhere it looks — live from a
// running mvrun's /metrics.json endpoint, or recorded from a JSONL
// sampler file — so a saved run replays exactly like a live one:
//
//	mvtop -addr localhost:9090            # poll a live mvrun
//	mvtop -file samples.jsonl             # replay a -sample recording
//	mvtop -file samples.jsonl -once       # print the final frame only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/metrics"
)

var (
	addr     = flag.String("addr", "", "poll http://addr/metrics.json of a live mvrun")
	file     = flag.String("file", "", "replay a JSONL sampler file written by mvrun -sample")
	interval = flag.Duration("interval", time.Second, "refresh / replay interval")
	once     = flag.Bool("once", false, "render a single frame and exit")
	topN     = flag.Int("top", 10, "function/variant rows to show")
)

func main() {
	flag.Parse()
	if (*addr == "") == (*file == "") {
		fmt.Fprintln(os.Stderr, "usage: mvtop (-addr host:port | -file samples.jsonl) [-interval 1s] [-once] [-top n]")
		os.Exit(2)
	}
	var err error
	if *file != "" {
		err = replayFile(*file)
	} else {
		err = pollLive(*addr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mvtop: %v\n", err)
		os.Exit(1)
	}
}

// replayFile steps through the rows of a JSONL sampler file, one frame
// per interval (or just the last frame with -once). A truncated final
// row — a run that died mid-write — is dropped rather than fatal, so
// crash recordings replay.
func replayFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	snaps, err := metrics.ReadSnapshotLog(f)
	if err != nil {
		return fmt.Errorf("%s: %w (is this a -sample-format jsonl file?)", path, err)
	}
	if len(snaps) == 0 {
		return fmt.Errorf("%s: no snapshots", path)
	}
	if *once {
		render(&snaps[len(snaps)-1], fmt.Sprintf("%s [%d/%d]", path, len(snaps), len(snaps)))
		return nil
	}
	for i := range snaps {
		clearScreen()
		render(&snaps[i], fmt.Sprintf("%s [%d/%d]", path, i+1, len(snaps)))
		if i < len(snaps)-1 {
			time.Sleep(*interval)
		}
	}
	return nil
}

// pollLive fetches /metrics.json until the serving mvrun goes away.
func pollLive(addr string) error {
	url := "http://" + addr + "/metrics.json"
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		snap, err := fetch(client, url)
		if err != nil {
			return err
		}
		if !*once {
			clearScreen()
		}
		render(snap, url)
		if *once {
			return nil
		}
		time.Sleep(*interval)
	}
}

func fetch(client *http.Client, url string) (*metrics.Snapshot, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

func clearScreen() { fmt.Print("\x1b[2J\x1b[H") }

// value returns the first series value of a family (the common case of
// unlabeled counters/gauges), 0 if absent.
func value(snap *metrics.Snapshot, name string) float64 {
	fam := snap.Find(name)
	if fam == nil {
		return 0
	}
	for _, s := range fam.Series {
		if s.Value != nil {
			return *s.Value
		}
	}
	return 0
}

func hist(snap *metrics.Snapshot, name string) *metrics.HistSnapshot {
	fam := snap.Find(name)
	if fam == nil {
		return nil
	}
	for _, s := range fam.Series {
		if s.Hist != nil {
			return s.Hist
		}
	}
	return nil
}

func render(snap *metrics.Snapshot, source string) {
	fmt.Printf("mvtop — %s\n", source)
	// A run restored from a checkpoint starts its cycle counter at the
	// checkpoint, not 0. Say so, and show the window this run actually
	// executed — the denominator rate math must use for the first
	// sample (cumulative counters were restored along with the clock).
	cycle := fmt.Sprintf("cycle %d", snap.Cycle)
	if snap.BaseCycle > 0 {
		cycle = fmt.Sprintf("cycle %d (restored @%d, ran %d)",
			snap.Cycle, snap.BaseCycle, snap.WindowCycles())
	}
	fmt.Printf("%s   instructions %.0f   commits %.0f   reverts %.0f\n",
		cycle,
		value(snap, "mv_instructions_total"),
		value(snap, "mv_commits_total"),
		value(snap, "mv_reverts_total"))
	fmt.Printf("decode cache hit %5.1f%%   superblock %5.1f%%   icache flushes/Minst %8.2f   protects/Minst %8.2f\n",
		value(snap, "mv_decode_hit_ratio")*100,
		value(snap, "mv_superblock_hit_ratio")*100,
		value(snap, "mv_icache_flush_rate_per_minst"),
		value(snap, "mv_protect_rate_per_minst"))

	if lat := hist(snap, "mv_commit_latency_cycles"); lat != nil && lat.Count > 0 {
		p50, _ := lat.Quantile(0.50)
		p90, _ := lat.Quantile(0.90)
		p99, _ := lat.Quantile(0.99)
		line := fmt.Sprintf("commit latency (modeled cycles): count %d  mean %.0f  p50<=%d  p90<=%d  p99<=%d",
			lat.Count, lat.Mean(), p50, p90, p99)
		if sites := hist(snap, "mv_commit_sites"); sites != nil && sites.Count > 0 {
			line += fmt.Sprintf("   sites/commit %.1f", sites.Mean())
		}
		fmt.Println(line)
	} else {
		fmt.Println("commit latency: no commits observed yet")
	}

	fmt.Println()
	renderResidency(snap)
}

// renderResidency prints the top function/variant pairs by cycles of
// residency, with each function's share of total tracked cycles.
func renderResidency(snap *metrics.Snapshot) {
	fam := snap.Find("mv_variant_residency_cycles")
	if fam == nil || len(fam.Series) == 0 {
		fmt.Println("no variant residency data (is a runtime attached?)")
		return
	}
	type row struct {
		fn, variant string
		cycles      float64
	}
	var rows []row
	var total float64
	for _, s := range fam.Series {
		if s.Value == nil {
			continue
		}
		rows = append(rows, row{s.Labels["function"], s.Labels["variant"], *s.Value})
		total += *s.Value
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].cycles != rows[j].cycles {
			return rows[i].cycles > rows[j].cycles
		}
		return rows[i].fn+rows[i].variant < rows[j].fn+rows[j].variant
	})
	if len(rows) > *topN {
		rows = rows[:*topN]
	}
	fmt.Printf("%-24s %-28s %14s %7s\n", "FUNCTION", "VARIANT", "CYCLES", "SHARE")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = r.cycles / total * 100
		}
		fmt.Printf("%-24s %-28s %14.0f %6.1f%%\n", r.fn, r.variant, r.cycles, share)
	}
}
