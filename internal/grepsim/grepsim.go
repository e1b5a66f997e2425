// Package grepsim reproduces the GNU grep case study (§6.2.3): at
// startup grep decides from the locale and the pattern whether the
// matching loop must handle multi-byte (UTF-8) characters; the mode is
// fixed afterwards, which makes it a multiverse candidate. The paper
// runs the pattern "a.a" over a 2 GiB file of hexadecimal-formatted
// random numbers and measures end-to-end runtime (−2.73 %).
//
// Here the corpus is a scaled-down in-memory buffer of the same
// content class, the matcher processes it line by line (as grep does),
// and the multi-byte prescan guard sits on the per-line path.
package grepsim

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/core"
)

// CorpusSize is the size of the scaled-down input buffer.
const CorpusSize = 1 << 16

// Build selects plain (dynamic mode checks) or multiversed grep.
type Build int

// The two grep builds.
const (
	Plain Build = iota
	Multiverse
)

func (b Build) String() string {
	if b == Multiverse {
		return "w/ Multiverse"
	}
	return "w/o Multiverse"
}

func grepSource(b Build) string {
	attr := ""
	if b == Multiverse {
		attr = "multiverse "
	}
	return fmt.Sprintf(`
	%[1]sint mb_mode; // multi-byte locale handling required?
	char text[%[2]d];
	long mb_chars;

	// mb_prescan models grep's multi-byte pass over a line: it counts
	// the characters that would need mbrtowc() treatment.
	void mb_prescan(long off, long len) {
		for (long i = 0; i < len; i++) {
			// Bytes are examined as unsigned char, like mbrtowc does;
			// plain char is signed and would hide the high-bit bytes.
			if ((uchar)text[off + i] > 127) { mb_chars++; }
		}
	}

	// match_line searches one line for the pattern "a.a". The mode
	// check is the variation point the paper multiverses: fixed after
	// startup, evaluated per line otherwise.
	%[1]slong match_line(long off, long len) {
		if (mb_mode) {
			mb_prescan(off, len);
		}
		long matches = 0;
		for (long i = 0; i + 2 < len; i++) {
			if (text[off + i] == 'a') {
				if (text[off + i + 2] == 'a') { matches++; }
			}
		}
		return matches;
	}

	// grep_run walks the buffer line by line (newline-separated) and
	// returns the total match count.
	long grep_run(long n) {
		long matches = 0;
		long start = 0;
		for (long i = 0; i < n; i++) {
			if (text[i] == '\n') {
				matches += match_line(start, i - start);
				start = i + 1;
			}
		}
		if (start < n) {
			matches += match_line(start, n - start);
		}
		return matches;
	}

	ulong bench_grep(long n) {
		ulong t0 = __rdtsc();
		long m = grep_run(n);
		ulong t1 = __rdtsc();
		mb_chars = mb_chars + 0 * m; // keep m alive
		return t1 - t0;
	}
	`, attr, CorpusSize)
}

// Grep is one built grep binary with a loaded corpus.
type Grep struct {
	Build Build
	sys   *core.System
	size  int
}

// BuildGrep compiles one flavor and loads the standard corpus.
func BuildGrep(b Build, obs ...core.Observers) (*Grep, error) {
	sys, err := core.BuildSystem(core.GenOptions{}, core.Observed(obs),
		core.Source{Name: "grep", Text: grepSource(b)})
	if err != nil {
		return nil, err
	}
	g := &Grep{Build: b, sys: sys}
	if err := g.LoadCorpus(Corpus(CorpusSize)); err != nil {
		return nil, err
	}
	return g, nil
}

// System exposes the underlying system.
func (g *Grep) System() *core.System { return g.sys }

// Corpus generates n bytes of hexadecimal-formatted random numbers,
// one number per line — the paper's workload class. The generator is
// seeded deterministically so every build sees identical input.
func Corpus(n int) []byte {
	rng := rand.New(rand.NewSource(20190325)) // EuroSys'19 conference day
	out := make([]byte, 0, n)
	for len(out) < n {
		out = append(out, []byte(fmt.Sprintf("%016x\n", rng.Uint64()))...)
	}
	return out[:n]
}

// LoadCorpus writes the input buffer into the grep process.
func (g *Grep) LoadCorpus(data []byte) error {
	if len(data) > CorpusSize {
		return fmt.Errorf("grepsim: corpus %d exceeds buffer %d", len(data), CorpusSize)
	}
	addr, err := g.sys.Machine.Symbol("text")
	if err != nil {
		return err
	}
	if err := g.sys.Machine.Mem.Write(addr, data); err != nil {
		return err
	}
	g.size = len(data)
	return nil
}

// SetMode fixes the multi-byte mode after "startup" (for the
// multiversed build this is the commit grep performs once the locale
// and pattern are known).
func (g *Grep) SetMode(multibyte bool) error {
	v := uint64(0)
	if multibyte {
		v = 1
	}
	if g.Build == Plain {
		return g.sys.Machine.WriteGlobal("mb_mode", 4, v)
	}
	if err := g.sys.SetSwitch("mb_mode", int64(v)); err != nil {
		return err
	}
	_, err := g.sys.RT.Commit()
	return err
}

// Matches runs grep once and returns the match count, for correctness
// checks against a host-side reference.
func (g *Grep) Matches() (uint64, error) {
	return g.sys.Machine.CallNamed("grep_run", uint64(g.size))
}

// ReferenceMatches is the host-side oracle for the "a.a" pattern over
// newline-separated lines.
func ReferenceMatches(data []byte) uint64 {
	var total uint64
	start := 0
	countLine := func(line []byte) {
		for i := 0; i+2 < len(line); i++ {
			if line[i] == 'a' && line[i+2] == 'a' {
				total++
			}
		}
	}
	for i, b := range data {
		if b == '\n' {
			countLine(data[start:i])
			start = i + 1
		}
	}
	if start < len(data) {
		countLine(data[start:])
	}
	return total
}

// Measure returns end-to-end cycles for one full grep run over the
// corpus.
func (g *Grep) Measure(samples int) (bench.Result, error) {
	one := func() (float64, error) {
		v, err := g.sys.Machine.CallNamed("bench_grep", uint64(g.size))
		return float64(v), err
	}
	for i := 0; i < 2; i++ {
		if _, err := one(); err != nil {
			return bench.Result{}, err
		}
	}
	var firstErr error
	res := bench.Measure(samples, func() float64 {
		v, err := one()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	})
	return res, firstErr
}
