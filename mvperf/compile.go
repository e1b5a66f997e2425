package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/snapshot"
)

// paperCallSites is the number of spinlock call sites the paper's
// kernel records (§6.1). The generator rounds up to whole subsystem
// functions, so the E7 kernel has 1162.
const paperCallSites = 1161

// e7Kernel reproduces the source generator of
// kernelsim.BuildManyCallSites: a multiversed spinlock pair and
// (n+1)/2 subsystem functions that each take and release the lock once.
func e7Kernel(n int) string {
	var sb strings.Builder
	sb.WriteString(`
		multiverse int config_smp;
		ulong lock_word;
		long preempt_count;
		multiverse void spin_lock(ulong* l) {
			preempt_count++;
			if (config_smp) {
				while (__xchg(l, 1)) { while (*l) { __pause(); } }
			}
		}
		multiverse void spin_unlock(ulong* l) {
			if (config_smp) { *l = 0; }
			preempt_count--;
		}
	`)
	for i := 0; i < (n+1)/2; i++ {
		fmt.Fprintf(&sb, "void subsys_%d(void) { spin_lock(&lock_word); spin_unlock(&lock_word); }\n", i)
	}
	return sb.String()
}

// The corpus crosses three properties the compiler's cost depends on,
// at three levels each: call sites per unit (twice the caller count;
// descriptor and link work), switches × domain size (the variant
// product, which drives variantgen, opt and codegen, and how many
// variants merge) and statements per multiversed body (parse and
// sema). The seed picks literals, statement order, call targets and
// unit order but never a shape or a source length, so every seed
// compiles the same amount of source.
var (
	callerLevels = []int{16, 128, 512}
	switchLevels = []struct{ switches, domain int }{{1, 2}, {2, 3}, {3, 4}}
	stmtLevels   = []int{4, 16, 40}
)

const mvFuncsPerUnit = 4

// unit is one corpus entry. The reference pass boots it, sets the
// switches to values, runs entry on the generic code, commits, and
// runs entry again on the committed variants.
type unit struct {
	src      core.Source
	switches []string
	values   []int64
	entry    string
	kernel   bool // the E7 kernel: entry returns nothing; check the lock instead
}

// corpus generates the seeded compile corpus.
func corpus(seed int64) []unit {
	r := newRNG(seed, streamCompile)
	units := []unit{{
		src:      core.Source{Name: "bigkernel", Text: e7Kernel(paperCallSites)},
		switches: []string{"config_smp"},
		values:   []int64{1},
		entry:    "subsys_0",
		kernel:   true,
	}}
	for _, callers := range callerLevels {
		for _, sw := range switchLevels {
			for _, stmts := range stmtLevels {
				units = append(units, genUnit(r, len(units), callers, sw.switches, sw.domain, stmts))
			}
		}
	}
	order := r.perm(len(units))
	out := make([]unit, len(units))
	for i, j := range order {
		out[i] = units[j]
	}
	return out
}

// lit draws a two-digit literal, so literals never change a unit's
// source length.
func lit(r *rng) int { return 10 + r.intn(90) }

func genUnit(r *rng, id, callers, switches, domain, stmts int) unit {
	p := fmt.Sprintf("u%02d_", id)
	u := unit{entry: p + "main"}
	dom := make([]string, domain)
	for v := range dom {
		dom[v] = strconv.Itoa(v)
	}
	var b strings.Builder
	for k := 0; k < switches; k++ {
		name := fmt.Sprintf("%scfg%d", p, k)
		fmt.Fprintf(&b, "multiverse(%s) int %s;\n", strings.Join(dom, ", "), name)
		u.switches = append(u.switches, name)
		u.values = append(u.values, int64((k+1)%domain))
	}
	fmt.Fprintf(&b, "long %sacc;\n", p)
	for f := 0; f < mvFuncsPerUnit; f++ {
		fmt.Fprintf(&b, "multiverse long %sf%d(long x) {\n\tlong r = x;\n", p, f)
		// One guard per switch puts every switch into the variant
		// product; values on the same side of a threshold compile to
		// the same body, which variant merging folds.
		for k := 0; k < switches; k++ {
			fmt.Fprintf(&b, "\tif (%scfg%d > %d) { r = r * %d + %d; } else { r = r - %d; }\n",
				p, k, (k+f)%(domain-1), lit(r), lit(r), lit(r))
		}
		for _, j := range r.perm(stmts) {
			b.WriteString(genStmt(r, p, j, switches, domain))
		}
		b.WriteString("\treturn r;\n}\n")
	}
	for c := 0; c < callers; c++ {
		fmt.Fprintf(&b, "void %ss%d(void) { %sacc += %sf%d(%d); %sacc ^= %sf%d(%d); }\n",
			p, c, p, p, r.intn(mvFuncsPerUnit), lit(r), p, p, r.intn(mvFuncsPerUnit), lit(r))
	}
	fmt.Fprintf(&b, "long %smain(void) {\n\t%sacc = 0;\n", p, p)
	for c := 0; c < callers; c++ {
		fmt.Fprintf(&b, "\t%ss%d();\n", p, c)
	}
	fmt.Fprintf(&b, "\treturn %sacc;\n}\n", p)
	u.src = core.Source{Name: p + "unit", Text: b.String()}
	return u
}

// genStmt renders body statement j. Its template, switch and compared
// value depend on j alone, so every seed generates the same set of
// distinct variants.
func genStmt(r *rng, p string, j, switches, domain int) string {
	switch j % 4 {
	case 0:
		return fmt.Sprintf("\tif (%scfg%d == %d) { r = r + %d; }\n", p, j%switches, j%domain, lit(r))
	case 1:
		return fmt.Sprintf("\tr = r ^ (r >> %d);\n", 10+r.intn(6))
	case 2:
		return fmt.Sprintf("\tfor (long i%d = 0; i%d < %d; i%d++) { r = r + (i%d ^ %d); }\n", j, j, 2+j%2, j, j, lit(r))
	default:
		return fmt.Sprintf("\tr = r * %d + %d;\n", lit(r), lit(r))
	}
}

// compileWorkload builds one corpus unit per op with core.BuildImage
// and checks that the image is identical to the reference build.
type compileWorkload struct {
	tr     *tracer
	units  []unit
	refs   []unitRef
	tokens float64 // corpus tokens, counted by a traced reference pass
	lexed  float64 // tokens lexed by traced ops
}

type unitRef struct {
	sum          [32]byte
	bytes        int
	raw, merged  int
	cycles, want uint64 // guest cycles and result of entry after the commit
}

func (c *compileWorkload) build(seed int64) error {
	c.units = corpus(seed)
	c.refs = make([]unitRef, len(c.units))
	return nil
}

func (c *compileWorkload) passLen() int { return len(c.units) }

func (c *compileWorkload) op(i int) (opStat, error) {
	u := &c.units[i%len(c.units)]
	ref := &c.refs[i%len(c.units)]
	start := time.Now()
	img, rep, toks, err := buildImage(c.tr, u.src)
	st := opStat{latency: time.Since(start), work: float64(len(u.src.Text))}
	if err != nil {
		return st, fmt.Errorf("%s: %w", u.src.Name, err)
	}
	c.lexed += float64(toks)
	var sum [32]byte
	c.tr.do("snapshot.image_sum", func() error { sum = snapshot.ImageSum(img); return nil })
	if i >= len(c.units) {
		if sum != ref.sum || imageBytes(img) != ref.bytes {
			return st, fmt.Errorf("%s: image differs from the reference build", u.src.Name)
		}
		return st, nil
	}
	ref.sum, ref.bytes = sum, imageBytes(img)
	for _, f := range rep.Functions {
		ref.raw += f.RawVariants
		ref.merged += f.MergedVariants
	}
	c.tokens += float64(toks)
	ref.cycles, ref.want, err = c.run(u, img)
	if err != nil {
		return st, fmt.Errorf("%s: %w", u.src.Name, err)
	}
	return st, nil
}

// run boots img, runs the unit's entry on the generic code and again
// after committing, checks the two agree, and returns the committed
// run's cycles and result.
func (c *compileWorkload) run(u *unit, img *link.Image) (uint64, uint64, error) {
	m, rt, err := boot(c.tr, img)
	if err != nil {
		return 0, 0, err
	}
	for k, name := range u.switches {
		if err := setSwitch(m, rt, name, u.values[k]); err != nil {
			return 0, 0, err
		}
	}
	generic, err := call(c.tr, m, u.entry)
	if err != nil {
		return 0, 0, err
	}
	if err := c.tr.do("core.commit", func() error { _, err := rt.Commit(); return err }); err != nil {
		return 0, 0, err
	}
	before := m.CPU.Cycles()
	got, err := call(c.tr, m, u.entry)
	if err != nil {
		return 0, 0, err
	}
	cycles := m.CPU.Cycles() - before
	if u.kernel {
		for _, g := range []string{"lock_word", "preempt_count"} {
			if v, err := m.ReadGlobal(g, 8); err != nil || v != 0 {
				return 0, 0, fmt.Errorf("%s = %d after %s (%v)", g, v, u.entry, err)
			}
		}
		return cycles, 0, nil
	}
	if got != generic {
		return 0, 0, fmt.Errorf("%s returned %d committed, %d generic", u.entry, got, generic)
	}
	return cycles, got, nil
}

func (c *compileWorkload) simCyclesPerOp() float64 {
	cycles := make([]float64, len(c.refs))
	for i, r := range c.refs {
		cycles[i] = float64(r.cycles)
	}
	return geomean(cycles)
}

func (c *compileWorkload) reference() string {
	var b strings.Builder
	for i, r := range c.refs {
		fmt.Fprintf(&b, "%s %x %d %d/%d %d %d\n", c.units[i].src.Name, r.sum, r.bytes, r.merged, r.raw, r.cycles, r.want)
	}
	return b.String()
}

func (c *compileWorkload) layers(cum, fixed counts) {
	cum["cc.tokens_lexed"] += c.lexed
	fixed["cc.tokens"] = c.tokens
	sizes := make([]float64, len(c.refs))
	for i, r := range c.refs {
		fixed["core.variants_raw"] += float64(r.raw)
		fixed["core.variants_merged"] += float64(r.merged)
		fixed["code_bytes"] += float64(r.bytes)
		sizes[i] = float64(r.bytes)
	}
	fixed["link.image_bytes"] = median(sizes)
}
