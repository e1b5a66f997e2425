package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/mvir"
)

// writeSrc writes both of its bound switches: two write sites, whose
// warnings must not multiply with the 16 assignments.
const writeSrc = `
	multiverse(0, 1, 2, 3) int A;
	multiverse(0, 1, 2, 3) int B;
	long acc;
	multiverse void f(void) { if (A > 1) { acc = acc + B; } A = 0; B++; }
`

// TestVariantSrcGolden pins the rendered source of every variant, in
// symbol order, so that a change to how variants are generated cannot
// change what mvcc -dump-variants prints. Rewrite the golden with
// -update.
func TestVariantSrcGolden(t *testing.T) {
	var out strings.Builder
	for _, src := range []Source{
		{Name: "fig2.mvc", Text: figure2Src},
		{Name: "three.mvc", Text: threeSwitchSrc},
		{Name: "write.mvc", Text: writeSrc},
	} {
		_, rep, err := BuildImage(GenOptions{VariantSrc: true}, src)
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range rep.Functions {
			fmt.Fprintf(&out, "== %s: %s\n", src.Name, fr.Name)
			names := make([]string, 0, len(fr.VariantSrc))
			for n := range fr.VariantSrc {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(&out, "// variant %s\n%s\n", n, fr.VariantSrc[n])
			}
		}
	}
	checkGolden(t, "variant_src.golden", out.String())
}

// TestVariantSrcOnRequest: variant source is rendered only when asked.
func TestVariantSrcOnRequest(t *testing.T) {
	_, rep, err := BuildImage(GenOptions{}, Source{Name: "fig2.mvc", Text: figure2Src})
	if err != nil {
		t.Fatal(err)
	}
	if src := rep.Functions[0].VariantSrc; src != nil {
		t.Errorf("VariantSrc rendered without GenOptions.VariantSrc: %v", src)
	}
}

// mvFuncs parses and checks src and returns its multiversed functions.
func mvFuncs(t *testing.T, name, src string) (*cc.Unit, []*codegen.Func) {
	t.Helper()
	u, err := cc.Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.Check(u); err != nil {
		t.Fatal(err)
	}
	var out []*codegen.Func
	for _, f := range codegen.ProgramFromUnit(u).Funcs {
		if f.Decl.Multiverse {
			out = append(out, f)
		}
	}
	return u, out
}

// TestSwitchWriteWarnings: each write to a bound switch is warned
// once, from the generic body, and every variant keeps the store.
func TestSwitchWriteWarnings(t *testing.T) {
	u, funcs := mvFuncs(t, "w", `
		multiverse int A;
		multiverse void f(void) { A = 1; A++; }
	`)
	report := &GenReport{}
	_, variants, err := generateVariants(u, funcs[0], DefaultMaxVariants, GenOptions{}, report)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`w:3:31: write to bound configuration switch "A" in specialized variant`,
		`w:3:37: write to bound configuration switch "A" in specialized variant`,
	}
	if !slices.Equal(report.Warnings, want) {
		t.Errorf("warnings = %q, want %q", report.Warnings, want)
	}
	// The writes must survive (the paper keeps behaviour, only warns).
	for _, v := range variants {
		if fp := mvir.Fingerprint(v.Decl); !strings.Contains(fp, "g:A") {
			t.Errorf("%s: write to A eliminated: %s", v.SymName, fp)
		}
	}

	// Reads are not writes.
	u, funcs = mvFuncs(t, "r", `
		multiverse int A;
		multiverse int f(void) { return A + A; }
	`)
	report = &GenReport{}
	if _, _, err := generateVariants(u, funcs[0], DefaultMaxVariants, GenOptions{}, report); err != nil {
		t.Fatal(err)
	}
	if len(report.Warnings) != 0 {
		t.Errorf("reads warned: %q", report.Warnings)
	}
}

// genVariantUnit generates a unit in the shape of the compile
// benchmark's corpus: four multiversed functions over switches with
// the given domain sizes, each with a threshold guard per switch, then
// seeded equality tests, nested guards, loops, switch reads and
// arithmetic.
func genVariantUnit(seed int64, domains []int) string {
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for k, n := range domains {
		vals := make([]string, n)
		for v := range vals {
			vals[v] = fmt.Sprint(v)
		}
		fmt.Fprintf(&b, "multiverse(%s) int cfg%d;\n", strings.Join(vals, ", "), k)
	}
	b.WriteString("long acc;\n")
	sw := func() (int, int) { k := r.Intn(len(domains)); return k, r.Intn(domains[k]) }
	for f := 0; f < 4; f++ {
		fmt.Fprintf(&b, "multiverse long f%d(long x) {\n\tlong r = x;\n", f)
		for k, n := range domains {
			fmt.Fprintf(&b, "\tif (cfg%d > %d) { r = r * %d + %d; } else { r = r - %d; }\n",
				k, r.Intn(n-1), 2+r.Intn(9), r.Intn(50), r.Intn(50))
		}
		for j := 0; j < 4+r.Intn(9); j++ {
			switch r.Intn(6) {
			case 0:
				k, v := sw()
				fmt.Fprintf(&b, "\tif (cfg%d == %d) { r = r + %d; }\n", k, v, r.Intn(90))
			case 1:
				k, v := sw()
				k2, v2 := sw()
				fmt.Fprintf(&b, "\tif (cfg%d != %d) { if (cfg%d < %d) { r = r - %d; } }\n", k, v, k2, v2, r.Intn(90))
			case 2:
				fmt.Fprintf(&b, "\tfor (long i%d = 0; i%d < %d; i%d++) { r = r + (i%d ^ %d); }\n", j, j, 2+r.Intn(3), j, j, r.Intn(90))
			case 3:
				k, _ := sw()
				fmt.Fprintf(&b, "\tacc = acc + cfg%d * %d;\n", k, 1+r.Intn(9))
			case 4:
				fmt.Fprintf(&b, "\tr = r ^ (r >> %d);\n", 1+r.Intn(15))
			default:
				fmt.Fprintf(&b, "\tr = r * %d + %d;\n", 2+r.Intn(9), r.Intn(90))
			}
		}
		b.WriteString("\treturn r;\n}\n")
	}
	b.WriteString("long run(long x) { return f0(x) + f1(x) + f2(x) + f3(x); }\n")
	return b.String()
}

// TestStagedMatchesOneShot checks staged specialization against the
// one-shot form: for every assignment of every multiversed function,
// exactly one variant's guard boxes cover it, and that variant's body
// has the fingerprint of the generic cloned, substituted with the
// whole assignment and optimized (only substituted, with the optimizer
// off). The generic itself must come out untouched.
func TestStagedMatchesOneShot(t *testing.T) {
	srcs := []string{figure2Src, threeSwitchSrc, writeSrc}
	shapes := [][]int{{2}, {3, 3}, {4, 4, 4}, {2, 3, 4}, {4, 3, 2}, {3, 2, 4}}
	for seed := int64(1); seed <= 4; seed++ {
		for _, shape := range shapes {
			srcs = append(srcs, genVariantUnit(seed, shape))
		}
	}
	for _, disable := range []bool{false, true} {
		for i, src := range srcs {
			u, funcs := mvFuncs(t, fmt.Sprintf("unit%d", i), src)
			for _, f := range funcs {
				generic := mvir.Fingerprint(f.Decl)
				opts := GenOptions{DisableOptimizer: disable}
				_, variants, err := generateVariants(u, f, DefaultMaxVariants, opts, &GenReport{})
				if err != nil {
					t.Fatal(err)
				}
				if got := mvir.Fingerprint(f.Decl); got != generic {
					t.Fatalf("unit%d %s: generic rewritten:\n%s\nwant\n%s", i, f.Decl.Name, got, generic)
				}
				checkOneShot(t, fmt.Sprintf("unit%d %s (optimizer off: %v)", i, f.Decl.Name, disable),
					u, f.Decl, variants, !disable)
			}
		}
	}
}

// checkOneShot compares each assignment's covering variant with the
// one-shot body of generic.
func checkOneShot(t *testing.T, name string, u *cc.Unit, generic *cc.FuncDecl, variants []*variantFunc, optimize bool) {
	t.Helper()
	var switches []*cc.VarSym
	for _, g := range variants[0].boxes[0] {
		switches = append(switches, g.Var)
	}
	domains := make([][]int64, len(switches))
	for k, s := range switches {
		domains[k] = cc.EffectiveDomain(s, u.Enums)
		slices.Sort(domains[k])
	}
	as := make([]int64, len(switches))
	var visit func(k int)
	visit = func(k int) {
		if k < len(switches) {
			for _, v := range domains[k] {
				as[k] = v
				visit(k + 1)
			}
			return
		}
		var hits []*variantFunc
		for _, v := range variants {
			if slices.ContainsFunc(v.boxes, func(box []codegen.Guard) bool {
				for k, g := range box {
					if as[k] < g.Lo || as[k] > g.Hi {
						return false
					}
				}
				return true
			}) {
				hits = append(hits, v)
			}
		}
		if len(hits) != 1 {
			t.Errorf("%s %v: covered by %d variants", name, as, len(hits))
			return
		}
		clone := mvir.CloneFunc(generic)
		sub := make(map[*cc.VarSym]int64, len(switches))
		for k, s := range switches {
			sub[s] = as[k]
		}
		mvir.Substitute(clone, sub)
		want := mvir.Fingerprint(clone)
		if optimize {
			want = mvir.Optimize(clone)
		}
		if got := mvir.Fingerprint(hits[0].Decl); got != want {
			t.Errorf("%s %v: variant %s differs from the one-shot body:\n%s\nwant\n%s",
				name, as, hits[0].SymName, got, want)
		}
	}
	visit(0)
}
