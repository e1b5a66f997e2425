// Package core implements multiverse itself: ahead-of-time variant
// generation (paper §3) and the run-time library that installs
// variants by binary patching (paper §4, Table 1).
//
// The compile-time half clones every annotated function once per
// assignment in the cross product of the referenced configuration
// switches' domains, substitutes the constants *before* optimization,
// merges variants whose optimized bodies are identical, and emits
// descriptor records for variables, functions/variants/guards, and
// call sites. The run-time half decodes those descriptors from a
// loaded image and implements commit/revert by patching call sites and
// generic-function prologues.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/mvir"
	"repro/internal/obj"
)

// DefaultMaxVariants bounds the cross product per function; exceeding
// it is reported as an error so variant explosion (paper §7.1) is a
// loud event, not a silent code-size disaster.
const DefaultMaxVariants = 64

// GenOptions configures variant generation.
type GenOptions struct {
	// MaxVariants overrides DefaultMaxVariants when > 0.
	MaxVariants int
	// Bind restricts specialization to the given switches (partial
	// specialization, §7.1). Empty means bind every referenced switch.
	Bind map[string]bool
	// DisableOptimizer skips the optimization passes on variants; used
	// by the ablation benchmarks.
	DisableOptimizer bool
}

// GenReport records what variant generation did, for logging and for
// the overhead accounting of experiment E7.
type GenReport struct {
	Functions []FuncReport
	Warnings  []string
}

// FuncReport describes variant generation for one function.
type FuncReport struct {
	Name            string
	Switches        []string
	RawVariants     int // before merging
	MergedVariants  int
	DescriptorBytes int
	// VariantSrc maps each variant symbol to its specialized body
	// rendered back to MVC source (mvcc -dump-variants).
	VariantSrc map[string]string
}

// CompileUnit runs the full multiverse pipeline on a checked unit and
// returns the relocatable object plus a generation report.
func CompileUnit(u *cc.Unit, opts GenOptions) (*obj.Object, *GenReport, error) {
	prog := codegen.ProgramFromUnit(u)
	report := &GenReport{}

	maxVariants := opts.MaxVariants
	if maxVariants <= 0 {
		maxVariants = DefaultMaxVariants
	}

	// Optimize every function body once (the same passes GCC would run
	// on the generic code), then specialize the multiversed ones.
	var mvFuncs []*codegen.Func
	for _, f := range prog.Funcs {
		if f.Decl.Multiverse {
			mvFuncs = append(mvFuncs, f)
		} else {
			mvir.Optimize(f.Decl)
		}
	}

	for _, f := range mvFuncs {
		fr, variants, err := generateVariants(u, f, maxVariants, opts, report)
		if err != nil {
			return nil, nil, err
		}
		// Generic functions need at least a patchable prologue.
		f.PadTo = 5
		for _, v := range variants {
			prog.Funcs = append(prog.Funcs, v.Func)
		}
		// A variant may carry several guard boxes (disjoint range
		// products) that share one body; each box becomes a descriptor.
		mvf := &codegen.MVFunc{
			GenericSym: f.SymName,
			Name:       f.Decl.Name,
			Variants:   expandBoxes(variants),
		}
		prog.MVFuncs = append(prog.MVFuncs, mvf)
		report.Functions = append(report.Functions, *fr)

		// Now that clones exist, optimize the generic too.
		if !opts.DisableOptimizer {
			mvir.Optimize(f.Decl)
		}
	}

	o, err := codegen.Compile(prog)
	if err != nil {
		return nil, nil, err
	}
	return o, report, nil
}

// variantFunc couples an emitted variant with its guard boxes.
type variantFunc struct {
	*codegen.Func
	guards []codegen.Guard   // first box (kept for convenience)
	boxes  [][]codegen.Guard // all boxes covering this variant
}

func expandBoxes(variants []*variantFunc) []codegen.MVVariant {
	var out []codegen.MVVariant
	for _, v := range variants {
		for _, box := range v.boxes {
			out = append(out, codegen.MVVariant{SymName: v.SymName, Guards: box})
		}
	}
	return out
}

// assignment is one point of the cross product.
type assignment []int64

func generateVariants(u *cc.Unit, f *codegen.Func, maxVariants int, opts GenOptions, report *GenReport) (*FuncReport, []*variantFunc, error) {
	decl := f.Decl
	// Stamp variant-invariant OSR labels on the pristine body before
	// any cloning: CloneFunc copies the label fields, so the generic
	// and every variant agree on which loop/call is which.
	mvir.AssignOSRLabels(decl)
	switches := mvir.ReferencedSwitches(decl)
	if len(opts.Bind) > 0 {
		var kept []*cc.VarSym
		for _, s := range switches {
			if opts.Bind[s.Name] {
				kept = append(kept, s)
			}
		}
		switches = kept
	}
	if len(decl.BindOnly) > 0 {
		// Per-function partial specialization: multiverse(bind(...)).
		want := make(map[string]bool, len(decl.BindOnly))
		for _, n := range decl.BindOnly {
			want[n] = true
		}
		var kept []*cc.VarSym
		for _, s := range switches {
			if want[s.Name] {
				kept = append(kept, s)
			}
		}
		switches = kept
	}
	fr := &FuncReport{Name: decl.Name}
	for _, s := range switches {
		fr.Switches = append(fr.Switches, s.Name)
	}
	if len(switches) == 0 {
		return fr, nil, nil
	}

	// Function-pointer switches have no value domain; they are handled
	// purely by call-site patching, not by variant generation.
	var valueSwitches []*cc.VarSym
	for _, s := range switches {
		if s.Type.Kind != cc.KindPtr {
			valueSwitches = append(valueSwitches, s)
		}
	}
	if len(valueSwitches) == 0 {
		return fr, nil, nil
	}

	domains := make([][]int64, len(valueSwitches))
	total := 1
	for i, s := range valueSwitches {
		domains[i] = cc.EffectiveDomain(s, u.Enums)
		sort.Slice(domains[i], func(a, b int) bool { return domains[i][a] < domains[i][b] })
		total *= len(domains[i])
		if total > maxVariants {
			return nil, nil, fmt.Errorf(
				"core: %s: cross product of %d switches exceeds %d variants — restrict domains or bind a subset (paper §7.1)",
				decl.Name, len(valueSwitches), maxVariants)
		}
	}
	fr.RawVariants = total

	// Enumerate the cross product in lexicographic order.
	assignments := make([]assignment, 0, total)
	cur := make(assignment, len(valueSwitches))
	var enum func(dim int)
	enum = func(dim int) {
		if dim == len(valueSwitches) {
			assignments = append(assignments, append(assignment(nil), cur...))
			return
		}
		for _, v := range domains[dim] {
			cur[dim] = v
			enum(dim + 1)
		}
	}
	enum(0)

	// Clone + substitute + optimize each assignment; group equal
	// bodies by fingerprint.
	type group struct {
		repr    *cc.FuncDecl
		members []assignment
	}
	groups := make(map[string]*group)
	var order []string
	for _, as := range assignments {
		clone := mvir.CloneFunc(decl)
		sub := make(map[*cc.VarSym]int64, len(valueSwitches))
		for i, s := range valueSwitches {
			sub[s] = as[i]
		}
		warns := mvir.Substitute(clone, sub)
		report.Warnings = append(report.Warnings, warns...)
		var fp string
		if opts.DisableOptimizer {
			fp = mvir.Fingerprint(clone)
		} else {
			fp = mvir.Optimize(clone)
		}
		g, ok := groups[fp]
		if !ok {
			g = &group{repr: clone}
			groups[fp] = g
			order = append(order, fp)
		}
		g.members = append(g.members, as)
	}
	fr.MergedVariants = len(groups)

	var out []*variantFunc
	for _, fp := range order {
		g := groups[fp]
		boxes := mergeBoxes(g.members, domains)
		guards := make([][]codegen.Guard, 0, len(boxes))
		for _, b := range boxes {
			gs := make([]codegen.Guard, len(valueSwitches))
			for i, s := range valueSwitches {
				gs[i] = codegen.Guard{Var: s, Lo: b[i][0], Hi: b[i][1]}
			}
			guards = append(guards, gs)
		}
		symName := variantSymName(f.SymName, valueSwitches, boxes[0])
		out = append(out, &variantFunc{
			Func:   &codegen.Func{Decl: g.repr, SymName: symName},
			guards: guards[0],
			boxes:  guards,
		})
		if fr.VariantSrc == nil {
			fr.VariantSrc = make(map[string]string)
		}
		fr.VariantSrc[symName] = cc.FormatFunc(g.repr)
	}

	// Descriptor accounting (paper §5 formula).
	variantGuardCounts := make([]int, 0)
	for _, v := range out {
		for range v.boxes {
			variantGuardCounts = append(variantGuardCounts, len(valueSwitches))
		}
	}
	fr.DescriptorBytes = codegen.DescriptorBytes(0, 0, [][]int{variantGuardCounts})
	return fr, out, nil
}

// variantSymName builds names like "multi.A=1.B=0-1" (paper Figure 2
// uses multi.A=1.B=01 for the merged variant).
func variantSymName(base string, switches []*cc.VarSym, box [][2]int64) string {
	var sb strings.Builder
	sb.WriteString(base)
	for i, s := range switches {
		lo, hi := box[i][0], box[i][1]
		if lo == hi {
			fmt.Fprintf(&sb, ".%s=%d", s.Name, lo)
		} else {
			fmt.Fprintf(&sb, ".%s=%d-%d", s.Name, lo, hi)
		}
	}
	return sb.String()
}

// mergeBoxes covers the assignment set with axis-aligned boxes of
// contiguous integer ranges, greedily. Each box is represented as one
// [lo, hi] pair per dimension. Only ranges whose covered integers all
// belong to the group are produced, so a guard can never match a
// run-time value the variant was not specialized for.
func mergeBoxes(members []assignment, domains [][]int64) [][][2]int64 {
	ndim := len(domains)
	if ndim == 0 {
		return nil
	}
	inGroup := make(map[string]bool, len(members))
	key := func(a assignment) string {
		var sb strings.Builder
		for _, v := range a {
			fmt.Fprintf(&sb, "%d,", v)
		}
		return sb.String()
	}
	for _, m := range members {
		inGroup[key(m)] = true
	}
	covered := make(map[string]bool, len(members))

	// boxContains enumerates a candidate box and reports whether every
	// point is in the group.
	var boxOK func(box [][2]int64) bool
	boxOK = func(box [][2]int64) bool {
		pts := enumerateBox(box)
		for _, p := range pts {
			if !inGroup[key(p)] {
				return false
			}
		}
		return true
	}

	var out [][][2]int64
	for _, m := range members {
		if covered[key(m)] {
			continue
		}
		// Start with the point box and greedily extend each dimension
		// downward and upward by adjacent integers.
		box := make([][2]int64, ndim)
		for i, v := range m {
			box[i] = [2]int64{v, v}
		}
		for dim := 0; dim < ndim; dim++ {
			for {
				try := cloneBox(box)
				try[dim][1]++
				if !boxOK(try) {
					break
				}
				box = try
			}
			for {
				try := cloneBox(box)
				try[dim][0]--
				if !boxOK(try) {
					break
				}
				box = try
			}
		}
		for _, p := range enumerateBox(box) {
			covered[key(p)] = true
		}
		out = append(out, box)
	}
	return out
}

func cloneBox(b [][2]int64) [][2]int64 {
	out := make([][2]int64, len(b))
	copy(out, b)
	return out
}

// enumerateBox lists every integer point in the box.
func enumerateBox(box [][2]int64) []assignment {
	pts := []assignment{{}}
	for _, r := range box {
		var next []assignment
		for v := r[0]; v <= r[1]; v++ {
			for _, p := range pts {
				next = append(next, append(append(assignment(nil), p...), v))
			}
		}
		pts = next
		if len(pts) > 4096 {
			// Give up on absurdly large boxes; treat as not-ok by
			// returning a sentinel the caller will reject.
			return pts
		}
	}
	return pts
}
