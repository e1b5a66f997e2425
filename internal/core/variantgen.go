// Package core implements multiverse itself: ahead-of-time variant
// generation (paper §3) and the run-time library that installs
// variants by binary patching (paper §4, Table 1).
//
// The compile-time half specializes every annotated function for each
// assignment in the cross product of the referenced configuration
// switches' domains, substituting the constants *before* optimization
// one switch at a time and merging bodies that come out identical
// after each switch, and emits descriptor records for variables,
// functions/variants/guards, and call sites. The run-time half decodes
// those descriptors from a loaded image and implements commit/revert
// by patching call sites and generic-function prologues.
package core

import (
	"fmt"
	"slices"
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
	// DisableOptimizer skips the optimization passes on variants; used
	// by the ablation benchmarks.
	DisableOptimizer bool
	// VariantSrc renders every variant back to MVC source into
	// FuncReport.VariantSrc (mvcc -dump-variants).
	VariantSrc bool
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
	// rendered back to MVC source; nil unless GenOptions.VariantSrc.
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
	boxes [][]codegen.Guard // all boxes covering this variant
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

func generateVariants(u *cc.Unit, f *codegen.Func, maxVariants int, opts GenOptions, report *GenReport) (*FuncReport, []*variantFunc, error) {
	decl := f.Decl
	// Stamp variant-invariant OSR labels on the pristine body before
	// any cloning: CloneFunc copies the label fields, so the generic
	// and every variant agree on which loop/call is which.
	mvir.AssignOSRLabels(decl)
	switches := mvir.ReferencedSwitches(decl)
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
	report.Warnings = append(report.Warnings, switchWrites(decl, valueSwitches)...)

	bodies := specialize(decl, valueSwitches, domains, !opts.DisableOptimizer)
	fr.MergedVariants = len(bodies)
	if opts.VariantSrc {
		fr.VariantSrc = make(map[string]string, len(bodies))
	}

	var out []*variantFunc
	for _, body := range bodies {
		boxes := mergeBoxes(body.members, domains)
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
			Func:  &codegen.Func{Decl: body.fn, SymName: symName},
			boxes: guards,
		})
		if opts.VariantSrc {
			fr.VariantSrc[symName] = cc.FormatFunc(body.fn)
		}
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

// switchWrites warns once for each write to a bound switch in the
// generic body, in source order. Substitute keeps the stores, so every
// variant still performs them.
func switchWrites(f *cc.FuncDecl, switches []*cc.VarSym) []string {
	var warns []string
	cc.Inspect(f, func(n cc.Node) bool {
		var target cc.Expr
		switch n := n.(type) {
		case *cc.Assign:
			target = n.LHS
		case *cc.IncDec:
			target = n.X
		}
		if vr, ok := target.(*cc.VarRef); ok && slices.Contains(switches, vr.Sym) {
			warns = append(warns, fmt.Sprintf(
				"%s: write to bound configuration switch %q in specialized variant",
				n.Pos(), vr.Sym.Name))
		}
		return true
	})
	return warns
}

// stagedBody is a body specialized for the switches bound so far, and
// the assignments it stands for, as mixed-radix indices into the cross
// product of those switches' domains (the first switch most
// significant).
type stagedBody struct {
	fn      *cc.FuncDecl
	members []int
}

// specialize binds the switches one at a time. Stage k clones each
// body that survived stage k-1 once per value of switch k, substitutes
// that switch alone, optimizes, and keeps one body per fingerprint, so
// the assignments that agree on every switch a body still reads share
// the work of the later stages. Stage 0 clones the generic, which stays
// untouched; from stage 1 on, the last value rewrites its parent body
// in place once the other values have cloned it. The result holds one
// body per distinct final fingerprint, each with its assignments in
// ascending order. Every stage keeps its bodies in order of their first
// assignment: the parents are in that order, and extending a parent's
// first assignment by value i yields an index below that of any later
// parent's.
func specialize(generic *cc.FuncDecl, switches []*cc.VarSym, domains [][]int64, optimize bool) []*stagedBody {
	bodies := []*stagedBody{{fn: generic, members: []int{0}}}
	for k, s := range switches {
		n := len(domains[k])
		byFP := make(map[string]*stagedBody, len(bodies)*n)
		var next []*stagedBody
		for _, parent := range bodies {
			for i, v := range domains[k] {
				fn := parent.fn
				if k == 0 || i < n-1 {
					fn = mvir.CloneFunc(fn)
				}
				mvir.Substitute(fn, map[*cc.VarSym]int64{s: v})
				var fp string
				if optimize {
					fp = mvir.Optimize(fn)
				} else {
					fp = mvir.Fingerprint(fn)
				}
				b, ok := byFP[fp]
				if !ok {
					b = &stagedBody{fn: fn}
					byFP[fp] = b
					next = append(next, b)
				}
				for _, m := range parent.members {
					b.members = append(b.members, m*n+i)
				}
			}
		}
		bodies = next
	}
	for _, b := range bodies {
		slices.Sort(b.members)
	}
	return bodies
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

// mergeBoxes covers a group of assignments, given as ascending
// mixed-radix indices into the cross product of the sorted domains,
// with axis-aligned boxes of contiguous integer ranges, greedily. Each
// box is represented as one [lo, hi] pair per dimension. Only ranges
// whose covered integers all belong to the group are produced, so a
// guard can never match a run-time value the variant was not
// specialized for.
func mergeBoxes(members []int, domains [][]int64) [][][2]int64 {
	ndim := len(domains)
	stride := make([]int, ndim)
	total := 1
	for d := ndim - 1; d >= 0; d-- {
		stride[d] = total
		total *= len(domains[d])
	}
	inGroup := make([]bool, total)
	for _, m := range members {
		inGroup[m] = true
	}
	covered := make([]bool, total)

	// all calls fn on the index of each point in box, and reports
	// false as soon as a point lies outside the domains or fn returns
	// false. A value repeated in a domain is keyed by its first index.
	var all func(box [][2]int64, d, idx int, fn func(int) bool) bool
	all = func(box [][2]int64, d, idx int, fn func(int) bool) bool {
		if d == ndim {
			return fn(idx)
		}
		for v := box[d][0]; v <= box[d][1]; v++ {
			i, ok := slices.BinarySearch(domains[d], v)
			if !ok || !all(box, d+1, idx+i*stride[d], fn) {
				return false
			}
		}
		return true
	}
	isMember := func(i int) bool { return inGroup[i] }
	// grow widens dim to v if the slab of the box at dim=v is all in
	// the group.
	grow := func(box [][2]int64, dim int, v int64) bool {
		saved := box[dim]
		box[dim] = [2]int64{v, v}
		ok := all(box, 0, 0, isMember)
		box[dim] = saved
		return ok
	}

	var out [][][2]int64
	for _, m := range members {
		box := make([][2]int64, ndim)
		for d := range box {
			v := domains[d][m/stride[d]%len(domains[d])]
			box[d] = [2]int64{v, v}
		}
		if !all(box, 0, 0, func(i int) bool { return !covered[i] }) {
			continue
		}
		// Start with the point box and greedily extend each dimension
		// upward and then downward by adjacent integers.
		for dim := range box {
			for grow(box, dim, box[dim][1]+1) {
				box[dim][1]++
			}
			for grow(box, dim, box[dim][0]-1) {
				box[dim][0]--
			}
		}
		all(box, 0, 0, func(i int) bool { covered[i] = true; return true })
		out = append(out, box)
	}
	return out
}
