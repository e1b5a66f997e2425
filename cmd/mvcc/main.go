// Command mvcc is the MVC compiler driver: it runs the multiverse
// pipeline (parse, check, variant generation, code generation) on each
// source file and either writes relocatable objects (-c) or links an
// executable image.
//
//	mvcc [-c] [-o out] [-max-variants n] [-v] file.mvc...
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/obj"
)

var (
	compileOnly = flag.Bool("c", false, "compile to objects, do not link")
	output      = flag.String("o", "", "output file (default a.img / <src>.mvo)")
	maxVariants = flag.Int("max-variants", core.DefaultMaxVariants, "variant cross-product limit per function")
	verbose     = flag.Bool("v", false, "print the variant-generation report")
	dumpVar     = flag.Bool("dump-variants", false, "print each generated variant as MVC source")
)

func main() {
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: mvcc [-c] [-o out] file.mvc...")
		os.Exit(2)
	}
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "mvcc: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	opts := core.GenOptions{MaxVariants: *maxVariants, VariantSrc: *dumpVar}
	var objects []*obj.Object
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		unitName := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		u, err := cc.Parse(unitName, string(src))
		if err != nil {
			return err
		}
		if err := cc.Check(u); err != nil {
			return err
		}
		o, rep, err := core.CompileUnit(u, opts)
		if err != nil {
			return err
		}
		report(path, rep)
		if *compileOnly {
			out := unitName + ".mvo"
			if *output != "" && flag.NArg() == 1 {
				out = *output
			}
			f, err := os.Create(out)
			if err != nil {
				return err
			}
			if err := o.Write(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			continue
		}
		objects = append(objects, o)
	}
	if *compileOnly {
		return nil
	}
	img, err := link.Link(objects...)
	if err != nil {
		return err
	}
	out := *output
	if out == "" {
		out = "a.img"
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := img.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func report(path string, rep *core.GenReport) {
	for _, w := range rep.Warnings {
		fmt.Fprintf(os.Stderr, "mvcc: warning: %s\n", w)
	}
	if *verbose {
		for _, f := range rep.Functions {
			fmt.Fprintf(os.Stderr, "%s: %s: switches=%v variants=%d (merged from %d), descriptors=%d B\n",
				path, f.Name, f.Switches, f.MergedVariants, f.RawVariants, f.DescriptorBytes)
		}
	}
	if *dumpVar {
		for _, f := range rep.Functions {
			names := make([]string, 0, len(f.VariantSrc))
			for n := range f.VariantSrc {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(os.Stderr, "// variant %s\n%s\n", n, f.VariantSrc[n])
			}
		}
	}
}
