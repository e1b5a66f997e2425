package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cc"
	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obj"
)

// ModuleBase is the default load address for dynamically loaded
// modules, well above the main image.
const ModuleBase = uint64(0x0800_0000)

// BuildModule compiles MVC sources into a loadable module linked at
// base, resolving undefined symbols (extern switches, multiverse
// function prototypes, helper functions) against the main image — the
// dynamic-loading scenario §5 sketches for kernel modules.
func BuildModule(main *link.Image, base uint64, opts GenOptions, srcs ...Source) (*link.Image, error) {
	if base == 0 {
		base = ModuleBase
	}
	var objs []*obj.Object
	for _, src := range srcs {
		u, err := cc.Parse(src.Name, src.Text)
		if err != nil {
			return nil, err
		}
		if err := cc.Check(u); err != nil {
			return nil, err
		}
		o, _, err := CompileUnit(u, opts)
		if err != nil {
			return nil, err
		}
		objs = append(objs, o)
	}
	return link.LinkWithOptions(link.Options{Base: base, Externs: main.Symbols}, objs...)
}

// LoadModule maps a module image into an already running machine.
func LoadModule(m *machine.Machine, mod *link.Image) error {
	for _, seg := range mod.Segments {
		length := mem.PageAlignUp(uint64(len(seg.Data)))
		if length == 0 {
			continue
		}
		if err := m.Mem.Map(seg.Addr, length, mem.RW); err != nil {
			return fmt.Errorf("core: mapping module segment at %#x: %w", seg.Addr, err)
		}
		if err := m.Mem.Write(seg.Addr, seg.Data); err != nil {
			return err
		}
		if err := m.Mem.Protect(seg.Addr, length, seg.Prot); err != nil {
			return err
		}
	}
	return nil
}

// AddModule registers a loaded module's multiverse descriptors with
// the runtime: new switches, new multiversed functions, and — the
// common case — call sites inside the module that reference multiverse
// functions or switches of the main image. No binding is reset: the
// main image's sites and prologues keep routing to what was committed,
// and the new sites call the generic (or through the pointer) until
// the next commit patches them, as a kernel commits after insmod.
func (rt *Runtime) AddModule(mod *link.Image) error {
	desc, err := DecodeDescriptors(mod, rt.plat)
	if err != nil {
		return err
	}
	// Whatever registers, even before a failure, joins the patch ranges.
	defer rt.indexRanges()
	for i := range desc.Vars {
		v := desc.Vars[i]
		if _, dup := rt.varsByAddr[v.Addr]; dup {
			return fmt.Errorf("core: module redefines switch %q", v.Name)
		}
		rt.desc.Vars = append(rt.desc.Vars, v)
		nv := &rt.desc.Vars[len(rt.desc.Vars)-1]
		rt.varsByAddr[nv.Addr] = nv
		if nv.FnPtr {
			ps := &fnptrState{vd: nv}
			rt.fnptrs[nv.Addr] = ps
			// Commit, Revert, Audit and ExportState walk ptrOrder, in
			// address order.
			i := sort.Search(len(rt.ptrOrder), func(i int) bool { return rt.ptrOrder[i].vd.Addr > nv.Addr })
			rt.ptrOrder = slices.Insert(rt.ptrOrder, i, ps)
		}
	}
	for i := range desc.Funcs {
		f := desc.Funcs[i]
		if _, dup := rt.byGeneric[f.Generic]; dup {
			return fmt.Errorf("core: module redefines function %q", f.Name)
		}
		rt.desc.Funcs = append(rt.desc.Funcs, f)
		fs := &funcState{fd: &rt.desc.Funcs[len(rt.desc.Funcs)-1]}
		rt.funcs = append(rt.funcs, fs)
		rt.byGeneric[fs.fd.Generic] = fs
		rt.byName[fs.fd.Name] = fs
	}
	for _, s := range desc.Sites {
		st, err := rt.loadSite(s)
		if err != nil {
			return err
		}
		rt.sites[s.Callee] = append(rt.sites[s.Callee], st)
		rt.desc.Sites = append(rt.desc.Sites, s)
	}
	return nil
}
