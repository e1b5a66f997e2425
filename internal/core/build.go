package core

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/obj"
)

// Source is one MVC translation unit.
type Source struct {
	Name string
	Text string
}

// BuildImage compiles MVC sources through the full multiverse pipeline
// (parse, check, variant generation, codegen, link).
func BuildImage(opts GenOptions, srcs ...Source) (*link.Image, *GenReport, error) {
	if len(srcs) == 0 {
		return nil, nil, fmt.Errorf("core: no sources")
	}
	var objs []*obj.Object
	total := &GenReport{}
	for _, src := range srcs {
		u, err := cc.Parse(src.Name, src.Text)
		if err != nil {
			return nil, nil, err
		}
		if err := cc.Check(u); err != nil {
			return nil, nil, err
		}
		o, rep, err := CompileUnit(u, opts)
		if err != nil {
			return nil, nil, err
		}
		total.Functions = append(total.Functions, rep.Functions...)
		total.Warnings = append(total.Warnings, rep.Warnings...)
		objs = append(objs, o)
	}
	img, err := link.Link(objs...)
	if err != nil {
		return nil, nil, err
	}
	return img, total, nil
}

// System bundles a loaded machine with its multiverse runtime — the
// common setup of every example and benchmark.
type System struct {
	Machine *machine.Machine
	RT      *Runtime
	Report  *GenReport
}

// BuildSystem compiles, links and loads the sources, attaches a
// user-space runtime, and wires in obs (nil observes nothing).
func BuildSystem(opts GenOptions, obs *Observers, srcs ...Source) (*System, error) {
	img, rep, err := BuildImage(opts, srcs...)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(img)
	if err != nil {
		return nil, err
	}
	rt, err := NewRuntime(img, &UserPlatform{M: m})
	if err != nil {
		return nil, err
	}
	if obs != nil {
		obs.Attach(m, rt)
	}
	return &System{Machine: m, RT: rt, Report: rep}, nil
}

// Observed returns the first of an optional trailing observers
// argument, or nil for none: the experiment builders take their
// observers that way and hand them to BuildSystem.
func Observed(obs []Observers) *Observers {
	if len(obs) == 0 {
		return nil
	}
	return &obs[0]
}

// SetSwitch writes a value into a configuration switch by name.
// Like a plain C assignment, it does not commit anything.
func (s *System) SetSwitch(name string, v int64) error {
	addr, ok := s.RT.VarByName(name)
	if !ok {
		return fmt.Errorf("core: no configuration switch %q", name)
	}
	var vd *VarDesc
	for i := range s.RT.desc.Vars {
		if s.RT.desc.Vars[i].Addr == addr {
			vd = &s.RT.desc.Vars[i]
		}
	}
	return s.Machine.Mem.WriteUint(addr, vd.Width, uint64(v))
}

// SetFnPtr assigns a function's address to a function-pointer switch.
func (s *System) SetFnPtr(switchName, funcName string) error {
	addr, ok := s.RT.VarByName(switchName)
	if !ok {
		return fmt.Errorf("core: no configuration switch %q", switchName)
	}
	fn, err := s.Machine.Symbol(funcName)
	if err != nil {
		return err
	}
	return s.Machine.Mem.WriteUint(addr, 8, fn)
}
