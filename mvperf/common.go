package main

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/obj"
)

// rng is splitmix64: small and fixed, so a seed names the same inputs
// on every Go release.
type rng struct{ s uint64 }

// Stream selectors keep the workloads' draws independent of each other.
const (
	streamCompile = iota + 1
	streamExperiments
	streamReconfigure
	streamFleet
)

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)}
	r.s ^= r.next() * stream
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// buildImage compiles one MVC unit. Untraced it is one core.BuildImage;
// traced it calls the phases BuildImage is made of one at a time, each
// in its own span, after an extra cc.LexAll pass that counts tokens.
func buildImage(tr *tracer, src core.Source) (*link.Image, *core.GenReport, int, error) {
	if !tr.active() {
		img, rep, err := core.BuildImage(core.GenOptions{}, src)
		return img, rep, 0, err
	}
	var (
		toks []cc.Token
		u    *cc.Unit
		o    *obj.Object
		rep  *core.GenReport
		img  *link.Image
	)
	err := tr.do("cc.lex", func() (err error) { toks, err = cc.LexAll(src.Name, src.Text); return })
	if err == nil {
		err = tr.do("cc.parse", func() (err error) { u, err = cc.Parse(src.Name, src.Text); return })
	}
	if err == nil {
		err = tr.do("cc.check", func() error { return cc.Check(u) })
	}
	if err == nil {
		err = tr.do("core.compile_unit", func() (err error) { o, rep, err = core.CompileUnit(u, core.GenOptions{}); return })
	}
	if err == nil {
		err = tr.do("link.link", func() (err error) { img, err = link.Link(o); return })
	}
	return img, rep, len(toks), err
}

// boot loads img into a fresh machine and attaches a user-space
// runtime, the way core.BuildSystem does.
func boot(tr *tracer, img *link.Image) (*machine.Machine, *core.Runtime, error) {
	var (
		m  *machine.Machine
		rt *core.Runtime
	)
	err := tr.do("machine.new", func() (err error) { m, err = machine.New(img); return })
	if err == nil {
		err = tr.do("core.new_runtime", func() (err error) { rt, err = core.NewRuntime(img, &core.UserPlatform{M: m}); return })
	}
	return m, rt, err
}

// call runs a guest function by name.
func call(tr *tracer, m *machine.Machine, name string, args ...uint64) (uint64, error) {
	var r uint64
	err := tr.do("machine.call", func() (err error) { r, err = m.CallNamed(name, args...); return })
	return r, err
}

// setSwitch writes a configuration switch, like a plain C assignment.
func setSwitch(m *machine.Machine, rt *core.Runtime, name string, v int64) error {
	for _, vd := range rt.Vars() {
		if vd.Name == name {
			return m.Mem.WriteUint(vd.Addr, vd.Width, uint64(v))
		}
	}
	return fmt.Errorf("no configuration switch %q", name)
}

// imageBytes is the loaded size of a linked image.
func imageBytes(img *link.Image) int {
	n := 0
	for _, seg := range img.Segments {
		n += len(seg.Data)
	}
	return n
}

// addMachine adds a machine's cumulative cpu and mem counts to c.
func addMachine(c counts, m *machine.Machine) {
	s := m.TotalStats()
	c["cpu.insts"] += float64(s.Instructions)
	c["cpu.loads"] += float64(s.Loads)
	c["cpu.stores"] += float64(s.Stores)
	c["cpu.calls"] += float64(s.Calls)
	c["cpu.branches"] += float64(s.Branches)
	c["cpu.mispredicts"] += float64(s.Mispredicts)
	c["cpu.decode_hits"] += float64(s.DecodeHits)
	c["cpu.decode_misses"] += float64(s.DecodeMisses)
	c["cpu.block_insts"] += float64(s.BlockInsts)
	c["cpu.block_builds"] += float64(s.BlockBuilds)
	c["cpu.icache_fills"] += float64(s.ICacheFills)
	c["cpu.traps"] += float64(s.Traps)
	c["cpu.block_invalidates"] += float64(s.BlockInvalidates)
	c["mem.protect_calls"] += float64(m.Mem.Stats.ProtectCalls)
	c["mem.flushes"] += float64(m.Mem.Stats.Flushes)
}

// addRuntime adds a runtime's cumulative patching counts to c.
func addRuntime(c counts, rt *core.Runtime) {
	s := rt.Stats
	c["core.sites_patched"] += float64(s.SitesPatched)
	c["core.sites_inlined"] += float64(s.SitesInlined)
	c["core.sites_reverted"] += float64(s.SitesReverted)
	c["core.commit_aborts"] += float64(s.CommitAborts)
	c["core.commit_retries"] += float64(s.CommitRetries)
}
