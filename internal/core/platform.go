package core

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
)

// Platform abstracts how the runtime library reads and patches memory
// and synchronizes with the hardware threads that execute it. The
// paper ports the library to Linux user space, the Linux kernel and
// OctopOS by swapping exactly this layer (§5); here the user port
// goes through mprotect-style permission flips while the kernel port
// writes through the direct mapping. Every method is required: each
// one carries a step of the commit protocol (rollback, shootdown
// verification, the protection audit, the activeness check, OSR, the
// stop-machine rendezvous) that no port may silently skip.
type Platform interface {
	// Read copies memory into buf.
	Read(addr uint64, buf []byte) error
	// Patch writes buf into the text segment, temporarily making it
	// writable if the port needs to.
	Patch(addr uint64, buf []byte) error
	// FlushICache invalidates any cached decode of the range on every
	// hardware thread. Skipping this after a Patch leaves the CPU
	// executing stale bytes.
	FlushICache(addr, n uint64)
	// ICacheStale reports whether any hardware thread still caches
	// pre-patch bytes of a range: the acknowledge step of a shootdown,
	// which catches dropped flushes.
	ICacheStale(addr, n uint64) bool

	// Restore force-writes journaled bytes back into the text segment
	// during rollback, regardless of current page protections.
	Restore(addr uint64, buf []byte) error
	// SetProt sets page protections directly, so rollback can undo a
	// protection flip stranded by a mid-patch fault.
	SetProt(addr, n uint64, prot mem.Prot) error
	// ProtAt reports the protection of the page holding addr; the
	// journal snapshots it before each patch, and the auditor checks
	// text pages stay non-writable.
	ProtAt(addr uint64) (mem.Prot, bool)
	// MemStats exposes the memory system's operation counters for the
	// state report and the commit-latency model.
	MemStats() mem.Stats
	// AdvanceCycles charges retry backoff to the patching CPU. Only
	// called after a fault fired, so uninjected runs stay
	// cycle-identical.
	AdvanceCycles(n uint64)

	// LiveCodeAddrs enumerates the code addresses live on any CPU (PCs
	// plus conservative stack return-address scans). The bool reports
	// completeness: false means a stack scan was truncated and the list
	// cannot prove anything inactive.
	LiveCodeAddrs() ([]uint64, bool)
	// OSRCPUs exposes the paused CPUs and their stack geometry, whose
	// frames an on-stack replacement may rewrite.
	OSRCPUs() []machine.OSRCPU
	// StopMachine quiesces every CPU outside the avoid ranges, runs fn,
	// and reports the rendezvous latency in cycles.
	StopMachine(avoid []machine.Range, fn func() error) (uint64, error)
	// NotePokePhase forwards a text-poke phase transition to
	// machine-level hooks (chaos harnesses and fault injectors listen
	// there).
	NotePokePhase(phase int, addr, n uint64)
}

// UserPlatform patches like a user-space process: mprotect the pages
// writable (never writable+executable, so it also works under strict
// W^X), write, and restore the original protection.
type UserPlatform struct {
	M *machine.Machine
}

// Read implements Platform.
func (p *UserPlatform) Read(addr uint64, buf []byte) error {
	return p.M.Mem.Read(addr, buf)
}

// Patch implements Platform.
func (p *UserPlatform) Patch(addr uint64, buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	orig, ok := p.M.Mem.ProtOf(addr)
	if !ok {
		return fmt.Errorf("core: patch of unmapped address %#x", addr)
	}
	if err := p.M.Mem.Protect(addr, uint64(len(buf)), mem.RW); err != nil {
		return err
	}
	if err := p.M.Mem.Write(addr, buf); err != nil {
		return err
	}
	return p.M.Mem.Protect(addr, uint64(len(buf)), orig)
}

// FlushICache implements Platform. The flush is broadcast to every
// hardware thread: on SMP machines a patch must shoot down all icaches,
// not just the patching CPU's.
func (p *UserPlatform) FlushICache(addr, n uint64) { p.M.FlushICacheAll(addr, n) }

// ICacheStale implements Platform.
func (p *UserPlatform) ICacheStale(addr, n uint64) bool { return p.M.ICacheStale(addr, n) }

// Restore implements Platform.
func (p *UserPlatform) Restore(addr uint64, buf []byte) error {
	return p.M.Mem.WriteForce(addr, buf)
}

// SetProt implements Platform.
func (p *UserPlatform) SetProt(addr, n uint64, prot mem.Prot) error {
	return p.M.Mem.Protect(addr, n, prot)
}

// ProtAt implements Platform.
func (p *UserPlatform) ProtAt(addr uint64) (mem.Prot, bool) { return p.M.Mem.ProtOf(addr) }

// MemStats implements Platform.
func (p *UserPlatform) MemStats() mem.Stats { return p.M.Mem.Stats }

// AdvanceCycles implements Platform: retry backoff burns cycles on the
// patching (primary) CPU.
func (p *UserPlatform) AdvanceCycles(n uint64) { p.M.CPU.AddCycles(n) }

// LiveCodeAddrs implements Platform: every PC plus the conservative
// stack return-address scan of each non-halted hardware thread.
func (p *UserPlatform) LiveCodeAddrs() ([]uint64, bool) { return p.M.LiveCodeAddrs() }

// OSRCPUs implements Platform.
func (p *UserPlatform) OSRCPUs() []machine.OSRCPU { return p.M.OSRCPUs() }

// StopMachine implements Platform.
func (p *UserPlatform) StopMachine(avoid []machine.Range, fn func() error) (uint64, error) {
	return p.M.StopMachine(avoid, fn)
}

// NotePokePhase implements Platform.
func (p *UserPlatform) NotePokePhase(phase int, addr, n uint64) {
	p.M.NotePokePhase(phase, addr, n)
}

// KernelPlatform patches like kernel code: straight through the
// physical mapping, with no protection flips. Everything else, the
// icache shootdown included, is the user port's.
type KernelPlatform struct {
	UserPlatform
}

// Patch implements Platform.
func (p *KernelPlatform) Patch(addr uint64, buf []byte) error {
	return p.M.Mem.WriteForce(addr, buf)
}
