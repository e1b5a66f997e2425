package codegen

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cc"
	"repro/internal/isa"
	"repro/internal/obj"
)

// Descriptor sizes (paper §5: "we add 32 bytes for every configuration
// switch, 16 bytes for every call site, and 48 + #variants · (32 +
// #guards · 16) bytes per multiversed function").
const (
	VarDescSize     = 32
	CallSiteSize    = 16
	FuncDescSize    = 48
	VariantDescSize = 32
	GuardDescSize   = 16
)

// Variable descriptor flag bits.
const (
	VarFlagSigned = 1 << 0 // the switch is a signed integer
	VarFlagFnPtr  = 1 << 1 // the switch is a tracked function pointer
)

// OSR record sizes and flag bits (multiverse.osr section). Each
// multiversed body (generic + every variant) contributes:
//
//	header  (OSRFuncHeaderSize):
//	  [0:8)   reloc → function symbol
//	  [8:12)  frame size (bytes)
//	  [12:16) flags (OSRFlagHasFrame | OSRFlagNoScratch)
//	  [16:20) slot count
//	  [20:24) point count
//	slot rec (OSRSlotRecSize), slot-count times:
//	  [0:8)   reloc → interned "Name#Seq" string
//	  [8:12)  FP-relative displacement (int32)
//	  [12:16) reserved
//	point rec (OSRPointRecSize), point-count times:
//	  [0:4)   logical label id
//	  [4:8)   kind (OSRPointLoop | OSRPointCall)
//	  [8:12)  text offset from function start
//	  [12:16) register mask (pushed | live<<16; call points only)
const (
	OSRFuncHeaderSize = 24
	OSRSlotRecSize    = 16
	OSRPointRecSize   = 16

	OSRFlagHasFrame  = 1 << 0
	OSRFlagNoScratch = 1 << 1
)

// DescriptorBytes returns the total descriptor footprint of a program
// with the given shape, per the paper's formula.
func DescriptorBytes(vars, callsites int, variantsPerFunc [][]int) int {
	total := vars*VarDescSize + callsites*CallSiteSize
	for _, variants := range variantsPerFunc {
		total += FuncDescSize
		for _, guards := range variants {
			total += VariantDescSize + guards*GuardDescSize
		}
	}
	return total
}

// mvStrSym interns a descriptor name into multiverse.strings.
func (e *emitter) mvStrSym(name string) string {
	if sym, ok := e.mvStrSyms[name]; ok {
		return sym
	}
	sec := e.o.Section(obj.SecMVStrings)
	sym := fmt.Sprintf("%s$mvs$%s", e.prog.UnitName, name)
	off := uint64(len(sec.Data))
	sec.Data = append(sec.Data, []byte(name)...)
	sec.Data = append(sec.Data, 0)
	e.o.AddSymbol(obj.Symbol{Name: sym, Section: obj.SecMVStrings, Offset: off,
		Size: uint64(len(name) + 1)})
	e.mvStrSyms[name] = sym
	return sym
}

func putU32(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
func putU64(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }

// emitDescriptors writes the three multiverse descriptor sections.
func (e *emitter) emitDescriptors() error {
	// multiverse.variables — one fixed-size record per switch.
	if len(e.prog.MVVars) > 0 {
		sec := e.o.Section(obj.SecMVVars)
		for _, v := range e.prog.MVVars {
			rec := make([]byte, VarDescSize)
			base := uint64(len(sec.Data))
			e.o.AddReloc(obj.Reloc{Section: obj.SecMVVars, Offset: base + 0,
				Type: obj.RelocAbs64, Symbol: e.symName(v)})
			width := uint32(v.Type.ByteSize())
			var flags uint32
			if v.Type.IsSigned() {
				flags |= VarFlagSigned
			}
			if v.Type.Kind == cc.KindPtr {
				flags |= VarFlagFnPtr
			}
			putU32(rec, 8, width)
			putU32(rec, 12, flags)
			e.o.AddReloc(obj.Reloc{Section: obj.SecMVVars, Offset: base + 16,
				Type: obj.RelocAbs64, Symbol: e.mvStrSym(v.Name)})
			sec.Data = append(sec.Data, rec...)
		}
	}

	// multiverse.functions — variable-length records.
	if len(e.prog.MVFuncs) > 0 {
		sec := e.o.Section(obj.SecMVFuncs)
		for _, f := range e.prog.MVFuncs {
			genSize, ok := e.funcLens[f.GenericSym]
			if !ok {
				return fmt.Errorf("codegen: multiverse function %q not emitted", f.GenericSym)
			}
			base := uint64(len(sec.Data))
			hdr := make([]byte, FuncDescSize)
			e.o.AddReloc(obj.Reloc{Section: obj.SecMVFuncs, Offset: base + 0,
				Type: obj.RelocAbs64, Symbol: f.GenericSym})
			e.o.AddReloc(obj.Reloc{Section: obj.SecMVFuncs, Offset: base + 8,
				Type: obj.RelocAbs64, Symbol: e.mvStrSym(f.Name)})
			putU32(hdr, 16, uint32(len(f.Variants)))
			putU64(hdr, 24, genSize)
			sec.Data = append(sec.Data, hdr...)
			for _, v := range f.Variants {
				vSize, ok := e.funcLens[v.SymName]
				if !ok {
					return fmt.Errorf("codegen: variant %q not emitted", v.SymName)
				}
				vbase := uint64(len(sec.Data))
				rec := make([]byte, VariantDescSize)
				e.o.AddReloc(obj.Reloc{Section: obj.SecMVFuncs, Offset: vbase + 0,
					Type: obj.RelocAbs64, Symbol: v.SymName})
				putU64(rec, 8, vSize)
				putU32(rec, 16, uint32(len(v.Guards)))
				sec.Data = append(sec.Data, rec...)
				for _, g := range v.Guards {
					gbase := uint64(len(sec.Data))
					grec := make([]byte, GuardDescSize)
					e.o.AddReloc(obj.Reloc{Section: obj.SecMVFuncs, Offset: gbase + 0,
						Type: obj.RelocAbs64, Symbol: e.symName(g.Var)})
					putU32(grec, 8, uint32(int32(g.Lo)))
					putU32(grec, 12, uint32(int32(g.Hi)))
					sec.Data = append(sec.Data, grec...)
				}
			}
		}
	}

	// multiverse.osr — per-body OSR metadata for multiversed functions.
	if len(e.osrFuncs) > 0 {
		sec := e.o.Section(obj.SecMVOSR)
		for _, fr := range e.osrFuncs {
			base := uint64(len(sec.Data))
			hdr := make([]byte, OSRFuncHeaderSize)
			e.o.AddReloc(obj.Reloc{Section: obj.SecMVOSR, Offset: base + 0,
				Type: obj.RelocAbs64, Symbol: fr.symName})
			putU32(hdr, 8, uint32(fr.frameSize))
			var flags uint32
			if fr.hasFrame {
				flags |= OSRFlagHasFrame
			}
			if fr.noScratch {
				flags |= OSRFlagNoScratch
			}
			putU32(hdr, 12, flags)
			putU32(hdr, 16, uint32(len(fr.slots)))
			putU32(hdr, 20, uint32(len(fr.points)))
			sec.Data = append(sec.Data, hdr...)
			for _, sl := range fr.slots {
				sbase := uint64(len(sec.Data))
				rec := make([]byte, OSRSlotRecSize)
				e.o.AddReloc(obj.Reloc{Section: obj.SecMVOSR, Offset: sbase + 0,
					Type: obj.RelocAbs64, Symbol: e.mvStrSym(sl.key)})
				putU32(rec, 8, uint32(sl.off))
				sec.Data = append(sec.Data, rec...)
			}
			for _, pt := range fr.points {
				rec := make([]byte, OSRPointRecSize)
				putU32(rec, 0, uint32(pt.label))
				putU32(rec, 4, uint32(pt.kind))
				putU32(rec, 8, pt.off)
				putU32(rec, 12, pt.pushedMask)
				sec.Data = append(sec.Data, rec...)
			}
		}
	}

	// multiverse.callsites — one record per recorded call site. Each
	// site gets a local label symbol so the record's address field is
	// an ordinary relocation.
	if len(e.callSites) > 0 {
		sec := e.o.Section(obj.SecMVCallSites)
		for i, cs := range e.callSites {
			label := fmt.Sprintf("%s$cs%d", e.prog.UnitName, i)
			e.o.AddSymbol(obj.Symbol{Name: label, Section: obj.SecText,
				Offset: cs.textOff, Size: uint64(isa.CallSiteLen)})
			base := uint64(len(sec.Data))
			rec := make([]byte, CallSiteSize)
			e.o.AddReloc(obj.Reloc{Section: obj.SecMVCallSites, Offset: base + 0,
				Type: obj.RelocAbs64, Symbol: label})
			e.o.AddReloc(obj.Reloc{Section: obj.SecMVCallSites, Offset: base + 8,
				Type: obj.RelocAbs64, Symbol: cs.calleeSym})
			sec.Data = append(sec.Data, rec...)
		}
	}
	return nil
}
