// Package codegen lowers checked MVC functions to m64 machine code and
// emits the multiverse descriptor sections.
//
// The calling convention mirrors the shape of the paper's Figure 3:
//
//	push fp            ; fp is r14
//	mov  fp, sp
//	spadd -frame
//	st   [fp-8], r0    ; spill parameters to slots
//	...
//	mov  sp, fp
//	pop  fp
//	ret
//
// Arguments are passed in r0..r5, the result returns in r0, r0..r9 are
// caller-saved scratch. Functions with the NoScratch attribute (the
// PV-Ops custom convention) additionally push/pop every scratch
// register they clobber, so their callers save nothing — reproducing
// the calling-convention overhead §6.1 measures.
//
// Every direct call to a multiverse function and every indirect call
// through a multiverse function-pointer switch is recorded in the
// multiverse.callsites section; both encode as exactly
// isa.CallSiteLen bytes so the runtime can patch them in place.
package codegen

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/isa"
	"repro/internal/obj"
)

// FP is the frame-pointer register.
const FP = isa.Reg(14)

// scratchRegs are the caller-saved expression registers.
const numScratch = 10

// Guard restricts one configuration switch to a value range
// (paper Figure 2: {&B, .low=0, .high=1}).
type Guard struct {
	Var    *cc.VarSym
	Lo, Hi int64
}

// MVVariant describes one generated function variant.
type MVVariant struct {
	SymName string
	Guards  []Guard
}

// MVFunc describes a multiversed function and its variants for the
// multiverse.functions section.
type MVFunc struct {
	GenericSym string
	Name       string // source-level name
	Variants   []MVVariant
}

// Func is one function to emit.
type Func struct {
	Decl    *cc.FuncDecl
	SymName string
	// PadTo forces the emitted body to at least this many bytes
	// (generic multiverse functions need >= isa.CallSiteLen bytes so
	// their prologue can be overwritten with a jump).
	PadTo int
}

// Program is a fully planned translation unit ready for emission.
type Program struct {
	UnitName string
	Globals  []*cc.GlobalDecl
	Funcs    []*Func
	MVVars   []*cc.VarSym
	MVFuncs  []*MVFunc
}

// ProgramFromUnit plans a unit without variant generation: every
// defined function is emitted as-is and multiverse variables get
// descriptors. The variant generator in package core builds on top of
// this.
func ProgramFromUnit(u *cc.Unit) *Program {
	p := &Program{UnitName: u.File}
	seenGlobal := make(map[*cc.VarSym]bool)
	for _, d := range u.Decls {
		switch d := d.(type) {
		case *cc.GlobalDecl:
			if d.Sym.Extern || seenGlobal[d.Sym] {
				continue
			}
			seenGlobal[d.Sym] = true
			p.Globals = append(p.Globals, d)
			if d.Sym.Multiverse {
				p.MVVars = append(p.MVVars, d.Sym)
			}
		case *cc.FuncDecl:
			if d.Body == nil || d.Sym.Func != d {
				continue // prototype, or superseded by the definition
			}
			p.Funcs = append(p.Funcs, &Func{Decl: d, SymName: SymbolName(u.File, d.Sym)})
		}
	}
	return p
}

// SymbolName returns the linker symbol for a file-scope symbol;
// statics are mangled with the unit name.
func SymbolName(unit string, s *cc.VarSym) string {
	if s.Storage == cc.StorageStatic {
		return unit + "$" + s.Name
	}
	return s.Name
}

// Compile emits the program into a relocatable object.
func Compile(p *Program) (*obj.Object, error) {
	e := &emitter{
		prog:      p,
		o:         obj.New(p.UnitName),
		funcSyms:  make(map[*cc.VarSym]string),
		funcLens:  make(map[string]uint64),
		strSyms:   make(map[string]string),
		mvStrSyms: make(map[string]string),
	}
	// Pre-register symbol names for all defined functions so calls can
	// reference them before their bodies are emitted.
	for _, f := range p.Funcs {
		if _, dup := e.funcLens[f.SymName]; dup {
			return nil, fmt.Errorf("codegen: duplicate function symbol %q", f.SymName)
		}
		e.funcLens[f.SymName] = 0
		if f.Decl.Sym != nil && f.SymName == SymbolName(p.UnitName, f.Decl.Sym) {
			e.funcSyms[f.Decl.Sym] = f.SymName
		}
	}
	if err := e.emitGlobals(); err != nil {
		return nil, err
	}
	for _, f := range p.Funcs {
		if err := e.emitFunc(f); err != nil {
			return nil, err
		}
	}
	e.o.Section(obj.SecText).Data = e.text.Bytes()
	if err := e.emitDescriptors(); err != nil {
		return nil, err
	}
	if err := e.o.Validate(); err != nil {
		return nil, err
	}
	return e.o, nil
}

type callSiteRec struct {
	textOff   uint64 // offset of the CALL/CLLR opcode within .text
	calleeSym string // generic function symbol or switch-variable symbol
}

type emitter struct {
	prog *Program
	o    *obj.Object
	text isa.Asm

	funcSyms  map[*cc.VarSym]string // function symbol names (generic)
	funcLens  map[string]uint64     // emitted body length per symbol
	strSyms   map[string]string     // string literal -> rodata symbol
	mvStrSyms map[string]string     // descriptor name -> multiverse.strings symbol

	callSites []callSiteRec
	osrFuncs  []*osrFuncRec
	strCount  int
}

// symName resolves the emitted name for a data or function symbol.
func (e *emitter) symName(s *cc.VarSym) string {
	if n, ok := e.funcSyms[s]; ok {
		return n
	}
	return SymbolName(e.prog.UnitName, s)
}

func (e *emitter) emitGlobals() error {
	data := e.o.Section(obj.SecData)
	bss := e.o.Section(obj.SecBSS)
	for _, g := range e.prog.Globals {
		s := g.Sym
		size := s.Type.ByteSize()
		if size <= 0 {
			return fmt.Errorf("codegen: global %q has no size", s.Name)
		}
		name := e.symName(s)
		if s.Init != nil && *s.Init != 0 {
			off := alignSection(data, 8)
			buf := make([]byte, size)
			v := uint64(*s.Init)
			for i := int64(0); i < size && i < 8; i++ {
				buf[i] = byte(v >> (8 * i))
			}
			data.Data = append(data.Data, buf...)
			e.o.AddSymbol(obj.Symbol{Name: name, Section: obj.SecData, Offset: off,
				Size: uint64(size), Global: s.Storage == cc.StorageGlobal})
		} else {
			align := uint64(8)
			if s.Type.Kind == cc.KindArray {
				align = 16
			}
			bss.Size = alignTo(bss.Size, align)
			off := bss.Size
			bss.Size += uint64(size)
			e.o.AddSymbol(obj.Symbol{Name: name, Section: obj.SecBSS, Offset: off,
				Size: uint64(size), Global: s.Storage == cc.StorageGlobal})
		}
	}
	return nil
}

// strSym interns a string literal into .rodata and returns its symbol.
func (e *emitter) strSym(v string) string {
	if sym, ok := e.strSyms[v]; ok {
		return sym
	}
	ro := e.o.Section(obj.SecROData)
	off := uint64(len(ro.Data))
	ro.Data = append(ro.Data, []byte(v)...)
	ro.Data = append(ro.Data, 0)
	sym := fmt.Sprintf("%s$str%d", e.prog.UnitName, e.strCount)
	e.strCount++
	e.o.AddSymbol(obj.Symbol{Name: sym, Section: obj.SecROData, Offset: off,
		Size: uint64(len(v) + 1)})
	e.strSyms[v] = sym
	return sym
}

func alignSection(s *obj.Section, align uint64) uint64 {
	n := alignTo(uint64(len(s.Data)), align)
	for uint64(len(s.Data)) < n {
		s.Data = append(s.Data, 0)
	}
	return n
}

func alignTo(v, align uint64) uint64 {
	return (v + align - 1) &^ (align - 1)
}

// padText aligns the text cursor to 16 bytes with NOP filler.
func (e *emitter) padText() {
	for e.text.Len()%16 != 0 {
		gap := 16 - e.text.Len()%16
		if gap > 255 {
			gap = 255
		}
		e.text.Nop(gap)
	}
}

func (e *emitter) emitFunc(f *Func) error {
	e.padText()
	start := uint64(e.text.Len())

	fe := &fnEmitter{e: e, f: f.Decl, symName: f.SymName}
	if err := fe.emit(); err != nil {
		return fmt.Errorf("%s: %w", f.SymName, err)
	}
	if f.Decl.Multiverse {
		e.osrFuncs = append(e.osrFuncs, fe.osrRecord())
	}

	for uint64(e.text.Len())-start < uint64(f.PadTo) {
		e.text.Nop(1)
	}
	size := uint64(e.text.Len()) - start
	e.funcLens[f.SymName] = size
	global := true
	if f.Decl.Sym != nil && f.Decl.Sym.Storage == cc.StorageStatic {
		global = false
	}
	// Variant symbols (SymName != source symbol) stay local.
	if f.Decl.Sym != nil && f.SymName != SymbolName(e.prog.UnitName, f.Decl.Sym) {
		global = false
	}
	e.o.AddSymbol(obj.Symbol{Name: f.SymName, Section: obj.SecText, Offset: start,
		Size: size, Global: global})
	return nil
}
