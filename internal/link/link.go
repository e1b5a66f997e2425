// Package link combines relocatable objects into an executable image.
//
// The linker concatenates same-named sections across translation units
// in input order — the mechanism the multiverse descriptor design
// relies on (paper §5): each unit contributes descriptor records to
// the multiverse.* sections and the concatenation forms one contiguous
// array per descriptor type. Address-of fields inside descriptors are
// ordinary Abs64 relocations, resolved here.
package link

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obj"
)

// Memory layout constants.
const (
	// TextBase is the load address of the text segment. The first
	// instruction is always the linker-synthesized halt stub.
	TextBase = uint64(0x400000)
	// segGap is the unmapped guard space between segments.
	segGap = uint64(mem.PageSize)
	// HaltStubLen is the size of the synthesized halt stub that
	// precedes all program text.
	HaltStubLen = uint64(16)
)

// SymbolInfo describes a linked symbol.
type SymbolInfo struct {
	Addr uint64
	Size uint64
}

// Range is a linked section's location in memory.
type Range struct {
	Addr uint64
	Size uint64
}

// Contains reports whether addr falls inside the range.
func (r Range) Contains(addr uint64) bool {
	return addr >= r.Addr && addr < r.Addr+r.Size
}

// Segment is a loadable chunk of the image.
type Segment struct {
	Addr uint64
	Data []byte // run-time size (includes zeroed NoBits space)
	Prot mem.Prot
}

// Image is a linked, loadable program.
type Image struct {
	Segments []Segment
	Symbols  map[string]SymbolInfo
	Sections map[string]Range
	// Entry is the address of symbol "main", or 0 if undefined.
	Entry uint64
	// HaltAddr is the address of the synthesized HLT stub. A harness
	// calls a function by pushing HaltAddr as the return address.
	HaltAddr uint64

	sumOnce sync.Once
	sum     [32]byte
}

// Sum returns the image's identity: the SHA-256 of its entry point,
// halt stub address and every segment's address, protection and
// bytes, which a machine snapshot must match to apply. It is computed
// on the first call and kept, so an image must not change once summed;
// concurrent callers share one computation.
func (img *Image) Sum() [32]byte {
	img.sumOnce.Do(func() {
		h := sha256.New()
		var b [8]byte
		put := func(v uint64, n int) {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:n])
		}
		put(img.Entry, 8)
		put(img.HaltAddr, 8)
		put(uint64(len(img.Segments)), 4)
		for _, seg := range img.Segments {
			put(seg.Addr, 8)
			put(uint64(seg.Prot), 1)
			put(uint64(len(seg.Data)), 4)
			h.Write(seg.Data)
		}
		h.Sum(img.sum[:0])
	})
	return img.sum
}

// SymbolAt returns the name of the symbol covering addr, if any.
func (img *Image) SymbolAt(addr uint64) (string, bool) {
	for name, s := range img.Symbols {
		if s.Size > 0 && addr >= s.Addr && addr < s.Addr+s.Size {
			return name, true
		}
	}
	return "", false
}

type concatSection struct {
	name   string
	flags  obj.SectionFlags
	align  uint64
	size   uint64
	data   []byte // nil for NoBits
	pieces map[int]uint64
}

// Options configures linking.
type Options struct {
	// Base is the load address of the text segment (default TextBase).
	// Dynamically loaded modules link at a disjoint base.
	Base uint64
	// Externs resolves symbols not defined by any input object —
	// typically the exported symbols of an already loaded main image,
	// like a kernel module resolving kernel symbols.
	Externs map[string]SymbolInfo
}

// Link combines the objects into an image at the default base.
func Link(objects ...*obj.Object) (*Image, error) {
	return LinkWithOptions(Options{}, objects...)
}

// LinkWithOptions combines the objects into an image.
func LinkWithOptions(opts Options, objects ...*obj.Object) (*Image, error) {
	if len(objects) == 0 {
		return nil, fmt.Errorf("link: no input objects")
	}
	base := opts.Base
	if base == 0 {
		base = TextBase
	}
	if base%0x1000 != 0 {
		return nil, fmt.Errorf("link: base %#x not page-aligned", base)
	}
	for _, o := range objects {
		if err := o.Validate(); err != nil {
			return nil, err
		}
	}

	// 1. Concatenate sections by name, in input order.
	var order []string
	concat := make(map[string]*concatSection)
	for i, o := range objects {
		for _, s := range o.Sections {
			cs, ok := concat[s.Name]
			if !ok {
				cs = &concatSection{
					name:   s.Name,
					flags:  s.Flags,
					align:  1,
					pieces: make(map[int]uint64),
				}
				concat[s.Name] = cs
				order = append(order, s.Name)
			}
			if cs.flags != s.Flags {
				return nil, fmt.Errorf("link: section %q has conflicting flags across units", s.Name)
			}
			align := s.Align
			if align == 0 {
				align = 1
			}
			if align > cs.align {
				cs.align = align
			}
			cs.size = alignUp(cs.size, align)
			cs.pieces[i] = cs.size
			cs.size += s.ByteSize()
		}
	}
	for _, name := range order {
		cs := concat[name]
		if cs.flags&obj.SecFlagNoBits == 0 {
			cs.data = make([]byte, cs.size)
			for i, o := range objects {
				off, ok := cs.pieces[i]
				if !ok {
					continue
				}
				for _, s := range o.Sections {
					if s.Name == name {
						copy(cs.data[off:], s.Data)
					}
				}
			}
		}
	}

	// 2. Lay out segments: text (r-x), read-only (r--), data (rw-).
	img := &Image{
		Symbols:  make(map[string]SymbolInfo),
		Sections: make(map[string]Range),
		HaltAddr: base,
	}
	classify := func(cs *concatSection) int {
		switch {
		case cs.flags&obj.SecFlagExec != 0:
			return 0
		case cs.flags&obj.SecFlagWrite == 0:
			return 1
		default:
			return 2
		}
	}
	sectionAddr := make(map[string]uint64)

	// The text segment begins with the halt stub.
	var haltStub isa.Asm
	haltStub.Hlt()
	haltStub.Nop(int(HaltStubLen) - haltStub.Len())

	addr := base
	for class := 0; class < 3; class++ {
		var segData []byte
		segBase := addr
		if class == 0 {
			segData = append(segData, haltStub.Bytes()...)
		}
		for _, name := range order {
			cs := concat[name]
			if classify(cs) != class {
				continue
			}
			off := alignUp(uint64(len(segData)), cs.align)
			segData = append(segData, make([]byte, off-uint64(len(segData)))...)
			sectionAddr[name] = segBase + off
			img.Sections[name] = Range{Addr: segBase + off, Size: cs.size}
			if cs.data != nil {
				segData = append(segData, cs.data...)
			} else {
				segData = append(segData, make([]byte, cs.size)...)
			}
		}
		if class == 0 || len(segData) > 0 {
			prot := [3]mem.Prot{mem.RX, mem.Read, mem.RW}[class]
			img.Segments = append(img.Segments, Segment{Addr: segBase, Data: segData, Prot: prot})
			addr = segBase + mem.PageAlignUp(uint64(len(segData))) + segGap
		}
	}

	// 3. Build the symbol table.
	// Global symbols live in one namespace; locals are per-object.
	locals := make([]map[string]SymbolInfo, len(objects))
	definedBy := make(map[string]string) // global name -> object name
	for i, o := range objects {
		locals[i] = make(map[string]SymbolInfo)
		for _, sym := range o.Symbols {
			if sym.Section == "" {
				continue // reference only
			}
			cs := concat[sym.Section]
			base, ok := sectionAddr[sym.Section]
			if !ok {
				return nil, fmt.Errorf("link: %s: symbol %q in unplaced section %q", o.Name, sym.Name, sym.Section)
			}
			info := SymbolInfo{Addr: base + cs.pieces[i] + sym.Offset, Size: sym.Size}
			locals[i][sym.Name] = info
			if sym.Global {
				if prev, dup := definedBy[sym.Name]; dup {
					return nil, fmt.Errorf("link: symbol %q defined in both %s and %s", sym.Name, prev, o.Name)
				}
				definedBy[sym.Name] = o.Name
				img.Symbols[sym.Name] = info
			}
		}
	}

	// 4. Apply relocations.
	segFor := func(a uint64) *Segment {
		for i := range img.Segments {
			s := &img.Segments[i]
			if a >= s.Addr && a < s.Addr+uint64(len(s.Data)) {
				return s
			}
		}
		return nil
	}
	for i, o := range objects {
		for _, r := range o.Relocs {
			target, ok := locals[i][r.Symbol]
			if !ok {
				target, ok = img.Symbols[r.Symbol]
			}
			if !ok && opts.Externs != nil {
				target, ok = opts.Externs[r.Symbol]
			}
			if !ok {
				return nil, fmt.Errorf("link: %s: undefined symbol %q", o.Name, r.Symbol)
			}
			cs := concat[r.Section]
			fieldAddr := sectionAddr[r.Section] + cs.pieces[i] + r.Offset
			seg := segFor(fieldAddr)
			if seg == nil {
				return nil, fmt.Errorf("link: %s: relocation at %#x outside all segments", o.Name, fieldAddr)
			}
			fo := fieldAddr - seg.Addr
			switch r.Type {
			case obj.RelocRel32:
				v := int64(target.Addr) + r.Addend - int64(fieldAddr+4)
				if v != int64(int32(v)) {
					return nil, fmt.Errorf("link: %s: rel32 to %q out of range (%#x)", o.Name, r.Symbol, v)
				}
				binary.LittleEndian.PutUint32(seg.Data[fo:], uint32(int32(v)))
			case obj.RelocAbs64:
				binary.LittleEndian.PutUint64(seg.Data[fo:], uint64(int64(target.Addr)+r.Addend))
			default:
				return nil, fmt.Errorf("link: %s: unknown relocation type %v", o.Name, r.Type)
			}
		}
	}

	if main, ok := img.Symbols["main"]; ok {
		img.Entry = main.Addr
	}
	return img, nil
}

func alignUp(v, align uint64) uint64 {
	if align <= 1 {
		return v
	}
	return (v + align - 1) &^ (align - 1)
}
