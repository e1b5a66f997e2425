package core

import (
	"repro/internal/isa"
)

// inlinePayload analyzes a variant body and returns the instruction
// bytes that can be copied into a 5-byte call site, or ok=false when
// the body does not qualify.
//
// A body is inlinable (paper §4: "the library detects if the function
// body of a variant is smaller than a call instruction") when it is a
// straight-line sequence of instructions ending in RET whose combined
// non-RET length fits in isa.CallSiteLen bytes, and no instruction
// touches the stack or transfers control — without the call there is
// no return address, so any SP-relative behaviour would break.
func inlinePayload(body []byte) (payload []byte, ok bool) {
	n := 0
	for n < len(body) {
		in, err := isa.Decode(body[n:])
		if err != nil {
			return nil, false
		}
		switch in.Op {
		case isa.RET:
			return payload, true
		case isa.CALL, isa.CLLR, isa.JMP, isa.JCC, isa.HLT,
			isa.PUSH, isa.POP, isa.SPAD:
			return nil, false
		case isa.NOP, isa.NOPN:
			// Padding costs nothing at the call site; skip it.
			n += in.Len
			continue
		}
		// Any instruction reading or writing SP disqualifies the body:
		// without the call there is no return address on the stack.
		if usesSP(in) {
			return nil, false
		}
		payload = append(payload, body[n:n+in.Len]...)
		if len(payload) > isa.CallSiteLen {
			return nil, false
		}
		n += in.Len
	}
	return nil, false // no RET found
}

// usesSP reports whether the instruction references the stack pointer.
func usesSP(in isa.Inst) bool {
	switch in.Op {
	case isa.MOVI, isa.MOV, isa.LD, isa.LDS, isa.ST, isa.LEA,
		isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.MOD, isa.UDIV, isa.UMOD,
		isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.SAR,
		isa.NEG, isa.NOT,
		isa.ADDI, isa.SUBI, isa.MULI, isa.DIVI, isa.MODI,
		isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI, isa.SARI,
		isa.CMP, isa.CMPI, isa.SETCC, isa.XCHG, isa.RDTSC, isa.INB:
		if in.Rd == isa.SP || in.Rs == isa.SP {
			return true
		}
	case isa.OUTB:
		return in.Rs == isa.SP
	}
	return false
}

// encodePatched renders the bytes installed at a call site for an
// inlined body: the payload followed by NOP filler up to the call-site
// length. An empty payload becomes one maximal NOP (paper Figure 3c).
func encodePatched(payload []byte) []byte {
	out := make([]byte, isa.CallSiteLen)
	if n := copy(out, payload); n < len(out) {
		isa.PutNop(out[n:])
	}
	return out
}
