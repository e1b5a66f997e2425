package isa

import (
	"encoding/binary"
	"fmt"
)

// Inst is a decoded m64 instruction. The one-byte fields lead, so the
// struct packs into 32 bytes: every cached instruction and superblock
// entry (internal/cpu) holds one.
type Inst struct {
	Op   Op
	Rd   Reg   // destination / first register operand
	Rs   Reg   // source / second register operand
	Cond Cond  // for JCC
	Len  int   // encoded length in bytes
	Size int   // for LD/LDS/ST
	Imm  int64 // immediate / displacement / port number
}

// ErrTruncated is returned when the byte stream ends inside an
// instruction.
var ErrTruncated = fmt.Errorf("isa: truncated instruction")

// Decode decodes a single instruction from the start of code.
func Decode(code []byte) (Inst, error) {
	if len(code) == 0 {
		return Inst{}, ErrTruncated
	}
	op := Op(code[0])

	need := func(n int) error {
		if len(code) < n {
			return ErrTruncated
		}
		return nil
	}
	reg := func(i int) (Reg, error) {
		r := Reg(code[i])
		if r >= NumRegs {
			return 0, fmt.Errorf("isa: invalid register %d in %v", r, op)
		}
		return r, nil
	}
	imm32 := func(i int) int64 {
		return int64(int32(binary.LittleEndian.Uint32(code[i:])))
	}

	switch op {
	case HLT, NOP, BRK, RET, PAUSE, CLI, STI:
		return Inst{Op: op, Len: 1}, nil

	case NOPN:
		if err := need(2); err != nil {
			return Inst{}, err
		}
		n := int(code[1])
		if n < 2 {
			return Inst{}, fmt.Errorf("isa: NOPN length %d < 2", n)
		}
		if err := need(n); err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, Len: n}, nil

	case MOVI:
		if err := need(10); err != nil {
			return Inst{}, err
		}
		rd, err := reg(1)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, Len: 10, Rd: rd, Imm: int64(binary.LittleEndian.Uint64(code[2:]))}, nil

	case MOV, CMP, XCHG,
		ADD, SUB, MUL, DIV, MOD, AND, OR, XOR, SHL, SHR, SAR, UDIV, UMOD:
		if err := need(3); err != nil {
			return Inst{}, err
		}
		rd, err := reg(1)
		if err != nil {
			return Inst{}, err
		}
		rs, err := reg(2)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, Len: 3, Rd: rd, Rs: rs}, nil

	case NEG, NOT:
		if err := need(2); err != nil {
			return Inst{}, err
		}
		rd, err := reg(1)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, Len: 2, Rd: rd}, nil

	case LD, LDS, ST:
		if err := need(8); err != nil {
			return Inst{}, err
		}
		r1, err := reg(1)
		if err != nil {
			return Inst{}, err
		}
		r2, err := reg(2)
		if err != nil {
			return Inst{}, err
		}
		size := int(code[3])
		switch size {
		case 1, 2, 4, 8:
		default:
			return Inst{}, fmt.Errorf("isa: invalid access size %d in %v", size, op)
		}
		// For LD/LDS: r1 = rd, r2 = rb. For ST: r1 = rb, r2 = rs.
		return Inst{Op: op, Len: 8, Rd: r1, Rs: r2, Size: size, Imm: imm32(4)}, nil

	case LEA:
		if err := need(7); err != nil {
			return Inst{}, err
		}
		rd, err := reg(1)
		if err != nil {
			return Inst{}, err
		}
		rb, err := reg(2)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, Len: 7, Rd: rd, Rs: rb, Imm: imm32(3)}, nil

	case ADDI, SUBI, MULI, DIVI, MODI, ANDI, ORI, XORI, SHLI, SHRI, SARI, CMPI:
		if err := need(6); err != nil {
			return Inst{}, err
		}
		rd, err := reg(1)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, Len: 6, Rd: rd, Imm: imm32(2)}, nil

	case SETCC:
		if err := need(3); err != nil {
			return Inst{}, err
		}
		rd, err := reg(1)
		if err != nil {
			return Inst{}, err
		}
		cc := Cond(code[2])
		if cc >= NumConds {
			return Inst{}, fmt.Errorf("isa: invalid condition %d", cc)
		}
		return Inst{Op: op, Len: 3, Rd: rd, Cond: cc}, nil

	case JCC:
		if err := need(6); err != nil {
			return Inst{}, err
		}
		cc := Cond(code[1])
		if cc >= NumConds {
			return Inst{}, fmt.Errorf("isa: invalid condition %d", cc)
		}
		return Inst{Op: op, Len: 6, Cond: cc, Imm: imm32(2)}, nil

	case JMP, CALL:
		if err := need(5); err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, Len: 5, Imm: imm32(1)}, nil

	case CLLM:
		if err := need(9); err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, Len: 9, Imm: int64(binary.LittleEndian.Uint64(code[1:]))}, nil

	case CLLR:
		if err := need(5); err != nil {
			return Inst{}, err
		}
		rs, err := reg(1)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, Len: 5, Rs: rs}, nil

	case PUSH, POP, RDTSC:
		if err := need(2); err != nil {
			return Inst{}, err
		}
		r, err := reg(1)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, Len: 2, Rd: r}, nil

	case SPAD:
		if err := need(5); err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, Len: 5, Imm: imm32(1)}, nil

	case HCALL:
		if err := need(2); err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, Len: 2, Imm: int64(code[1])}, nil

	case OUTB:
		if err := need(3); err != nil {
			return Inst{}, err
		}
		rs, err := reg(2)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, Len: 3, Rs: rs, Imm: int64(code[1])}, nil

	case INB:
		if err := need(3); err != nil {
			return Inst{}, err
		}
		rd, err := reg(1)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, Len: 3, Rd: rd, Imm: int64(code[2])}, nil
	}
	return Inst{}, fmt.Errorf("isa: unknown opcode %#02x", code[0])
}
