package isa

import (
	"encoding/binary"
	"fmt"
)

// Asm incrementally encodes m64 instructions into a byte buffer.
// The zero value is ready to use.
type Asm struct {
	buf []byte
}

// Bytes returns the encoded instruction stream. The returned slice
// aliases the assembler's buffer.
func (a *Asm) Bytes() []byte { return a.buf }

// Len returns the current length of the instruction stream, which is
// also the offset at which the next instruction will be placed.
func (a *Asm) Len() int { return len(a.buf) }

func (a *Asm) op(o Op)     { a.buf = append(a.buf, byte(o)) }
func (a *Asm) b(v byte)    { a.buf = append(a.buf, v) }
func (a *Asm) i32(v int32) { a.buf = binary.LittleEndian.AppendUint32(a.buf, uint32(v)) }
func (a *Asm) i64(v int64) { a.buf = binary.LittleEndian.AppendUint64(a.buf, uint64(v)) }

// Hlt encodes HLT.
func (a *Asm) Hlt() { a.op(HLT) }

// Brk encodes the 1-byte BRK breakpoint trap. Cross-modifying code
// writes its single byte over the first byte of a live instruction
// (m64's text_poke_bp analogue): a concurrent fetch either decodes the
// old instruction whole or traps resumably.
func (a *Asm) Brk() { a.op(BRK) }

// Nop encodes a no-op of total length n bytes (n >= 1).
func (a *Asm) Nop(n int) {
	switch {
	case n < 1:
		panic("isa: Nop length must be >= 1")
	case n == 1:
		a.op(NOP)
	case n > 255:
		panic("isa: Nop length must be <= 255")
	default:
		a.op(NOPN)
		a.b(byte(n))
		for i := 0; i < n-2; i++ {
			a.b(0)
		}
	}
}

// Movi encodes rd <- imm64.
func (a *Asm) Movi(rd Reg, imm int64) { a.op(MOVI); a.b(byte(rd)); a.i64(imm) }

// Mov encodes rd <- rs.
func (a *Asm) Mov(rd, rs Reg) { a.op(MOV); a.b(byte(rd)); a.b(byte(rs)) }

func checkSize(size int) {
	switch size {
	case 1, 2, 4, 8:
	default:
		panic(fmt.Sprintf("isa: invalid memory access size %d", size))
	}
}

// Ld encodes rd <- zeroext(mem[rb+disp], size).
func (a *Asm) Ld(rd, rb Reg, size int, disp int32) {
	checkSize(size)
	a.op(LD)
	a.b(byte(rd))
	a.b(byte(rb))
	a.b(byte(size))
	a.i32(disp)
}

// Lds encodes rd <- signext(mem[rb+disp], size).
func (a *Asm) Lds(rd, rb Reg, size int, disp int32) {
	checkSize(size)
	a.op(LDS)
	a.b(byte(rd))
	a.b(byte(rb))
	a.b(byte(size))
	a.i32(disp)
}

// St encodes mem[rb+disp] <- low size bytes of rs.
func (a *Asm) St(rb, rs Reg, size int, disp int32) {
	checkSize(size)
	a.op(ST)
	a.b(byte(rb))
	a.b(byte(rs))
	a.b(byte(size))
	a.i32(disp)
}

// Lea encodes rd <- rb + disp.
func (a *Asm) Lea(rd, rb Reg, disp int32) {
	a.op(LEA)
	a.b(byte(rd))
	a.b(byte(rb))
	a.i32(disp)
}

// Alu encodes a two-register ALU operation (ADD..NOT).
func (a *Asm) Alu(op Op, rd, rs Reg) {
	switch op {
	case ADD, SUB, MUL, DIV, MOD, AND, OR, XOR, SHL, SHR, SAR, UDIV, UMOD:
		a.op(op)
		a.b(byte(rd))
		a.b(byte(rs))
	case NEG, NOT:
		a.op(op)
		a.b(byte(rd))
	default:
		panic(fmt.Sprintf("isa: %v is not an ALU op", op))
	}
}

// AluI encodes a register-immediate ALU operation (ADDI..SARI).
func (a *Asm) AluI(op Op, rd Reg, imm int32) {
	switch op {
	case ADDI, SUBI, MULI, DIVI, MODI, ANDI, ORI, XORI, SHLI, SHRI, SARI:
		a.op(op)
		a.b(byte(rd))
		a.i32(imm)
	default:
		panic(fmt.Sprintf("isa: %v is not an immediate ALU op", op))
	}
}

// SetCC encodes rd <- 1 if the condition holds for the last CMP, else 0.
func (a *Asm) SetCC(rd Reg, cc Cond) { a.op(SETCC); a.b(byte(rd)); a.b(byte(cc)) }

// Cmp encodes compare rs1, rs2.
func (a *Asm) Cmp(rs1, rs2 Reg) { a.op(CMP); a.b(byte(rs1)); a.b(byte(rs2)) }

// CmpI encodes compare rs, imm.
func (a *Asm) CmpI(rs Reg, imm int32) { a.op(CMPI); a.b(byte(rs)); a.i32(imm) }

// Jcc encodes a conditional jump with the given displacement relative
// to the end of the instruction.
func (a *Asm) Jcc(cc Cond, rel int32) { a.op(JCC); a.b(byte(cc)); a.i32(rel) }

// Jmp encodes an unconditional jump with the given displacement
// relative to the end of the instruction.
func (a *Asm) Jmp(rel int32) { a.op(JMP); a.i32(rel) }

// Call encodes a direct call with the given displacement relative to
// the end of the instruction. The encoding is exactly CallSiteLen bytes.
func (a *Asm) Call(rel int32) { a.op(CALL); a.i32(rel) }

// CallR encodes an indirect call through rs, padded to CallSiteLen
// bytes so the site can later be patched into a direct call.
func (a *Asm) CallR(rs Reg) { a.op(CLLR); a.b(byte(rs)); a.b(0); a.b(0); a.b(0) }

// CallM encodes a call through the 64-bit function pointer stored at
// the absolute address. The encoding is exactly MemCallSiteLen bytes.
func (a *Asm) CallM(addr uint64) { a.op(CLLM); a.i64(int64(addr)) }

// Ret encodes RET.
func (a *Asm) Ret() { a.op(RET) }

// Push encodes PUSH rs.
func (a *Asm) Push(rs Reg) { a.op(PUSH); a.b(byte(rs)) }

// Pop encodes POP rd.
func (a *Asm) Pop(rd Reg) { a.op(POP); a.b(byte(rd)) }

// SpAdd encodes sp += imm.
func (a *Asm) SpAdd(imm int32) { a.op(SPAD); a.i32(imm) }

// Xchg encodes an atomic 64-bit swap of mem[rb] and rs.
func (a *Asm) Xchg(rb, rs Reg) { a.op(XCHG); a.b(byte(rb)); a.b(byte(rs)) }

// Pause encodes PAUSE.
func (a *Asm) Pause() { a.op(PAUSE) }

// Cli encodes CLI.
func (a *Asm) Cli() { a.op(CLI) }

// Sti encodes STI.
func (a *Asm) Sti() { a.op(STI) }

// Hcall encodes a hypercall with the given number.
func (a *Asm) Hcall(n uint8) { a.op(HCALL); a.b(n) }

// Rdtsc encodes rd <- cycle counter.
func (a *Asm) Rdtsc(rd Reg) { a.op(RDTSC); a.b(byte(rd)) }

// OutB encodes a byte write of rs to the given device port.
func (a *Asm) OutB(port uint8, rs Reg) { a.op(OUTB); a.b(port); a.b(byte(rs)) }

// InB encodes a byte read from the given device port into rd.
func (a *Asm) InB(rd Reg, port uint8) { a.op(INB); a.b(byte(rd)); a.b(port) }

// EncodeCall returns the CallSiteLen-byte encoding of a direct call
// with displacement rel (relative to the end of the instruction).
// The runtime library uses it to patch call sites in place.
func EncodeCall(rel int32) [CallSiteLen]byte {
	var out [CallSiteLen]byte
	out[0] = byte(CALL)
	binary.LittleEndian.PutUint32(out[1:], uint32(rel))
	return out
}

// EncodeJmp returns the 5-byte encoding of a direct jump with
// displacement rel. The runtime library overwrites generic function
// prologues with it.
func EncodeJmp(rel int32) [5]byte {
	var out [5]byte
	out[0] = byte(JMP)
	binary.LittleEndian.PutUint32(out[1:], uint32(rel))
	return out
}

// EncodeNop returns an n-byte no-op suitable for erasing an n-byte
// code region in place.
func EncodeNop(n int) []byte {
	out := make([]byte, n)
	PutNop(out)
	return out
}

// PutNop overwrites code with one no-op as long as code: the bytes
// EncodeNop(len(code)) returns, written in place without allocating.
func PutNop(code []byte) {
	a := Asm{buf: code[:0]}
	a.Nop(len(code))
}

// CallRel computes the rel32 displacement that makes a call or jump at
// address siteAddr (pointing at the opcode byte) reach target. The
// displacement is relative to the end of the 5-byte instruction.
func CallRel(siteAddr, target uint64) (int32, error) {
	d := int64(target) - (int64(siteAddr) + CallSiteLen)
	if d != int64(int32(d)) {
		return 0, fmt.Errorf("isa: displacement %#x out of rel32 range", d)
	}
	return int32(d), nil
}
