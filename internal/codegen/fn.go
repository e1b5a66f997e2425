package codegen

import (
	"fmt"
	"sort"

	"repro/internal/cc"
	"repro/internal/isa"
)

// fnEmitter generates code for one function body.
type fnEmitter struct {
	e       *emitter
	f       *cc.FuncDecl
	symName string

	slots     map[*cc.VarSym]int32 // FP-relative displacement
	frameSize int32

	vstack    []isa.Reg // expression registers currently live
	clobbered [numScratch]bool

	labels   []int   // label id -> text offset (-1 unplaced)
	fixups   []fixup // rel32 fields to patch
	breakLbl []int   // loop nesting: break targets
	contLbl  []int   // loop nesting: continue targets
	epilogue int     // label id of the common exit

	funcStart int        // text offset of the function entry
	osrPoints []osrPoint // recorded OSR points (multiverse funcs)
}

type fixup struct {
	fieldOff int // offset of the rel32 field within .text
	label    int
}

func (fe *fnEmitter) asm() *isa.Asm { return &fe.e.text }

func (fe *fnEmitter) newLabel() int {
	fe.labels = append(fe.labels, -1)
	return len(fe.labels) - 1
}

func (fe *fnEmitter) place(l int) {
	fe.labels[l] = fe.asm().Len()
}

// jump emits an unconditional jump to a label.
func (fe *fnEmitter) jump(l int) {
	at := fe.asm().Len()
	fe.asm().Jmp(0)
	fe.fixups = append(fe.fixups, fixup{at + 1, l})
}

// jcc emits a conditional jump to a label.
func (fe *fnEmitter) jcc(cc isa.Cond, l int) {
	at := fe.asm().Len()
	fe.asm().Jcc(cc, 0)
	fe.fixups = append(fe.fixups, fixup{at + 2, l})
}

func (fe *fnEmitter) patchFixups(funcStart int) error {
	code := fe.asm().Bytes()
	for _, fx := range fe.fixups {
		target := fe.labels[fx.label]
		if target < 0 {
			return fmt.Errorf("unplaced label %d", fx.label)
		}
		rel := int64(target) - int64(fx.fieldOff+4)
		if rel != int64(int32(rel)) {
			return fmt.Errorf("branch out of range")
		}
		for i := 0; i < 4; i++ {
			code[fx.fieldOff+i] = byte(uint32(rel) >> (8 * i))
		}
	}
	return nil
}

// ---- register allocation ----

func (fe *fnEmitter) alloc() (isa.Reg, error) {
	inUse := [numScratch]bool{}
	for _, r := range fe.vstack {
		inUse[r] = true
	}
	for r := 0; r < numScratch; r++ {
		if !inUse[r] {
			fe.vstack = append(fe.vstack, isa.Reg(r))
			fe.clobbered[r] = true
			return isa.Reg(r), nil
		}
	}
	return 0, fmt.Errorf("expression too complex: out of scratch registers")
}

func (fe *fnEmitter) free(r isa.Reg) {
	for i := len(fe.vstack) - 1; i >= 0; i-- {
		if fe.vstack[i] == r {
			fe.vstack = append(fe.vstack[:i], fe.vstack[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("codegen: free of non-live register %v", r))
}

// ---- frame layout ----

func (fe *fnEmitter) assignSlots() {
	// A parameter gets a slot when the body uses it; every declared
	// local gets one, in declaration order.
	used := make(map[*cc.VarSym]bool)
	var locals []*cc.VarSym
	cc.Inspect(fe.f, func(n cc.Node) bool {
		switch n := n.(type) {
		case *cc.VarRef:
			used[n.Sym] = true
		case *cc.DeclStmt:
			locals = append(locals, n.Sym)
		}
		return true
	})
	fe.slots = make(map[*cc.VarSym]int32)
	add := func(s *cc.VarSym) {
		if _, ok := fe.slots[s]; !ok {
			fe.slots[s] = -8 * int32(len(fe.slots)+1)
		}
	}
	for _, p := range fe.f.Params {
		if used[p] {
			add(p)
		}
	}
	for _, s := range locals {
		add(s)
	}
	fe.frameSize = 8 * int32(len(fe.slots))
}

// accessInfo returns the memory access size and signedness for a type.
func accessInfo(t *cc.Type) (int, bool) {
	switch t.Kind {
	case cc.KindPtr, cc.KindFunc:
		return 8, false
	default:
		size := int(t.ByteSize())
		if size == 0 {
			size = 8
		}
		return size, t.IsSigned()
	}
}

// ---- emission ----

func (fe *fnEmitter) emit() error {
	fe.assignSlots()
	fe.epilogue = fe.newLabel()
	a := fe.asm()
	funcStart := a.Len()
	fe.funcStart = funcStart

	// Frame-pointer omission: a function without parameters or locals
	// never addresses its frame, so the FP dance disappears and an
	// empty body compiles to a bare RET — which is what lets the
	// runtime's call-site inlining (paper Â§4) erase empty variants.
	hasFrame := fe.frameSize > 0
	if hasFrame {
		a.Push(FP)
		a.Mov(FP, isa.SP)
		a.SpAdd(-fe.frameSize)
	}
	// NoScratch: reserve room for register saves; we only know the
	// clobber set after emitting the body, so emit placeholder NOPs
	// now and rewrite them into pushes afterwards. Each push is 2
	// bytes, so reserve 2 bytes per scratch register.
	savesAt := a.Len()
	if fe.f.NoScratch {
		for i := 0; i < numScratch; i++ {
			a.Nop(2)
		}
	}
	// Spill parameters into their slots. Parameters a specialized
	// variant no longer reads get neither a slot nor a spill, so an
	// optimized-to-nothing variant really compiles to nothing.
	for i, p := range fe.f.Params {
		if _, ok := fe.slots[p]; !ok {
			continue
		}
		size, _ := accessInfo(p.Type)
		a.St(FP, isa.Reg(i), size, fe.slots[p])
	}

	if fe.f.Body != nil {
		if err := fe.stmt(fe.f.Body); err != nil {
			return err
		}
	}

	// Common epilogue.
	fe.place(fe.epilogue)
	if fe.f.NoScratch {
		// Restore clobbered scratch registers (reverse order).
		var regs []isa.Reg
		for r := 0; r < numScratch; r++ {
			if fe.clobbered[r] {
				regs = append(regs, isa.Reg(r))
			}
		}
		sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
		for i := len(regs) - 1; i >= 0; i-- {
			a.Pop(regs[i])
		}
		// Rewrite the placeholder NOPs into the pushes; collapse the
		// unused remainder into one wide NOP so it costs one decode.
		code := a.Bytes()
		off := savesAt
		for _, r := range regs {
			code[off] = byte(isa.PUSH)
			code[off+1] = byte(r)
			off += 2
		}
		if rest := savesAt + 2*numScratch - off; rest >= 2 {
			code[off] = byte(isa.NOPN)
			code[off+1] = byte(rest)
			for i := 2; i < rest; i++ {
				code[off+i] = 0
			}
		}
	}
	if hasFrame {
		a.Mov(isa.SP, FP)
		a.Pop(FP)
	}
	a.Ret()

	return fe.patchFixups(funcStart)
}

func (fe *fnEmitter) stmt(s cc.Stmt) error {
	switch s := s.(type) {
	case nil, *cc.Empty:
		return nil

	case *cc.Block:
		for _, st := range s.Stmts {
			if err := fe.stmt(st); err != nil {
				return err
			}
		}
		return nil

	case *cc.DeclStmt:
		if s.Init == nil {
			return nil
		}
		r, err := fe.expr(s.Init)
		if err != nil {
			return err
		}
		size, _ := accessInfo(s.Sym.Type)
		fe.asm().St(FP, r, size, fe.slots[s.Sym])
		fe.free(r)
		return nil

	case *cc.ExprStmt:
		return fe.exprForEffect(s.X)

	case *cc.If:
		elseL := fe.newLabel()
		endL := elseL
		if s.Else != nil {
			endL = fe.newLabel()
		}
		if err := fe.cond(s.Cond, false, elseL); err != nil {
			return err
		}
		if err := fe.stmt(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			fe.jump(endL)
			fe.place(elseL)
			if err := fe.stmt(s.Else); err != nil {
				return err
			}
			fe.place(endL)
		} else {
			fe.place(elseL)
		}
		return nil

	case *cc.While:
		top := fe.newLabel()
		end := fe.newLabel()
		fe.place(top)
		fe.noteOSRPoint(s.OSR, OSRPointLoop, 0)
		if err := fe.cond(s.Cond, false, end); err != nil {
			return err
		}
		fe.breakLbl = append(fe.breakLbl, end)
		fe.contLbl = append(fe.contLbl, top)
		err := fe.stmt(s.Body)
		fe.breakLbl = fe.breakLbl[:len(fe.breakLbl)-1]
		fe.contLbl = fe.contLbl[:len(fe.contLbl)-1]
		if err != nil {
			return err
		}
		fe.jump(top)
		fe.place(end)
		return nil

	case *cc.DoWhile:
		top := fe.newLabel()
		cont := fe.newLabel()
		end := fe.newLabel()
		fe.place(top)
		fe.noteOSRPoint(s.OSR, OSRPointLoop, 0)
		fe.breakLbl = append(fe.breakLbl, end)
		fe.contLbl = append(fe.contLbl, cont)
		err := fe.stmt(s.Body)
		fe.breakLbl = fe.breakLbl[:len(fe.breakLbl)-1]
		fe.contLbl = fe.contLbl[:len(fe.contLbl)-1]
		if err != nil {
			return err
		}
		fe.place(cont)
		if err := fe.cond(s.Cond, true, top); err != nil {
			return err
		}
		fe.place(end)
		return nil

	case *cc.For:
		if s.Init != nil {
			if err := fe.stmt(s.Init); err != nil {
				return err
			}
		}
		top := fe.newLabel()
		cont := fe.newLabel()
		end := fe.newLabel()
		fe.place(top)
		fe.noteOSRPoint(s.OSR, OSRPointLoop, 0)
		if s.Cond != nil {
			if err := fe.cond(s.Cond, false, end); err != nil {
				return err
			}
		}
		fe.breakLbl = append(fe.breakLbl, end)
		fe.contLbl = append(fe.contLbl, cont)
		err := fe.stmt(s.Body)
		fe.breakLbl = fe.breakLbl[:len(fe.breakLbl)-1]
		fe.contLbl = fe.contLbl[:len(fe.contLbl)-1]
		if err != nil {
			return err
		}
		fe.place(cont)
		if s.Post != nil {
			if err := fe.exprForEffect(s.Post); err != nil {
				return err
			}
		}
		fe.jump(top)
		fe.place(end)
		return nil

	case *cc.Switch:
		return fe.switchStmt(s)

	case *cc.Return:
		if s.X != nil {
			r, err := fe.expr(s.X)
			if err != nil {
				return err
			}
			if r != 0 {
				fe.asm().Mov(0, r)
				fe.clobbered[0] = true
			}
			fe.free(r)
		}
		fe.jump(fe.epilogue)
		return nil

	case *cc.Break:
		if len(fe.breakLbl) == 0 {
			return fmt.Errorf("break outside loop")
		}
		fe.jump(fe.breakLbl[len(fe.breakLbl)-1])
		return nil

	case *cc.Continue:
		if len(fe.contLbl) == 0 {
			return fmt.Errorf("continue outside loop")
		}
		fe.jump(fe.contLbl[len(fe.contLbl)-1])
		return nil
	}
	return fmt.Errorf("codegen: unknown statement %T", s)
}

// exprForEffect evaluates an expression, discarding the value.
func (fe *fnEmitter) exprForEffect(x cc.Expr) error {
	switch x := x.(type) {
	case *cc.Assign:
		return fe.assign(x, false)
	case *cc.IncDec:
		return fe.incDec(x, false)
	case *cc.Call:
		r, err := fe.call(x)
		if err != nil {
			return err
		}
		if r >= 0 {
			fe.free(isa.Reg(r))
		}
		return nil
	case *cc.Builtin:
		r, err := fe.builtin(x)
		if err != nil {
			return err
		}
		if r >= 0 {
			fe.free(isa.Reg(r))
		}
		return nil
	default:
		r, err := fe.expr(x)
		if err != nil {
			return err
		}
		fe.free(r)
		return nil
	}
}

// ---- conditions ----

// condCode maps a comparison operator to a condition code given the
// signedness of the comparison.
func condCode(op string, unsigned bool) isa.Cond {
	if unsigned {
		switch op {
		case "==":
			return isa.EQ
		case "!=":
			return isa.NE
		case "<":
			return isa.B
		case "<=":
			return isa.BE
		case ">":
			return isa.A
		case ">=":
			return isa.AE
		}
	}
	switch op {
	case "==":
		return isa.EQ
	case "!=":
		return isa.NE
	case "<":
		return isa.LT
	case "<=":
		return isa.LE
	case ">":
		return isa.GT
	case ">=":
		return isa.GE
	}
	panic("codegen: not a comparison: " + op)
}

func isCompare(op string) bool {
	switch op {
	case "==", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

// unsignedCompare reports whether the comparison of x and y is
// unsigned: pointers always, integers per the usual conversions.
func unsignedCompare(x, y cc.Expr) bool {
	xt, yt := x.Type(), y.Type()
	if xt.Kind == cc.KindPtr || yt.Kind == cc.KindPtr {
		return true
	}
	return !cc.Common(xt, yt).IsSigned()
}

// cond emits a branch to label when the truth value of x equals
// jumpIfTrue; otherwise control falls through.
func (fe *fnEmitter) cond(x cc.Expr, jumpIfTrue bool, label int) error {
	switch x := x.(type) {
	case *cc.IntLit:
		if (x.Value != 0) == jumpIfTrue {
			fe.jump(label)
		}
		return nil

	case *cc.Unary:
		if x.Op == "!" {
			return fe.cond(x.X, !jumpIfTrue, label)
		}

	case *cc.Binary:
		if isCompare(x.Op) {
			rx, err := fe.expr(x.X)
			if err != nil {
				return err
			}
			ry, err := fe.expr(x.Y)
			if err != nil {
				return err
			}
			fe.asm().Cmp(rx, ry)
			fe.free(ry)
			fe.free(rx)
			code := condCode(x.Op, unsignedCompare(x.X, x.Y))
			if !jumpIfTrue {
				code = code.Neg()
			}
			fe.jcc(code, label)
			return nil
		}
		switch x.Op {
		case "&&":
			if jumpIfTrue {
				skip := fe.newLabel()
				if err := fe.cond(x.X, false, skip); err != nil {
					return err
				}
				if err := fe.cond(x.Y, true, label); err != nil {
					return err
				}
				fe.place(skip)
				return nil
			}
			if err := fe.cond(x.X, false, label); err != nil {
				return err
			}
			return fe.cond(x.Y, false, label)
		case "||":
			if jumpIfTrue {
				if err := fe.cond(x.X, true, label); err != nil {
					return err
				}
				return fe.cond(x.Y, true, label)
			}
			skip := fe.newLabel()
			if err := fe.cond(x.X, true, skip); err != nil {
				return err
			}
			if err := fe.cond(x.Y, false, label); err != nil {
				return err
			}
			fe.place(skip)
			return nil
		}
	}

	// Generic: evaluate and compare against zero.
	r, err := fe.expr(x)
	if err != nil {
		return err
	}
	fe.asm().CmpI(r, 0)
	fe.free(r)
	if jumpIfTrue {
		fe.jcc(isa.NE, label)
	} else {
		fe.jcc(isa.EQ, label)
	}
	return nil
}

// switchStmt lowers a switch to a compare chain followed by the case
// bodies in order (fallthrough is free; break targets the end label).
func (fe *fnEmitter) switchStmt(s *cc.Switch) error {
	r, err := fe.expr(s.Cond)
	if err != nil {
		return err
	}
	end := fe.newLabel()
	caseLbl := make([]int, len(s.Cases))
	defaultIdx := -1
	for i, cs := range s.Cases {
		caseLbl[i] = fe.newLabel()
		if cs.IsDefault {
			defaultIdx = i
			continue
		}
		if cs.Val >= -2147483648 && cs.Val <= 2147483647 {
			fe.asm().CmpI(r, int32(cs.Val))
		} else {
			rv, err := fe.alloc()
			if err != nil {
				return err
			}
			fe.asm().Movi(rv, cs.Val)
			fe.asm().Cmp(r, rv)
			fe.free(rv)
		}
		fe.jcc(isa.EQ, caseLbl[i])
	}
	fe.free(r)
	if defaultIdx >= 0 {
		fe.jump(caseLbl[defaultIdx])
	} else {
		fe.jump(end)
	}
	// Bodies: break exits the switch; continue stays bound to the
	// enclosing loop, so only the break stack grows.
	fe.breakLbl = append(fe.breakLbl, end)
	for i, cs := range s.Cases {
		fe.place(caseLbl[i])
		for _, st := range cs.Stmts {
			if err := fe.stmt(st); err != nil {
				fe.breakLbl = fe.breakLbl[:len(fe.breakLbl)-1]
				return err
			}
		}
	}
	fe.breakLbl = fe.breakLbl[:len(fe.breakLbl)-1]
	fe.place(end)
	return nil
}
