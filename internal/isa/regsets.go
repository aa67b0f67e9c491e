package isa

// Register read/write sets per instruction, including implicit operands
// (RSP for stack traffic, RCX/RSI/RDI for string moves, RFLAGS for
// conditional branches and ALU results). The fault-injection framework uses
// these to decide whether a flipped register is *activated* — read before
// its next overwrite — which the paper distinguishes from non-activated
// errors that are architecturally masked.
//
// RIP is excluded from both sets: a flip in RIP is always activated at the
// next fetch and is handled specially by the injector.

// Reads returns the registers the instruction reads.
func (in Instr) Reads() []Reg {
	switch in.Op {
	case OpNop, OpHlt, OpMovImm, OpJmp, OpVMEntry:
		return nil
	case OpMov:
		return []Reg{in.Src}
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpDiv:
		return []Reg{in.Dst, in.Src}
	case OpAddImm, OpSubImm, OpAndImm, OpOrImm, OpXorImm, OpShlImm, OpShrImm:
		return []Reg{in.Dst}
	case OpCmp, OpTest:
		return []Reg{in.Dst, in.Src}
	case OpCmpImm, OpTestImm:
		return []Reg{in.Dst}
	case OpJe, OpJne, OpJl, OpJle, OpJg, OpJge, OpJb, OpJae, OpJs, OpJns:
		return []Reg{RFLAGS}
	case OpJmpReg:
		return []Reg{in.Dst}
	case OpLoop:
		return []Reg{RCX}
	case OpCall:
		return []Reg{RSP}
	case OpRet:
		return []Reg{RSP}
	case OpPush:
		return []Reg{in.Src, RSP}
	case OpPop:
		return []Reg{RSP}
	case OpLoad:
		return []Reg{in.Base}
	case OpStore:
		return []Reg{in.Src, in.Base}
	case OpRepMovs:
		return []Reg{RCX, RSI, RDI}
	case OpCpuid:
		return []Reg{RAX}
	case OpRdtsc:
		return nil
	case OpOut:
		return []Reg{in.Src}
	case OpAssertEq, OpAssertNe, OpAssertLe, OpAssertGe:
		return []Reg{in.Dst}
	case OpAssertRange:
		return []Reg{in.Dst, in.Src}
	}
	return nil
}

// Writes returns the registers the instruction writes.
func (in Instr) Writes() []Reg {
	switch in.Op {
	case OpMovImm, OpMov, OpPop, OpLoad:
		if in.Op == OpPop {
			return []Reg{in.Dst, RSP}
		}
		return []Reg{in.Dst}
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpDiv,
		OpAddImm, OpSubImm, OpAndImm, OpOrImm, OpXorImm, OpShlImm, OpShrImm:
		return []Reg{in.Dst, RFLAGS}
	case OpCmp, OpCmpImm, OpTest, OpTestImm:
		return []Reg{RFLAGS}
	case OpLoop:
		return []Reg{RCX}
	case OpCall, OpRet:
		return []Reg{RSP}
	case OpPush:
		return []Reg{RSP}
	case OpRepMovs:
		return []Reg{RCX, RSI, RDI}
	case OpCpuid:
		return []Reg{RAX, RBX, RCX, RDX}
	case OpRdtsc:
		return []Reg{RAX, RDX}
	}
	return nil
}

// ReadsReg reports whether the instruction reads r. It is Reads without
// the slice: the injection hook asks it on every instruction after a
// register flip, so it must not allocate. TestRegQueriesMatchSets holds
// the two in agreement over every opcode and register.
func (in Instr) ReadsReg(r Reg) bool {
	switch in.Op {
	case OpMov, OpOut:
		return r == in.Src
	case OpPush:
		return r == in.Src || r == RSP
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpDiv,
		OpCmp, OpTest, OpAssertRange:
		return r == in.Dst || r == in.Src
	case OpAddImm, OpSubImm, OpAndImm, OpOrImm, OpXorImm, OpShlImm, OpShrImm,
		OpCmpImm, OpTestImm, OpJmpReg, OpAssertEq, OpAssertNe, OpAssertLe, OpAssertGe:
		return r == in.Dst
	case OpJe, OpJne, OpJl, OpJle, OpJg, OpJge, OpJb, OpJae, OpJs, OpJns:
		return r == RFLAGS
	case OpLoop:
		return r == RCX
	case OpCall, OpRet, OpPop:
		return r == RSP
	case OpLoad:
		return r == in.Base
	case OpStore:
		return r == in.Src || r == in.Base
	case OpRepMovs:
		return r == RCX || r == RSI || r == RDI
	case OpCpuid:
		return r == RAX
	}
	return false
}

// WritesReg reports whether the instruction writes r: Writes without the
// slice, allocation-free like ReadsReg.
func (in Instr) WritesReg(r Reg) bool {
	switch in.Op {
	case OpMovImm, OpMov, OpLoad:
		return r == in.Dst
	case OpPop:
		return r == in.Dst || r == RSP
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpDiv,
		OpAddImm, OpSubImm, OpAndImm, OpOrImm, OpXorImm, OpShlImm, OpShrImm:
		return r == in.Dst || r == RFLAGS
	case OpCmp, OpCmpImm, OpTest, OpTestImm:
		return r == RFLAGS
	case OpLoop:
		return r == RCX
	case OpCall, OpRet, OpPush:
		return r == RSP
	case OpRepMovs:
		return r == RCX || r == RSI || r == RDI
	case OpCpuid:
		return r == RAX || r == RBX || r == RCX || r == RDX
	case OpRdtsc:
		return r == RAX || r == RDX
	}
	return false
}
