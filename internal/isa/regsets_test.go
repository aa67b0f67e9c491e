package isa

import "testing"

func TestReadWriteSets(t *testing.T) {
	cases := []struct {
		in     Instr
		reads  []Reg
		writes []Reg
	}{
		{Instr{Op: OpMovImm, Dst: RAX}, nil, []Reg{RAX}},
		{Instr{Op: OpMov, Dst: RAX, Src: RBX}, []Reg{RBX}, []Reg{RAX}},
		{Instr{Op: OpAdd, Dst: RAX, Src: RBX}, []Reg{RAX, RBX}, []Reg{RAX, RFLAGS}},
		{Instr{Op: OpCmp, Dst: RAX, Src: RBX}, []Reg{RAX, RBX}, []Reg{RFLAGS}},
		{Instr{Op: OpJe}, []Reg{RFLAGS}, nil},
		{Instr{Op: OpJmpReg, Dst: R9}, []Reg{R9}, nil},
		{Instr{Op: OpLoop}, []Reg{RCX}, []Reg{RCX}},
		{Instr{Op: OpPush, Src: RBP}, []Reg{RBP, RSP}, []Reg{RSP}},
		{Instr{Op: OpPop, Dst: RBP}, []Reg{RSP}, []Reg{RBP, RSP}},
		{Instr{Op: OpCall}, []Reg{RSP}, []Reg{RSP}},
		{Instr{Op: OpRet}, []Reg{RSP}, []Reg{RSP}},
		{Instr{Op: OpLoad, Dst: RAX, Base: RSI}, []Reg{RSI}, []Reg{RAX}},
		{Instr{Op: OpStore, Src: RAX, Base: RDI}, []Reg{RAX, RDI}, nil},
		{Instr{Op: OpRepMovs}, []Reg{RCX, RSI, RDI}, []Reg{RCX, RSI, RDI}},
		{Instr{Op: OpCpuid}, []Reg{RAX}, []Reg{RAX, RBX, RCX, RDX}},
		{Instr{Op: OpRdtsc}, nil, []Reg{RAX, RDX}},
		{Instr{Op: OpAssertLe, Dst: RCX}, []Reg{RCX}, nil},
		{Instr{Op: OpVMEntry}, nil, nil},
		{Instr{Op: OpNop}, nil, nil},
	}
	for _, c := range cases {
		if got := c.in.Reads(); !sameRegs(got, c.reads) {
			t.Errorf("%v Reads() = %v, want %v", c.in, got, c.reads)
		}
		if got := c.in.Writes(); !sameRegs(got, c.writes) {
			t.Errorf("%v Writes() = %v, want %v", c.in, got, c.writes)
		}
	}
}

func sameRegs(a, b []Reg) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[Reg]int{}
	for _, r := range a {
		seen[r]++
	}
	for _, r := range b {
		seen[r]--
		if seen[r] < 0 {
			return false
		}
	}
	return true
}

func TestReadsRegWritesReg(t *testing.T) {
	in := Instr{Op: OpAdd, Dst: RAX, Src: RBX}
	if !in.ReadsReg(RAX) || !in.ReadsReg(RBX) || in.ReadsReg(RCX) {
		t.Error("ReadsReg wrong")
	}
	if !in.WritesReg(RAX) || !in.WritesReg(RFLAGS) || in.WritesReg(RBX) {
		t.Error("WritesReg wrong")
	}
}

// Every conditional branch must read RFLAGS so flag corruption is visible
// to activation analysis.
func TestConditionalBranchesReadFlags(t *testing.T) {
	for _, op := range []Op{OpJe, OpJne, OpJl, OpJle, OpJg, OpJge, OpJb, OpJae, OpJs, OpJns} {
		in := Instr{Op: op}
		if !in.ReadsReg(RFLAGS) {
			t.Errorf("%v does not read rflags", op)
		}
	}
}

// Every ALU op must write RFLAGS (x86-style) so downstream branches see it.
func TestALUWritesFlags(t *testing.T) {
	for _, op := range []Op{OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpMul, OpDiv, OpAddImm, OpSubImm, OpCmp, OpCmpImm, OpTest, OpTestImm} {
		in := Instr{Op: op, Dst: RAX, Src: RBX}
		if !in.WritesReg(RFLAGS) {
			t.Errorf("%v does not write rflags", op)
		}
	}
}

// TestRegQueriesMatchSets holds the allocation-free ReadsReg/WritesReg to
// the slice-building Reads/Writes they replace on the hot path: every
// opcode (plus one past the last) × every queried register, with each
// operand field in turn naming the queried register.
func TestRegQueriesMatchSets(t *testing.T) {
	regs := []Reg{NoReg}
	for r := Reg(0); r < NumReg; r++ {
		regs = append(regs, r)
	}
	contains := func(set []Reg, r Reg) bool {
		for _, x := range set {
			if x == r {
				return true
			}
		}
		return false
	}
	for op := Op(0); op <= NumOps; op++ {
		for _, r := range regs {
			for _, in := range []Instr{
				{Op: op, Dst: NoReg, Src: NoReg, Base: NoReg},
				{Op: op, Dst: RAX, Src: RBX, Base: RSI},
				{Op: op, Dst: r, Src: R10, Base: R11},
				{Op: op, Dst: R10, Src: r, Base: R11},
				{Op: op, Dst: R10, Src: R11, Base: r},
			} {
				if got, want := in.ReadsReg(r), contains(in.Reads(), r); got != want {
					t.Errorf("%+v ReadsReg(%v) = %v, Reads() = %v", in, r, got, in.Reads())
				}
				if got, want := in.WritesReg(r), contains(in.Writes(), r); got != want {
					t.Errorf("%+v WritesReg(%v) = %v, Writes() = %v", in, r, got, in.Writes())
				}
			}
		}
	}
}

// TestRegQueriesAllocationFree: the post-flip injection hook calls these
// once per instruction, so they must not touch the heap.
func TestRegQueriesAllocationFree(t *testing.T) {
	ins := []Instr{
		{Op: OpAdd, Dst: RAX, Src: RBX},
		{Op: OpPush, Src: RBP},
		{Op: OpPop, Dst: RBP},
		{Op: OpStore, Src: RAX, Base: RDI},
		{Op: OpRepMovs},
		{Op: OpCpuid},
	}
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		for _, in := range ins {
			for r := Reg(0); r < NumReg; r++ {
				if in.ReadsReg(r) {
					sink++
				}
				if in.WritesReg(r) {
					sink++
				}
			}
		}
	})
	if allocs != 0 {
		t.Errorf("ReadsReg/WritesReg allocate %.1f times per run, want 0", allocs)
	}
	_ = sink
}
