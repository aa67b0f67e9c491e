package mem

import (
	"errors"
	"reflect"
	"testing"
)

// journalMemory maps the fuzzer's layout: a PermRW region whose last page
// is short, a read-only region, and a PermRW region whose start is not
// 512-byte aligned (so its pages never arm the D-TLB page fast path).
func journalMemory() *Memory {
	m := New()
	m.MustMap("rw", 0x10000, 4*pageWords*8+40, PermRW)
	m.MustMap("ro", 0x20000, 2*pageWords*8, PermRead)
	m.MustMap("odd", 0x30008, 3*pageWords*8, PermRW)
	return m
}

// pageKey names one page of one region.
type pageKey struct {
	region string
	page   uint64
}

// journalFuzz drives one decoded operation sequence. written is the model
// of which pages have been written since the last boundary (Mark, Undo,
// Checkpoint, RestoreCheckpoint): after every one of those, no page may
// hold an armed D-TLB entry until it is written — the rule a per-step
// full checkpoint used to give for free by sharing every page.
type journalFuzz struct {
	t       *testing.T
	m       *Memory
	written map[pageKey]bool

	mark    uint64
	oracle  map[string][]uint64 // flat Snapshot taken at mark; nil once disarmed
	cps     []*Checkpoint
	cpFlats []map[string][]uint64
}

// addr decodes a target address: mostly an aligned word inside a region,
// sometimes unaligned or unmapped.
func (f *journalFuzz) addr(a, b byte) uint64 {
	regs := f.m.Regions()
	r := regs[int(a)%len(regs)]
	words := r.Size / 8
	addr := r.Start + (uint64(b)*7%words)*8
	switch a >> 6 {
	case 1:
		if a&1 == 1 {
			return addr + 3 // unaligned
		}
	case 2:
		if a&2 == 2 {
			return r.End() + 0x1000 // unmapped
		}
	}
	return addr
}

// wrote records a successful write to addr in the model.
func (f *journalFuzz) wrote(addr uint64) {
	r := f.m.Find(addr)
	f.written[pageKey{r.Name, (addr - r.Start) / 8 >> pageShift}] = true
}

// boundary resets the written-since model.
func (f *journalFuzz) boundary() { f.written = map[pageKey]bool{} }

// checkTLB requires every armed page entry to cache a page written since
// the last boundary.
func (f *journalFuzz) checkTLB(step int) {
	f.t.Helper()
	for i := range f.m.tlb {
		e := &f.m.tlb[i]
		if e.page == nil {
			continue
		}
		r := e.region
		p := ((e.tag << tlbByteShift) - r.Start) / 8 >> pageShift
		if !f.written[pageKey{r.Name, p}] {
			f.t.Fatalf("op %d: D-TLB slot %d armed over %s page %d before its first write since the boundary",
				step, i, r.Name, p)
		}
	}
}

func (f *journalFuzz) run(ops []byte) {
	t := f.t
	val := uint64(0x9E3779B97F4A7C15)
	for k := 0; k+3 < len(ops); k += 4 {
		op, a, b, c := ops[k], ops[k+1], ops[k+2], ops[k+3]
		step := k / 4
		val = val*6364136223846793005 + uint64(c) + 1
		switch op % 11 {
		case 0, 1: // Store
			addr := f.addr(a, b)
			if f.m.Store(addr, val) == FaultNone {
				f.wrote(addr)
			}
		case 2: // Poke
			addr := f.addr(a, b)
			if f.m.Poke(addr, val) == nil {
				f.wrote(addr)
			}
		case 3: // PokeRange
			addr := f.addr(a, b)
			vals := make([]uint64, 1+int(c)%(2*pageWords))
			for i := range vals {
				vals[i] = val + uint64(i)
			}
			if f.m.PokeRange(addr, vals) == nil {
				for i := range vals {
					f.wrote(addr + uint64(i)*8)
				}
			}
		case 4: // Zero
			r := f.m.Regions()[int(a)%len(f.m.Regions())]
			r.Zero()
			for p := range r.pages {
				f.written[pageKey{r.Name, uint64(p)}] = true
			}
		case 5: // Load, checked against the TLB-independent Peek
			addr := f.addr(a, b)
			v, fk := f.m.Load(addr)
			pv, err := f.m.Peek(addr)
			if fk == FaultNone && (err != nil || v != pv) {
				t.Fatalf("op %d: Load(%#x) = %#x, Peek = %#x (%v)", step, addr, v, pv, err)
			}
		case 6: // Checkpoint
			f.cps = append(f.cps, f.m.Checkpoint())
			f.cpFlats = append(f.cpFlats, f.m.Snapshot())
			f.oracle = nil // Checkpoint disarms the journal
			f.boundary()
		case 7: // RestoreCheckpoint
			if len(f.cps) == 0 {
				continue
			}
			i := int(a) % len(f.cps)
			if err := f.m.RestoreCheckpoint(f.cps[i]); err != nil {
				t.Fatal(err)
			}
			if got := f.m.Snapshot(); !reflect.DeepEqual(got, f.cpFlats[i]) {
				t.Fatalf("op %d: RestoreCheckpoint(%d) diverged from its flat image", step, i)
			}
			f.oracle = nil // so does RestoreCheckpoint
			f.boundary()
		case 8: // Mark
			f.mark = f.m.Mark()
			f.oracle = f.m.Snapshot()
			f.boundary()
		case 9, 10: // Undo, to the live mark or a stale/zero one
			mark := f.mark
			if op%11 == 10 && a&1 == 1 {
				mark = f.mark - 1 - uint64(b)%2
			}
			before := f.m.Snapshot()
			err := f.m.Undo(mark)
			if f.oracle == nil || mark != f.mark {
				if !errors.Is(err, ErrStaleMark) {
					t.Fatalf("op %d: Undo(stale %d) = %v, want ErrStaleMark", step, mark, err)
				}
				if got := f.m.Snapshot(); !reflect.DeepEqual(got, before) {
					t.Fatalf("op %d: stale Undo changed memory", step)
				}
				break
			}
			if err != nil {
				t.Fatalf("op %d: Undo(live mark) = %v", step, err)
			}
			if got := f.m.Snapshot(); !reflect.DeepEqual(got, f.oracle) {
				t.Fatalf("op %d: Undo diverged from the flat snapshot taken at Mark", step)
			}
			f.boundary()
		}
		f.checkTLB(step)
	}
	// Every checkpoint image survived whatever the journal did afterwards.
	for i, cp := range f.cps {
		if err := f.m.RestoreCheckpoint(cp); err != nil {
			t.Fatal(err)
		}
		if got := f.m.Snapshot(); !reflect.DeepEqual(got, f.cpFlats[i]) {
			t.Fatalf("checkpoint %d corrupted", i)
		}
	}
}

// FuzzUndoJournal decodes random sequences of stores, pokes, zeroes and
// loads mixed with checkpoints, checkpoint restores, marks and undos.
// After every undo memory must equal the flat Snapshot taken at the mark;
// an undo to a stale mark must fail with ErrStaleMark and change nothing;
// checkpoint images must be untouched by the journal; and no page may arm
// the D-TLB fast path before its first write since the last boundary.
func FuzzUndoJournal(f *testing.F) {
	f.Add([]byte{8, 0, 0, 0, 0, 0, 1, 5, 5, 0, 1, 0, 9, 0, 0, 0})
	f.Add([]byte{6, 0, 0, 0, 0, 0, 3, 1, 8, 0, 0, 0, 0, 0, 3, 2, 9, 0, 0, 0, 5, 0, 3, 0, 7, 0, 0, 0, 10, 0, 0, 0})
	f.Add([]byte{8, 0, 0, 0, 3, 0, 60, 200, 4, 2, 0, 0, 5, 0, 9, 0, 9, 0, 0, 0, 0, 0, 9, 1, 9, 0, 0, 0,
		8, 0, 0, 0, 10, 1, 0, 0, 6, 0, 0, 0, 9, 0, 0, 0})
	f.Add([]byte{0, 0, 255, 0, 5, 0, 255, 0, 8, 0, 0, 0, 0, 0, 255, 1, 5, 0, 255, 0, 0, 2, 4, 0, 9, 0, 0, 0, 5, 2, 4, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		// Freshly mapped pages are private and not journaled, so they
		// may arm the D-TLB before any write, as if already written.
		fz := &journalFuzz{t: t, m: journalMemory(), written: map[pageKey]bool{}}
		for _, r := range fz.m.Regions() {
			for p := range r.pages {
				fz.written[pageKey{r.Name, uint64(p)}] = true
			}
		}
		fz.run(ops)
	})
}

// TestUndoRepeatable: Undo leaves the mark armed, so a second round of
// writes rolls back to the same contents.
func TestUndoRepeatable(t *testing.T) {
	m := journalMemory()
	if err := m.Poke(0x10000, 1); err != nil {
		t.Fatal(err)
	}
	mark := m.Mark()
	for round := uint64(2); round < 5; round++ {
		if m.Store(0x10000, round) != FaultNone || m.Store(0x10000+pageWords*8, round) != FaultNone {
			t.Fatal("store faulted")
		}
		if err := m.Undo(mark); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if v, _ := m.Peek(0x10000); v != 1 {
			t.Fatalf("round %d: word = %d after undo, want 1", round, v)
		}
		if v, _ := m.Peek(0x10000 + pageWords*8); v != 0 {
			t.Fatalf("round %d: second page word = %d after undo, want 0", round, v)
		}
	}
	m.Checkpoint()
	if err := m.Undo(mark); !errors.Is(err, ErrStaleMark) {
		t.Fatalf("Undo after Checkpoint = %v, want ErrStaleMark", err)
	}
}

// TestMarkAllocationFree: once the save buffers have grown, a mark, a
// round of first writes and an undo allocate nothing.
func TestMarkAllocationFree(t *testing.T) {
	m := journalMemory()
	round := func() {
		mark := m.Mark()
		for p := uint64(0); p < 4; p++ {
			m.Store(0x10000+p*pageWords*8, p)
		}
		if err := m.Undo(mark); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("mark/write/undo allocates %.1f times per round, want 0", allocs)
	}
}
