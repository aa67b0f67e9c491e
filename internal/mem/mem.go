// Package mem implements the simulated machine's physical memory: a set of
// typed, permission-checked regions (hypervisor data and stack, per-domain
// memory, shared-info pages, device MMIO) over a flat 64-bit address space.
// Accesses outside any region, or violating a region's permissions, return
// a *Fault that the CPU core turns into the corresponding architectural
// exception — exactly the signal Xentry's hardware-exception detector
// consumes.
//
// Region contents are stored as fixed-size pages with copy-on-write
// sharing, so a full-memory Checkpoint costs one pointer copy per page and
// many machines can be restored from the same checkpoint concurrently —
// the substrate the campaign engine's checkpoint pool stands on. Live
// recovery's short-lived rewind points use the cheaper undo journal
// instead (Mark/Undo): it saves only the pages written after the mark.
package mem

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Perm is a permission bit mask for a region.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermRW = PermRead | PermWrite
)

// AccessKind distinguishes the operation that faulted.
type AccessKind uint8

// Access kinds.
const (
	AccessRead AccessKind = iota
	AccessWrite
)

// String names the access kind.
func (k AccessKind) String() string {
	if k == AccessWrite {
		return "write"
	}
	return "read"
}

// FaultKind classifies a memory fault.
type FaultKind uint8

// Fault kinds. FaultNone is the zero value so the allocation-free fast
// accessors (Load/Store) can report "no fault" without boxing an error.
const (
	// FaultNone: the access succeeded (fast-path accessors only).
	FaultNone FaultKind = iota
	// FaultUnmapped: the address belongs to no region (fatal page fault).
	FaultUnmapped
	// FaultProtection: the region exists but forbids the access (#GP-like).
	FaultProtection
	// FaultUnaligned: address not 8-byte aligned for a 64-bit access.
	FaultUnaligned
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultUnmapped:
		return "unmapped"
	case FaultProtection:
		return "protection"
	case FaultUnaligned:
		return "unaligned"
	}
	return "unknown"
}

// Fault describes a failed memory access.
type Fault struct {
	Kind   FaultKind
	Access AccessKind
	Addr   uint64
	Region string // name of the violated region, if any
}

// Error implements error.
func (f *Fault) Error() string {
	if f.Region != "" {
		return fmt.Sprintf("mem: %s fault on %s of %#x (region %s)", f.Kind, f.Access, f.Addr, f.Region)
	}
	return fmt.Sprintf("mem: %s fault on %s of %#x", f.Kind, f.Access, f.Addr)
}

// Page geometry: 64 words (512 bytes) balances checkpoint granularity
// against per-page bookkeeping for this machine's ~280 KiB of memory.
const (
	pageShift = 6
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// Region is a contiguous mapped range.
type Region struct {
	Name  string
	Start uint64
	Size  uint64
	Perm  Perm

	// pages holds the contents; a page flagged in shared also belongs to at
	// least one Checkpoint and must be copied before it is written.
	pages  [][]uint64
	shared []bool
	// freePages recycles full-size pages discarded by RestoreCheckpoint
	// (pages private to this region, displaced by the restored image) for
	// later copy-on-write copies. A private page is referenced by nothing
	// but this region — Checkpoint marks every captured page shared — so
	// recycling is invisible; it exists because a campaign worker restoring
	// before every injection would otherwise reallocate each touched page
	// per run. Bounded by the region's page count.
	freePages [][]uint64
	// dirty journals the pages privatized since the last checkpoint/restore
	// boundary. cowPage is the single funnel every first-write-after-boundary
	// passes through (setWord, writablePage, storeSlow and Zero all route
	// shared pages here; the fast paths only ever write already-private
	// pages), so the journal is exact and duplicate-free: a page turns
	// private once per boundary epoch. RestoreCheckpoint uses it to restore
	// only the touched pages when rolling back to the same checkpoint.
	dirty []uint32

	// epoch and stamp form the one first-write guard: stamp[p] == epoch
	// records that page p has been written since the last boundary, which
	// makes it private (copied out of any checkpoint) and, while the undo
	// journal is armed, saved. Every boundary that shares or journals
	// pages — Checkpoint, RestoreCheckpoint, Mark, Undo — advances the
	// epoch in O(1), so the guard needs no per-page pass; the stamp
	// predicate is also the D-TLB page fast path's install rule.
	epoch uint64
	stamp []uint64
	// armed says Mark's undo journal is live: the guard then appends each
	// page's pre-write words to saved (its index to savedPages) before
	// the first write lands. Both buffers are reused across marks.
	armed      bool
	savedPages []uint32
	saved      []uint64
}

// End returns the first address past the region.
func (r *Region) End() uint64 { return r.Start + r.Size }

func (r *Region) contains(addr uint64) bool {
	return addr >= r.Start && addr < r.End()
}

// newPages allocates zeroed pages for n words (the last page may be short).
func newPages(n uint64) [][]uint64 {
	pages := make([][]uint64, (n+pageWords-1)/pageWords)
	for i := range pages {
		l := uint64(pageWords)
		if rem := n - uint64(i)*pageWords; rem < l {
			l = rem
		}
		pages[i] = make([]uint64, l)
	}
	return pages
}

// word reads word index i of the region.
func (r *Region) word(i uint64) uint64 {
	return r.pages[i>>pageShift][i&pageMask]
}

// setWord writes word index i, passing the first-write guard first.
func (r *Region) setWord(i, v uint64) {
	p := i >> pageShift
	if r.stamp[p] != r.epoch {
		r.firstWrite(p)
	}
	r.pages[p][i&pageMask] = v
}

// writablePage returns page p ready for mutation.
func (r *Region) writablePage(p uint64) []uint64 {
	if r.stamp[p] != r.epoch {
		r.firstWrite(p)
	}
	return r.pages[p]
}

// firstWrite is the guard's slow side, run once per page per epoch before
// the write lands: it journals the page's words when the undo journal is
// armed, privatizes the page when it is shared with a checkpoint
// (copy-on-write), and stamps it. Outlined so the stamped store path
// inlines into its callers.
func (r *Region) firstWrite(p uint64) {
	if r.armed {
		r.savedPages = append(r.savedPages, uint32(p))
		r.saved = append(r.saved, r.pages[p]...)
	}
	if r.shared[p] {
		r.cowPage(p)
	}
	r.stamp[p] = r.epoch
}

// cowPage privatizes a checkpoint-shared page before its first write,
// popping a recycled page when one is available and allocating otherwise.
func (r *Region) cowPage(p uint64) {
	old := r.pages[p]
	var np []uint64
	if n := len(r.freePages); n > 0 && len(old) == pageWords {
		np = r.freePages[n-1]
		r.freePages = r.freePages[:n-1]
	} else {
		np = make([]uint64, len(old))
	}
	copy(np, old)
	r.pages[p] = np
	r.shared[p] = false
	r.dirty = append(r.dirty, uint32(p))
}

// D-TLB geometry: the cache is direct-mapped and indexed by the access
// address's page number (512-byte pages, matching the checkpoint page
// size). Entries carry a *Region verified with a containment check on
// every hit, so an entry can never satisfy an access the binary search
// would not — at worst a stale or conflicting entry costs one extra miss.
const (
	tlbByteShift = pageShift + 3 // 512-byte pages
	tlbSize      = 64
	tlbMask      = tlbSize - 1
)

// TLBSlots is the number of D-TLB entries — the index space of the
// injection taxonomy's D-TLB site class.
const TLBSlots = tlbSize

// tlbEntry is one direct-mapped D-TLB slot. It caches two translation
// levels:
//
//   - region, the classic entry: addr → containing *Region, verified by a
//     containment check on every hit. Valid independently of the page
//     fields below.
//   - page/tag, the page fast path: a direct pointer to the backing page
//     for the slot's 512-byte window, letting Load/Store skip the region
//     deref, permission check, COW test, and double page indexing. An
//     entry is installed only when every check it skips is statically
//     satisfied: the region is PermRW, its Start is 512-byte aligned (so
//     the window maps to exactly one full page), the page is full-size,
//     and the page has passed its first-write guard this epoch (so it is
//     private — writing a shared page in place would corrupt the
//     checkpoint image — and, with the undo journal armed, already
//     saved). tag is the address's page number; page != nil && tag match
//     is the hit condition, so a zeroed entry is invalid.
//
// The page pointer can only go stale when pages are repointed, become
// shared, or enter a new journal epoch: Checkpoint, RestoreCheckpoint,
// Mark, Undo, and Map all invalidate the whole TLB; cowPage only
// ever repoints *shared* pages, which are never cached; Region.Zero clears
// contents in place through the guard instead of repointing.
type tlbEntry struct {
	region *Region
	page   *[pageWords]uint64
	tag    uint64
}

// Memory is the machine's physical memory map.
type Memory struct {
	regions []*Region // sorted by Start

	// tlb is the software D-TLB: a direct-mapped translation cache that
	// lets straight-line handler code (stack traffic in one slot, data
	// traffic in others) skip the per-access binary search in locate and —
	// via the per-slot page pointer — the per-access COW and permission
	// checks. It is pure cache: hits are verified or pre-verified at
	// install time, so a stale entry is a miss, never a wrong answer. It
	// is nevertheless invalidated at every structural change point (Map,
	// Checkpoint, RestoreCheckpoint, Mark, Undo) to keep the invariant
	// auditable.
	tlb [tlbSize]tlbEntry

	// DisableTLB forces every access through the binary search — the
	// pre-TLB slow path, which the reference stepper takes (the D-TLB
	// fault site does not exist there). The fast/slow differential tests
	// flip it to prove the cache is observationally invisible. Call InvalidateTLB when
	// setting it after accesses have already warmed the cache: the hot
	// probe in Load/Store does not re-check the flag on a hit.
	DisableTLB bool

	// lastCP is the checkpoint this memory's pages currently derive from:
	// set by Checkpoint and RestoreCheckpoint, cleared by any structural
	// change (Map). When RestoreCheckpoint is asked
	// to roll back to exactly this checkpoint, only the journaled dirty
	// pages can differ from the image, so the restore walks the journal
	// instead of every page.
	lastCP *Checkpoint

	// mark names the armed undo journal (see Mark); zero when disarmed.
	// marks counts every Mark ever taken, so a token is never reissued.
	mark, marks uint64
}

// ErrStaleMark reports an Undo to a mark that is no longer the memory's
// live one: a later Mark, Checkpoint, RestoreCheckpoint or Map has
// superseded it.
var ErrStaleMark = errors.New("mem: stale undo mark")

// Mark arms the undo journal at the current contents and returns its
// token. From here on the first write to each page copies the page's
// words into the region's reusable save buffer before the write lands,
// so Undo can put them back. Marking costs a D-TLB invalidation (cached
// pages must pass the guard again) and an O(1) epoch step per region —
// no per-page pass, no allocation once the buffers have grown. A new Mark
// supersedes the previous one; Checkpoint, RestoreCheckpoint and Map
// disarm the journal. lastCP and the dirty journal are untouched.
func (m *Memory) Mark() uint64 {
	m.InvalidateTLB()
	m.marks++
	m.mark = m.marks
	for _, r := range m.regions {
		r.armed = true
		r.newEpoch()
	}
	return m.mark
}

// Undo rolls memory back to the contents at mark: every page saved since
// then gets its words copied back in place (saved pages are private, so
// no checkpoint image is touched), the D-TLB is invalidated, and a new
// epoch starts with the same mark still armed, so Undo may be repeated.
// It returns ErrStaleMark, changing nothing, when mark is not the live one.
func (m *Memory) Undo(mark uint64) error {
	if mark == 0 || mark != m.mark {
		return ErrStaleMark
	}
	m.InvalidateTLB()
	for _, r := range m.regions {
		off := 0
		for _, p := range r.savedPages {
			off += copy(r.pages[p], r.saved[off:])
		}
		r.newEpoch()
	}
	return nil
}

// disarm retires the undo journal: called at every boundary that makes
// the live mark meaningless (Checkpoint, RestoreCheckpoint, Map).
func (m *Memory) disarm() {
	m.mark = 0
	for _, r := range m.regions {
		r.armed = false
		r.savedPages = r.savedPages[:0]
		r.saved = r.saved[:0]
	}
}

// newEpoch unstamps every page at once and empties the save buffers.
func (r *Region) newEpoch() {
	r.epoch++
	r.savedPages = r.savedPages[:0]
	r.saved = r.saved[:0]
}

// New returns an empty memory map.
func New() *Memory { return &Memory{} }

// InvalidateTLB drops every cached translation. Map and checkpoint
// restore invalidate internally; callers only need this when flipping
// DisableTLB on a memory that has already served accesses.
func (m *Memory) InvalidateTLB() {
	m.tlb = [tlbSize]tlbEntry{}
}

// lookup resolves addr to its region through the D-TLB, falling back to
// (and refilling from) the binary search.
func (m *Memory) lookup(addr uint64) *Region {
	slot := (addr >> tlbByteShift) & tlbMask
	if r := m.tlb[slot].region; r != nil && !m.DisableTLB &&
		addr-r.Start < r.Size {
		return r
	}
	return m.lookupSlow(addr, slot)
}

// lookupSlow is the TLB-miss path: binary search, then refill the slot.
// A refill that changes the slot's region drops the page fast path with it,
// keeping the entry's two halves consistent: an armed page always belongs
// to the entry's own region. (The fast path never needed that — a hit is
// decided by the tag alone — but the TLB coherence audit in TLBHash does.)
func (m *Memory) lookupSlow(addr, slot uint64) *Region {
	if m.DisableTLB {
		return m.Find(addr)
	}
	r := m.Find(addr)
	if r != nil {
		if e := &m.tlb[slot]; e.region != r {
			*e = tlbEntry{region: r}
		}
	}
	return r
}

// installPage arms the page fast path for addr's TLB slot when every
// check the fast path skips is statically satisfied; see tlbEntry. Called
// from the Load/Store miss paths after the access has been fully
// validated (and any COW copy performed), so the page is known private.
func (m *Memory) installPage(e *tlbEntry, r *Region, addr uint64) {
	if m.DisableTLB || r.Perm&PermRW != PermRW || r.Start%(pageWords*8) != 0 {
		return
	}
	p := (addr - r.Start) / 8 >> pageShift
	if r.stamp[p] != r.epoch || len(r.pages[p]) != pageWords {
		return
	}
	e.page = (*[pageWords]uint64)(r.pages[p])
	e.tag = addr >> tlbByteShift
}

// FlipTLBTag models a soft error striking a D-TLB entry: it toggles one
// bit of the tag word of the given slot. Only the tag is perturbed —
// entries carry Go pointers that must stay intact — which is exactly the
// hardware fault model: a corrupted tag either stops matching its own
// window (a stale entry, observationally a miss) or starts matching a
// different address whose accesses map to this slot, serving that window
// a wrong page. It returns false when the slot holds no armed page entry,
// i.e. there is nothing live to corrupt.
func (m *Memory) FlipTLBTag(slot int, bit uint8) bool {
	e := &m.tlb[uint64(slot)&tlbMask]
	if e.page == nil {
		return false
	}
	e.tag ^= 1 << (bit & 63)
	return true
}

// Map adds a region. Regions may not overlap; size is rounded up to a
// multiple of 8 bytes.
func (m *Memory) Map(name string, start, size uint64, perm Perm) (*Region, error) {
	if size == 0 {
		return nil, fmt.Errorf("mem: region %q has zero size", name)
	}
	if start%8 != 0 {
		return nil, fmt.Errorf("mem: region %q start %#x not 8-byte aligned", name, start)
	}
	size = (size + 7) &^ 7
	pages := newPages(size / 8)
	r := &Region{Name: name, Start: start, Size: size, Perm: perm,
		pages: pages, shared: make([]bool, len(pages)), stamp: make([]uint64, len(pages))}
	for _, other := range m.regions {
		if start < other.End() && other.Start < r.End() {
			return nil, fmt.Errorf("mem: region %q [%#x,%#x) overlaps %q [%#x,%#x)",
				name, start, r.End(), other.Name, other.Start, other.End())
		}
	}
	m.regions = append(m.regions, r)
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].Start < m.regions[j].Start })
	m.InvalidateTLB()
	m.disarm()
	m.lastCP = nil // any prior checkpoint no longer covers the layout
	return r, nil
}

// MustMap is Map that panics on error, for static machine layout.
func (m *Memory) MustMap(name string, start, size uint64, perm Perm) *Region {
	r, err := m.Map(name, start, size, perm)
	if err != nil {
		panic(err)
	}
	return r
}

// Find returns the region containing addr, or nil.
func (m *Memory) Find(addr uint64) *Region {
	// Binary search over sorted regions.
	lo, hi := 0, len(m.regions)
	for lo < hi {
		mid := (lo + hi) / 2
		r := m.regions[mid]
		switch {
		case addr < r.Start:
			hi = mid
		case addr >= r.End():
			lo = mid + 1
		default:
			return r
		}
	}
	return nil
}

// Region returns the named region, or nil.
func (m *Memory) Region(name string) *Region {
	for _, r := range m.regions {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Regions returns all regions in address order.
func (m *Memory) Regions() []*Region { return m.regions }

func (m *Memory) locate(addr uint64, access AccessKind, need Perm) (*Region, error) {
	if addr%8 != 0 {
		return nil, &Fault{Kind: FaultUnaligned, Access: access, Addr: addr}
	}
	r := m.lookup(addr)
	if r == nil {
		return nil, &Fault{Kind: FaultUnmapped, Access: access, Addr: addr}
	}
	if r.Perm&need == 0 {
		return nil, &Fault{Kind: FaultProtection, Access: access, Addr: addr, Region: r.Name}
	}
	return r, nil
}

// Load is the CPU core's allocation-free read: it returns the word and
// FaultNone on success, or the fault kind with no heap traffic. The cold
// path rebuilds the full *Fault through Read64, which reproduces the same
// classification bit for bit.
// LoadHit is the page-TLB probe alone: it returns the word and true on a
// page hit, false on any miss (including unaligned or unmapped addresses),
// deciding nothing about why. It is small enough to inline into the CPU's
// per-instruction closures; callers fall back to Load, which re-probes and
// classifies. A hit is exactly Load's fast path: install-time checks
// guarantee the page is private, full-size, and in a PermRW region.
func (m *Memory) LoadHit(addr uint64) (uint64, bool) {
	tag := addr >> tlbByteShift
	e := &m.tlb[tag&tlbMask]
	if addr%8 == 0 && e.tag == tag && e.page != nil {
		return e.page[addr/8&pageMask], true
	}
	return 0, false
}

// StoreHit is LoadHit's write twin: true means the word was written.
func (m *Memory) StoreHit(addr, val uint64) bool {
	tag := addr >> tlbByteShift
	e := &m.tlb[tag&tlbMask]
	if addr%8 == 0 && e.tag == tag && e.page != nil {
		e.page[addr/8&pageMask] = val
		return true
	}
	return false
}

func (m *Memory) Load(addr uint64) (uint64, FaultKind) {
	// The page-hit probe is the whole body so Load inlines into the CPU's
	// per-instruction closures: a hit is a tag compare and a direct indexed
	// read (install-time checks guarantee the page is private, full-size,
	// and in a readable region). Everything else — region probe, binary
	// search, permission and alignment faults — is the outlined loadSlow.
	tag := addr >> tlbByteShift
	e := &m.tlb[tag&tlbMask]
	if addr%8 == 0 && e.tag == tag && e.page != nil {
		return e.page[addr/8&pageMask], FaultNone
	}
	return m.loadSlow(e, addr)
}

// loadSlow is Load's page-miss path.
func (m *Memory) loadSlow(e *tlbEntry, addr uint64) (uint64, FaultKind) {
	if addr%8 != 0 {
		return 0, FaultUnaligned
	}
	r := e.region
	if r == nil || addr-r.Start >= r.Size {
		if r = m.lookupSlow(addr, (addr>>tlbByteShift)&tlbMask); r == nil {
			return 0, FaultUnmapped
		}
	}
	if r.Perm&PermRead == 0 {
		return 0, FaultProtection
	}
	v := r.word((addr - r.Start) / 8)
	m.installPage(e, r, addr)
	return v, FaultNone
}

// Store is the CPU core's allocation-free write, mirroring Load.
func (m *Memory) Store(addr, val uint64) FaultKind {
	tag := addr >> tlbByteShift
	e := &m.tlb[tag&tlbMask]
	if addr%8 == 0 && e.tag == tag && e.page != nil {
		e.page[addr/8&pageMask] = val
		return FaultNone
	}
	return m.storeSlow(e, addr, val)
}

// storeSlow is Store's page-miss path: the first-write guard, if due,
// runs here before the write and before the page fast path is armed.
func (m *Memory) storeSlow(e *tlbEntry, addr, val uint64) FaultKind {
	if addr%8 != 0 {
		return FaultUnaligned
	}
	r := e.region
	if r == nil || addr-r.Start >= r.Size {
		if r = m.lookupSlow(addr, (addr>>tlbByteShift)&tlbMask); r == nil {
			return FaultUnmapped
		}
	}
	if r.Perm&PermWrite == 0 {
		return FaultProtection
	}
	r.setWord((addr-r.Start)/8, val)
	m.installPage(e, r, addr)
	return FaultNone
}

// Read64 loads the 64-bit word at addr.
func (m *Memory) Read64(addr uint64) (uint64, error) {
	r, err := m.locate(addr, AccessRead, PermRead)
	if err != nil {
		return 0, err
	}
	return r.word((addr - r.Start) / 8), nil
}

// Write64 stores the 64-bit word at addr.
func (m *Memory) Write64(addr, val uint64) error {
	r, err := m.locate(addr, AccessWrite, PermWrite)
	if err != nil {
		return err
	}
	r.setWord((addr-r.Start)/8, val)
	return nil
}

// Poke writes ignoring permissions (loader/testing backdoor).
func (m *Memory) Poke(addr, val uint64) error {
	if addr%8 != 0 {
		return &Fault{Kind: FaultUnaligned, Access: AccessWrite, Addr: addr}
	}
	r := m.lookup(addr)
	if r == nil {
		return &Fault{Kind: FaultUnmapped, Access: AccessWrite, Addr: addr}
	}
	r.setWord((addr-r.Start)/8, val)
	return nil
}

// Peek reads ignoring permissions (monitoring backdoor).
func (m *Memory) Peek(addr uint64) (uint64, error) {
	if addr%8 != 0 {
		return 0, &Fault{Kind: FaultUnaligned, Access: AccessRead, Addr: addr}
	}
	r := m.lookup(addr)
	if r == nil {
		return 0, &Fault{Kind: FaultUnmapped, Access: AccessRead, Addr: addr}
	}
	return r.word((addr - r.Start) / 8), nil
}

// PeekRange reads len(out) consecutive words starting at addr with a
// single region lookup (monitoring backdoor, the batched Peek the guest
// capture path uses). The range must lie inside one region.
func (m *Memory) PeekRange(addr uint64, out []uint64) error {
	if addr%8 != 0 {
		return &Fault{Kind: FaultUnaligned, Access: AccessRead, Addr: addr}
	}
	r := m.lookup(addr)
	if r == nil || addr+uint64(len(out))*8 > r.End() {
		return &Fault{Kind: FaultUnmapped, Access: AccessRead, Addr: addr}
	}
	i := (addr - r.Start) / 8
	for n := 0; n < len(out); {
		p := r.pages[i>>pageShift]
		n += copy(out[n:], p[i&pageMask:])
		i = (i &^ pageMask) + pageWords
	}
	return nil
}

// PokeRange writes len(vals) consecutive words starting at addr with a
// single region lookup (the batched Poke guest-input staging uses). The
// range must lie inside one region; on error nothing is written.
func (m *Memory) PokeRange(addr uint64, vals []uint64) error {
	if addr%8 != 0 {
		return &Fault{Kind: FaultUnaligned, Access: AccessWrite, Addr: addr}
	}
	r := m.lookup(addr)
	if r == nil || addr+uint64(len(vals))*8 > r.End() {
		return &Fault{Kind: FaultUnmapped, Access: AccessWrite, Addr: addr}
	}
	i := (addr - r.Start) / 8
	for n := 0; n < len(vals); {
		p := r.writablePage(i >> pageShift)
		n += copy(p[i&pageMask:], vals[n:])
		i = (i &^ pageMask) + pageWords
	}
	return nil
}

// Snapshot copies the full contents of every region, keyed by region name.
// No production path uses it: the campaign checkpoint pool uses
// Checkpoint/RestoreCheckpoint and live recovery uses Mark/Undo. It is a
// flat image built independently of both, the oracle the undo-journal
// fuzzer and the cpu, sim and hv equivalence tests compare memory against.
func (m *Memory) Snapshot() map[string][]uint64 {
	snap := make(map[string][]uint64, len(m.regions))
	for _, r := range m.regions {
		words := make([]uint64, r.Size/8)
		for i, p := range r.pages {
			copy(words[i*pageWords:], p)
		}
		snap[r.Name] = words
	}
	return snap
}

// Checkpoint is an immutable copy-on-write image of a Memory's full
// contents. Taking one costs a pointer copy per page; pages are only
// duplicated when either side writes them afterwards. A Checkpoint may be
// restored into any number of machines with the same layout, concurrently —
// the shared pages are never written in place.
type Checkpoint struct {
	pages map[string][][]uint64

	// hashOnce guards the lazily computed per-page hash table below (see
	// hash.go). Checkpoints are shared read-only across campaign workers,
	// so the computation must be safe to race into; everything after the
	// Once is immutable.
	hashOnce sync.Once
	hashes   map[string][]uint64
	fold     uint64
}

// Checkpoint captures the current contents. All live pages become shared:
// subsequent writes through this Memory copy the touched page first.
func (m *Memory) Checkpoint() *Checkpoint {
	// Every page becomes shared, so any armed page fast paths (which are
	// only ever installed over private pages) must be dropped: a write
	// through a stale page pointer would mutate the checkpoint image.
	m.InvalidateTLB()
	m.disarm()
	cp := &Checkpoint{pages: make(map[string][][]uint64, len(m.regions))}
	for _, r := range m.regions {
		for i := range r.shared {
			r.shared[i] = true
		}
		r.epoch++
		pages := make([][]uint64, len(r.pages))
		copy(pages, r.pages)
		cp.pages[r.Name] = pages
		r.dirty = r.dirty[:0]
	}
	m.lastCP = cp // every live page now matches cp and is shared
	return cp
}

// RestoreCheckpoint reinstates a Checkpoint taken from the same layout.
// The restored pages are shared: the first write to each copies it.
//
// When the memory already derives from cp — the previous Checkpoint or
// RestoreCheckpoint boundary used this very checkpoint — only the pages
// journaled dirty since then can differ from the image (cowPage is the
// one funnel that repoints a page between boundaries), so the restore is
// proportional to the touched page set instead of the whole machine.
func (m *Memory) RestoreCheckpoint(cp *Checkpoint) error {
	m.InvalidateTLB()
	m.disarm()
	if m.lastCP == cp {
		for _, r := range m.regions {
			pages := cp.pages[r.Name]
			for _, p := range r.dirty {
				// Journaled pages are exactly the privatized ones: recycle
				// the displaced private copy, reinstate the image pointer,
				// re-share. Untouched pages already hold the image pointers
				// and stayed shared, so the result is bit-identical to the
				// full walk below.
				if old := r.pages[p]; !r.shared[p] && len(old) == pageWords {
					r.freePages = append(r.freePages, old)
				}
				r.pages[p] = pages[p]
				r.shared[p] = true
			}
			r.dirty = r.dirty[:0]
			r.epoch++
		}
		return nil
	}
	for _, r := range m.regions {
		pages, ok := cp.pages[r.Name]
		if !ok {
			return fmt.Errorf("mem: checkpoint missing region %q", r.Name)
		}
		if len(pages) != len(r.pages) {
			return fmt.Errorf("mem: checkpoint size mismatch for region %q", r.Name)
		}
		// Pages private to this region are displaced by the restored image
		// and referenced by nothing else — recycle them for future COW
		// copies instead of letting every restore regenerate garbage.
		for i, old := range r.pages {
			if !r.shared[i] && len(old) == pageWords {
				r.freePages = append(r.freePages, old)
			}
		}
		copy(r.pages, pages)
		for i := range r.shared {
			r.shared[i] = true
		}
		r.dirty = r.dirty[:0]
		r.epoch++
	}
	m.lastCP = cp
	return nil
}

// Zero clears a region's contents. Pages are cleared in place through the
// first-write guard (shared pages are privatized, armed pages journaled),
// never repointed, so cached page translations in any owning Memory's
// D-TLB stay valid.
func (r *Region) Zero() {
	for p := range r.pages {
		pg := r.writablePage(uint64(p))
		for i := range pg {
			pg[i] = 0
		}
	}
}
