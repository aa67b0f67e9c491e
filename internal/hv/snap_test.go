package hv

import (
	"errors"
	"testing"

	"xentry/internal/mem"
)

// TestRecoveryStaleSnapRejected: a Snap names the hypervisor's live undo
// mark. Once a Checkpoint, RestoreFrom, memory-level checkpoint restore or
// later Snapshot supersedes it — or when it belongs to another hypervisor
// — Restore and Reinit fail with ErrStaleSnap and leave memory and TSCs
// exactly as they were, instead of rewinding to the wrong point.
func TestRecoveryStaleSnapRejected(t *testing.T) {
	other := newHV(t, 2)
	for _, tc := range []struct {
		name string
		// stale takes a snapshot, supersedes it, and returns it.
		stale func(h *Hypervisor) *Snap
	}{
		{"checkpoint", func(h *Hypervisor) *Snap {
			s := h.Snapshot()
			h.Checkpoint()
			return s
		}},
		{"restore-from", func(h *Hypervisor) *Snap {
			cp := h.Checkpoint()
			s := h.Snapshot()
			if err := h.RestoreFrom(cp); err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"mem-restore-checkpoint", func(h *Hypervisor) *Snap {
			cp := h.Mem.Checkpoint()
			s := h.Snapshot()
			if err := h.Mem.RestoreCheckpoint(cp); err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"later-snapshot", func(h *Hypervisor) *Snap {
			s := *h.Snapshot()
			h.Snapshot()
			return &s
		}},
		{"other-hypervisor", func(*Hypervisor) *Snap { return other.Snapshot() }},
		{"never-taken", func(*Hypervisor) *Snap { return &Snap{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHV(t, 2)
			snap := tc.stale(h)
			mustPoke(t, h, ScratchAddr(), 0xbad)
			h.CPU.TSC = 777
			before := h.Mem.Snapshot()
			if err := h.Restore(snap); !errors.Is(err, ErrStaleSnap) || !errors.Is(err, mem.ErrStaleMark) {
				t.Errorf("Restore = %v, want ErrStaleSnap", err)
			}
			if err := h.Reinit(snap); !errors.Is(err, ErrStaleSnap) {
				t.Errorf("Reinit = %v, want ErrStaleSnap", err)
			}
			if got, _ := h.Mem.Peek(ScratchAddr()); got != 0xbad {
				t.Errorf("scratch = %#x after a rejected restore, want 0xbad", got)
			}
			after := h.Mem.Snapshot()
			for name, words := range before {
				for i := range words {
					if after[name][i] != words[i] {
						t.Fatalf("region %s word %d changed by a rejected restore", name, i)
					}
				}
			}
			if h.CPU.TSC != 777 {
				t.Errorf("TSC = %d after a rejected restore, want 777", h.CPU.TSC)
			}
		})
	}
}

// TestSnapshotRestoreRepeatable: restoring does not retire a Snap, so a
// recovery that re-executes and is detected again can rewind again.
func TestSnapshotRestoreRepeatable(t *testing.T) {
	h := newHV(t, 2)
	mustPoke(t, h, ScratchAddr(), 0x11)
	h.CPU.TSC = 100
	snap := h.Snapshot()
	for round := uint64(1); round <= 3; round++ {
		mustPoke(t, h, ScratchAddr(), 0x11+round)
		h.CPU.TSC = 100 + round
		if err := h.Restore(snap); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got, _ := h.Mem.Peek(ScratchAddr()); got != 0x11 {
			t.Fatalf("round %d: scratch = %#x, want 0x11", round, got)
		}
		if h.CPU.TSC != 100 {
			t.Fatalf("round %d: TSC = %d, want 100", round, h.CPU.TSC)
		}
	}
}
