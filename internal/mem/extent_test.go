package mem

import (
	"errors"
	"testing"

	"ximd/internal/isa"
)

// TestSharedExtent holds the backed-prefix representation of Shared to
// the semantics of a fully backed, zeroed memory of Size() words: reads
// past the prefix are zero and allocate nothing, writes grow it, the
// address-space bound stays Size(), and checkpoints move contents, not
// backing, between images of any extent.
func TestSharedExtent(t *testing.T) {
	const size = 1 << 16
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, m *Shared)
	}{
		{"load past extent reads zero without growing", func(t *testing.T, m *Shared) {
			m.Poke(3, isa.WordFromInt(9))
			backed := len(m.Raw())
			for _, addr := range []uint32{uint32(backed), 40000, size - 1} {
				m.BeginCycle(0)
				if v, err := m.Load(0, addr); err != nil || v != 0 {
					t.Fatalf("Load(%d) = %d, %v; want 0, nil", addr, v, err)
				}
				if v, err := m.LoadFast(0, addr); err != nil || v != 0 {
					t.Fatalf("LoadFast(%d) = %d, %v; want 0, nil", addr, v, err)
				}
			}
			if len(m.Raw()) != backed {
				t.Fatalf("loads grew the prefix from %d to %d words", backed, len(m.Raw()))
			}
			if loads, _ := m.Counters(); loads != 6 {
				t.Fatalf("loads counted = %d, want 6", loads)
			}
		}},
		{"store past extent grows geometrically", func(t *testing.T, m *Shared) {
			if len(m.Raw()) != 0 {
				t.Fatalf("fresh image backs %d words, want 0", len(m.Raw()))
			}
			m.BeginCycle(0)
			if err := m.StoreFast(0, 5, isa.WordFromInt(1)); err != nil {
				t.Fatal(err)
			}
			m.Commit()
			if got := len(m.Raw()); got != minExtent {
				t.Fatalf("first store backs %d words, want %d", got, minExtent)
			}
			m.BeginCycle(1)
			if err := m.Store(0, minExtent, isa.WordFromInt(2)); err != nil {
				t.Fatal(err)
			}
			m.Commit()
			if got := len(m.Raw()); got != 2*minExtent {
				t.Fatalf("store at the extent backs %d words, want %d", got, 2*minExtent)
			}
			m.Poke(size-1, isa.WordFromInt(3))
			if got := len(m.Raw()); got != size {
				t.Fatalf("poke at the last word backs %d words, want Size() %d", got, size)
			}
			for addr, want := range map[uint32]int32{5: 1, minExtent: 2, size - 1: 3, 6: 0} {
				if got := m.Peek(addr).Int(); got != want {
					t.Fatalf("M(%d) = %d, want %d", addr, got, want)
				}
			}
		}},
		{"access at or above Size is out of range", func(t *testing.T, m *Shared) {
			var oor *OutOfRangeError
			for _, addr := range []uint32{size, size + 1, ^uint32(0)} {
				m.BeginCycle(0)
				if _, err := m.Load(0, addr); !errors.As(err, &oor) || oor.Size != size {
					t.Fatalf("Load(%d) err = %v, want OutOfRangeError of size %d", addr, err, size)
				}
				if _, err := m.LoadFast(0, addr); !errors.As(err, &oor) {
					t.Fatalf("LoadFast(%d) err = %v", addr, err)
				}
				if err := m.StoreFast(0, addr, 1); !errors.As(err, &oor) {
					t.Fatalf("StoreFast(%d) err = %v", addr, err)
				}
			}
			m.Poke(size, isa.WordFromInt(4)) // ignored, like any out-of-range poke
			if len(m.Raw()) != 0 {
				t.Fatalf("out-of-range accesses backed %d words", len(m.Raw()))
			}
		}},
		{"peek past extent is zero", func(t *testing.T, m *Shared) {
			m.Poke(1, isa.WordFromInt(7))
			for _, addr := range []uint32{minExtent, size - 1, size, ^uint32(0)} {
				if v := m.Peek(addr); v != 0 {
					t.Fatalf("Peek(%d) = %d, want 0", addr, v)
				}
			}
			if got := m.PeekInts(minExtent-1, 3); got[0] != 0 || got[1] != 0 || got[2] != 0 {
				t.Fatalf("PeekInts across the extent = %v", got)
			}
			if len(m.Raw()) != minExtent {
				t.Fatalf("peeks grew the prefix to %d words", len(m.Raw()))
			}
		}},
		{"map bounds check against Size", func(t *testing.T, m *Shared) {
			if err := m.Map(size-4, 4, &stubDevice{}); err != nil {
				t.Fatalf("mapping the last words of an unbacked image: %v", err)
			}
			if err := m.Map(size-8, 5, &stubDevice{}); err == nil {
				t.Fatal("overlapping mapping accepted")
			}
			if err := m.Map(size, 1, &stubDevice{}); err == nil {
				t.Fatal("mapping past Size accepted")
			}
		}},
		{"snapshot and restore round-trip across extents", func(t *testing.T, m *Shared) {
			m.PokeInts(10, 1, 2, 3)
			m.BeginCycle(0)
			if _, err := m.Load(0, 5000); err != nil {
				t.Fatal(err)
			}
			small, err := m.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			m.Poke(30000, isa.WordFromInt(8))
			big, err := m.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}

			// Restoring the small-extent snapshot over the grown image
			// must zero everything it does not hold.
			if err := m.RestoreState(small); err != nil {
				t.Fatal(err)
			}
			if got := m.Peek(30000); got != 0 {
				t.Fatalf("M(30000) after restoring the small snapshot = %d, want 0", got)
			}
			if got := m.PeekInts(10, 3); got[0] != 1 || got[1] != 2 || got[2] != 3 {
				t.Fatalf("M(10..12) = %v", got)
			}
			if loads, _ := m.Counters(); loads != 1 {
				t.Fatalf("restored loads = %d, want 1", loads)
			}

			// Restoring the big-extent snapshot into a fresh, unbacked
			// image must bring the far word back.
			fresh := NewShared(size)
			if err := fresh.RestoreState(big); err != nil {
				t.Fatal(err)
			}
			if got := fresh.Peek(30000).Int(); got != 8 {
				t.Fatalf("M(30000) in the fresh image = %d, want 8", got)
			}
			if got := fresh.PeekInts(10, 3); got[2] != 3 {
				t.Fatalf("fresh M(10..12) = %v", got)
			}
			if err := NewShared(size / 2).RestoreState(small); err == nil {
				t.Fatal("restore onto a memory of another size accepted")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, NewShared(size)) })
	}
}
