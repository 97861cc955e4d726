// Package mem provides the memory models used by the XIMD and VLIW
// simulators.
//
// The research model uses an idealized shared memory (Section 2.3): one
// shared word-addressed space, every functional unit may read or write
// every cycle, all operations complete in one cycle, and multiple writes
// to the same location in one cycle are undefined (detected and reported
// here). The prototype instead uses distributed memory, 1MB per FU
// (Section 4.3), which Distributed models.
//
// Memory-mapped devices (package device) can be attached to address
// ranges to model the unpredictable processor interfaces of Sections 1.3
// and 3.4 (Figure 12).
package mem

import (
	"fmt"

	"ximd/internal/isa"
)

// Device is a memory-mapped peripheral. Loads observe the device at the
// current cycle; stores take effect at cycle commit, matching the
// synchronous datapath.
type Device interface {
	// Load returns the device's value at the given address offset within
	// its mapped range during the given cycle.
	Load(cycle uint64, offset uint32) isa.Word
	// Store delivers a write to the device at cycle commit time.
	Store(cycle uint64, offset uint32, v isa.Word)
}

// Memory is the interface the simulators drive. Loads see the state at
// the start of the cycle; stores are staged and become visible at Commit.
type Memory interface {
	// Load reads the word at addr on behalf of functional unit fu.
	Load(fu int, addr uint32) (isa.Word, error)
	// Store stages a write of v to addr on behalf of fu. A same-cycle
	// store conflict is reported as a *ConflictError; the write is still
	// staged (last-staged-wins in tolerant mode).
	Store(fu int, addr uint32, v isa.Word) error
	// BeginCycle starts cycle accounting for the given cycle number.
	BeginCycle(cycle uint64)
	// Commit applies staged stores.
	Commit()
}

// ConflictError reports multiple writes to one location in one cycle —
// undefined on the real machine (Section 2.3).
type ConflictError struct {
	Addr     uint32
	FirstFU  int
	SecondFU int
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("memory write conflict: FU%d and FU%d both write M(%d) in one cycle",
		e.FirstFU, e.SecondFU, e.Addr)
}

// OutOfRangeError reports an access outside the configured address space.
type OutOfRangeError struct {
	Addr uint32
	Size uint32
	FU   int
}

func (e *OutOfRangeError) Error() string {
	return fmt.Sprintf("FU%d accesses M(%d) outside memory of %d words", e.FU, e.Addr, e.Size)
}

type mapping struct {
	base, size uint32
	dev        Device
}

type pendingStore struct {
	addr uint32
	val  isa.Word
	fu   int
	dev  *mapping // nil for plain memory
}

// Shared is the idealized shared memory of the research model.
//
// Its address space is [0, Size()), but only a prefix [0, len(words))
// is backed by host memory: programs touch a few hundred words of a
// million-word space, so a fresh image allocates nothing. Loads past
// the prefix read zero without allocating; the first store or Poke past
// it grows the prefix geometrically (capped at Size()). Every
// observable result — loads, Peek, checkpoints — is that of a fully
// backed, zero-initialized memory.
type Shared struct {
	words    []isa.Word // backed prefix of the address space
	size     uint32     // logical size in words
	mappings []mapping
	pending  []pendingStore
	cycle    uint64

	loads  uint64
	stores uint64
}

// DefaultWords is the default shared-memory size: 1M 32-bit words (4MB).
const DefaultWords = 1 << 20

// NewShared returns a shared memory of the given size in words; size 0
// selects DefaultWords. No words are backed until the first store.
func NewShared(size uint32) *Shared {
	if size == 0 {
		size = DefaultWords
	}
	return &Shared{size: size}
}

// Size returns the memory size in words.
func (m *Shared) Size() uint32 { return m.size }

// minExtent is the smallest backed prefix, in words: the first store
// backs at least this much, so small programs grow the image once.
const minExtent = 1 << 8

// grow extends the backed prefix to cover addr (which must be below
// Size()), at least doubling it so a run grows O(log Size()) times.
func (m *Shared) grow(addr uint32) {
	n := uint64(len(m.words)) * 2
	if n < minExtent {
		n = minExtent
	}
	if need := uint64(addr) + 1; n < need {
		n = need
	}
	if n > uint64(m.size) {
		n = uint64(m.size)
	}
	words := make([]isa.Word, n)
	copy(words, m.words)
	m.words = words
}

// word reads RAM at addr, which must be below Size().
func (m *Shared) word(addr uint32) isa.Word {
	if addr < uint32(len(m.words)) {
		return m.words[addr]
	}
	return 0
}

// setWord writes RAM at addr, which must be below Size().
func (m *Shared) setWord(addr uint32, v isa.Word) {
	if addr >= uint32(len(m.words)) {
		m.grow(addr)
	}
	m.words[addr] = v
}

// Map attaches a device to the address range [base, base+size). Mapped
// ranges must not overlap each other and must lie inside the address
// space; loads and stores in the range go to the device instead of RAM.
func (m *Shared) Map(base, size uint32, dev Device) error {
	if size == 0 {
		return fmt.Errorf("mem: zero-length device mapping at %d", base)
	}
	if base+size < base || base+size > m.Size() {
		return fmt.Errorf("mem: device mapping [%d,%d) outside memory of %d words", base, base+size, m.Size())
	}
	for _, mp := range m.mappings {
		if base < mp.base+mp.size && mp.base < base+size {
			return fmt.Errorf("mem: device mapping [%d,%d) overlaps existing [%d,%d)",
				base, base+size, mp.base, mp.base+mp.size)
		}
	}
	m.mappings = append(m.mappings, mapping{base: base, size: size, dev: dev})
	return nil
}

func (m *Shared) findMapping(addr uint32) *mapping {
	for i := range m.mappings {
		mp := &m.mappings[i]
		if addr >= mp.base && addr < mp.base+mp.size {
			return mp
		}
	}
	return nil
}

// Load implements Memory.
func (m *Shared) Load(fu int, addr uint32) (isa.Word, error) {
	m.loads++
	if mp := m.findMapping(addr); mp != nil {
		return mp.dev.Load(m.cycle, addr-mp.base), nil
	}
	if addr >= m.size {
		return 0, &OutOfRangeError{Addr: addr, Size: m.size, FU: fu}
	}
	return m.word(addr), nil
}

// Store implements Memory.
func (m *Shared) Store(fu int, addr uint32, v isa.Word) error {
	m.stores++
	mp := m.findMapping(addr)
	if mp == nil && addr >= m.size {
		return &OutOfRangeError{Addr: addr, Size: m.size, FU: fu}
	}
	var conflict error
	for _, p := range m.pending {
		if p.addr == addr {
			conflict = &ConflictError{Addr: addr, FirstFU: p.fu, SecondFU: fu}
			break
		}
	}
	m.pending = append(m.pending, pendingStore{addr: addr, val: v, fu: fu, dev: mp})
	return conflict
}

// LoadFast is the devirtualized load path for simulators that hold a
// concrete *Shared: the common case — no device mappings, address in
// the backed prefix — is simple enough to inline into the caller's
// cycle loop. Anything unusual falls back to the general Load.
func (m *Shared) LoadFast(fu int, addr uint32) (isa.Word, error) {
	if len(m.mappings) == 0 && addr < uint32(len(m.words)) {
		m.loads++
		return m.words[addr], nil
	}
	return m.Load(fu, addr)
}

// StoreFast is the devirtualized store path: the first in-range store of
// a cycle with no device mappings stages directly; later stores (which
// must scan for same-cycle conflicts), device ranges, and out-of-range
// addresses fall back to the general Store.
func (m *Shared) StoreFast(fu int, addr uint32, v isa.Word) error {
	if len(m.mappings) == 0 && len(m.pending) == 0 && addr < m.size {
		m.stores++
		m.pending = append(m.pending, pendingStore{addr: addr, val: v, fu: fu})
		return nil
	}
	return m.Store(fu, addr, v)
}

// BeginCycle implements Memory.
func (m *Shared) BeginCycle(cycle uint64) {
	m.cycle = cycle
	m.pending = m.pending[:0]
}

// Commit implements Memory.
func (m *Shared) Commit() {
	for _, p := range m.pending {
		if p.dev != nil {
			p.dev.dev.Store(m.cycle, p.addr-p.dev.base, p.val)
		} else {
			m.setWord(p.addr, p.val)
		}
	}
}

// Peek reads RAM directly, bypassing devices and accounting.
func (m *Shared) Peek(addr uint32) isa.Word {
	if addr >= m.size {
		return 0
	}
	return m.word(addr)
}

// Poke writes RAM directly, bypassing devices and accounting; for host
// initialization of workload data.
func (m *Shared) Poke(addr uint32, v isa.Word) {
	if addr < m.size {
		m.setWord(addr, v)
	}
}

// PokeInts writes consecutive integers starting at base.
func (m *Shared) PokeInts(base uint32, vals ...int32) {
	for i, v := range vals {
		m.Poke(base+uint32(i), isa.WordFromInt(v))
	}
}

// PeekInts reads n consecutive integers starting at base.
func (m *Shared) PeekInts(base uint32, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = m.Peek(base + uint32(i)).Int()
	}
	return out
}

// Counters returns cumulative load/store counts.
func (m *Shared) Counters() (loads, stores uint64) { return m.loads, m.stores }

// HasMappings reports whether any device is mapped. The fused execution
// engines require plain RAM (device loads are cycle-dependent and
// stores have commit-time side effects), so they check this before
// entering a fused run.
func (m *Shared) HasMappings() bool { return len(m.mappings) > 0 }

// Raw exposes the backed prefix of RAM directly, bypassing devices,
// staging, and accounting: words at or past len(Raw()) but below
// Size() read as zero, and storing to them needs the per-cycle path,
// which grows the prefix (after which Raw must be fetched again). It
// exists for the fused execution engines, which buffer stores
// themselves and account loads/stores in bulk via AddCounters; any
// other caller should use Load/Store or Peek/Poke. The caller must
// have checked HasMappings() == false.
func (m *Shared) Raw() []isa.Word { return m.words }

// AddCounters folds externally-accounted load/store counts into the
// cumulative counters — the bulk half of the fused engines' deferred
// accounting contract: fused runs access RAM via Raw and report the
// operation counts here at run exit, so Counters() observes exactly
// what the per-cycle paths would have counted.
func (m *Shared) AddCounters(loads, stores uint64) {
	m.loads += loads
	m.stores += stores
}
