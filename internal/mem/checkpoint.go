package mem

import (
	"fmt"

	"ximd/internal/isa"
)

// Checkpointing. The sweep retry policy recovers a transiently-faulted
// run by restoring the machine to its last checkpoint, and a machine
// checkpoint must include its memory. State is opaque to callers: only
// the model that produced a State can restore it, and only onto an
// instance of identical geometry.
//
// Snapshots are only meaningful between cycles (after Commit, before the
// next BeginCycle), which is the only time the simulators take them;
// RestoreState discards any staged stores so a restore mid-cycle cannot
// leak writes from the abandoned timeline.

// State is an opaque memory checkpoint.
type State any

// Checkpointable is implemented by memory models whose complete state
// can be captured and restored. Models holding external state (mapped
// devices) refuse to snapshot rather than silently exclude it.
type Checkpointable interface {
	SnapshotState() (State, error)
	RestoreState(State) error
}

// sharedState holds a Shared memory's logical size and a copy of its
// backed prefix; words past the prefix are zero.
type sharedState struct {
	size   uint32
	words  []isa.Word
	loads  uint64
	stores uint64
}

// SnapshotState implements Checkpointable. A memory with mapped devices
// cannot be checkpointed: device state lives outside the model.
func (m *Shared) SnapshotState() (State, error) {
	if len(m.mappings) > 0 {
		return nil, fmt.Errorf("mem: cannot checkpoint shared memory with %d mapped devices", len(m.mappings))
	}
	return &sharedState{
		size:   m.size,
		words:  append([]isa.Word(nil), m.words...),
		loads:  m.loads,
		stores: m.stores,
	}, nil
}

// RestoreState implements Checkpointable.
func (m *Shared) RestoreState(s State) error {
	st, ok := s.(*sharedState)
	if !ok {
		return fmt.Errorf("mem: %T is not a shared-memory checkpoint", s)
	}
	if len(m.mappings) > 0 {
		return fmt.Errorf("mem: cannot restore shared memory with %d mapped devices", len(m.mappings))
	}
	if st.size != m.size {
		return fmt.Errorf("mem: checkpoint of %d words does not fit memory of %d", st.size, m.size)
	}
	m.words = restorePrefix(m.words, st.words)
	m.loads, m.stores = st.loads, st.stores
	m.pending = m.pending[:0]
	return nil
}

// restorePrefix makes dst hold exactly the words of src followed by
// zeros, reusing dst when it is long enough, and returns it: the
// restored backed prefix is whichever of the two is longer.
func restorePrefix(dst, src []isa.Word) []isa.Word {
	if len(dst) < len(src) {
		return append([]isa.Word(nil), src...)
	}
	copy(dst, src)
	clear(dst[len(src):])
	return dst
}

// distributedState holds each bank's size and a prefix of its words
// (the rest zero): a snapshot copies whole banks, a decoded checkpoint
// only up to its last nonzero segment.
type distributedState struct {
	sizes []uint32
	banks [][]isa.Word
}

// SnapshotState implements Checkpointable.
func (m *Distributed) SnapshotState() (State, error) {
	st := &distributedState{sizes: make([]uint32, len(m.banks)), banks: make([][]isa.Word, len(m.banks))}
	for i, b := range m.banks {
		st.sizes[i] = uint32(len(b))
		st.banks[i] = append([]isa.Word(nil), b...)
	}
	return st, nil
}

// RestoreState implements Checkpointable.
func (m *Distributed) RestoreState(s State) error {
	st, ok := s.(*distributedState)
	if !ok {
		return fmt.Errorf("mem: %T is not a distributed-memory checkpoint", s)
	}
	if len(st.banks) != len(m.banks) {
		return fmt.Errorf("mem: checkpoint of %d banks does not fit %d banks", len(st.banks), len(m.banks))
	}
	for i, size := range st.sizes {
		if int(size) != len(m.banks[i]) {
			return fmt.Errorf("mem: bank %d checkpoint of %d words does not fit bank of %d", i, size, len(m.banks[i]))
		}
	}
	for i, b := range st.banks {
		restorePrefix(m.banks[i], b)
	}
	m.pending = m.pending[:0]
	return nil
}
