package mem

import (
	"fmt"

	"ximd/internal/isa"
	"ximd/internal/wire"
)

// Binary serialization of memory checkpoints for the durable
// checkpoint format (internal/ckpt). State is opaque to callers, so
// the encode/decode pair lives here with the concrete state types.
//
// Word arrays are encoded sparsely: a run-length segment list of the
// nonzero regions. Simulated memories are large (the default shared
// memory is 1M words) but programs touch a tiny fraction of them, so
// the sparse form keeps periodic checkpoints proportional to the
// touched footprint instead of the address-space size — load-bearing
// for the <2% checkpoint-overhead budget.

// State type tags of the encoded stream.
const (
	stateTagShared      = 1
	stateTagDistributed = 2
)

// segGap is the zero-run length below which two nonzero segments are
// merged into one: a handful of inline zeros costs less than another
// segment header.
const segGap = 8

// encodeWords appends the sparse segment encoding of an array of size
// words whose backed prefix is words (the rest zero). The bytes depend
// only on the array's contents, not on how much of it is backed.
func encodeWords(w *wire.Writer, size uint32, words []isa.Word) {
	w.U32(size)
	// First pass: count segments (the count prefixes the list).
	var nseg uint32
	forEachSegment(words, func(start, end int) { nseg++ })
	w.U32(nseg)
	forEachSegment(words, func(start, end int) {
		w.U32(uint32(start))
		w.U32(uint32(end - start))
		for _, v := range words[start:end] {
			w.U32(uint32(v))
		}
	})
}

// forEachSegment walks the maximal nonzero segments of words, merging
// segments separated by fewer than segGap zeros.
func forEachSegment(words []isa.Word, fn func(start, end int)) {
	i := 0
	for i < len(words) {
		if words[i] == 0 {
			i++
			continue
		}
		start := i
		end := i + 1 // one past the last nonzero word seen
		for j := i + 1; j < len(words) && j-end < segGap; j++ {
			if words[j] != 0 {
				end = j + 1
			}
		}
		fn(start, end)
		i = end
	}
}

// decodeWords reads a sparse segment encoding: the declared size, and
// the words up to the last segment's end (the rest are zero). Segment
// bounds are validated against the declared size, the size itself
// against maxWords, and each segment's length against the bytes left,
// so corrupt bytes fail instead of writing out of range, and a header
// declaring a huge size allocates nothing.
func decodeWords(r *wire.Reader, maxWords uint32) (uint32, []isa.Word, error) {
	size := r.U32()
	if size > maxWords {
		return 0, nil, fmt.Errorf("mem: decoded size %d exceeds limit %d", size, maxWords)
	}
	nseg := r.U32()
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	var words []isa.Word
	for s := uint32(0); s < nseg; s++ {
		start := r.U32()
		n := r.U32()
		if err := r.Err(); err != nil {
			return 0, nil, err
		}
		if start < uint32(len(words)) || n == 0 || uint64(start)+uint64(n) > uint64(size) {
			return 0, nil, fmt.Errorf("mem: segment [%d,+%d) out of order or out of range %d", start, n, size)
		}
		if uint64(n)*4 > uint64(r.Remaining()) {
			return 0, nil, fmt.Errorf("mem: segment [%d,+%d) runs past the end of the checkpoint", start, n)
		}
		end := start + n
		words = append(words, make([]isa.Word, end-uint32(len(words)))...)
		for i := start; i < end; i++ {
			words[i] = isa.Word(r.U32())
		}
	}
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	return size, words, nil
}

// maxCheckpointWords bounds a decoded memory geometry (words per array
// or per bank). It is far above any configured simulator memory; a
// larger declared size marks corruption, not a checkpoint.
const maxCheckpointWords = 1 << 26

// EncodeState appends a memory checkpoint (as returned by
// Checkpointable.SnapshotState) to w. Only states produced by this
// package's models encode.
func EncodeState(w *wire.Writer, s State) error {
	switch st := s.(type) {
	case *sharedState:
		w.U8(stateTagShared)
		w.U64(st.loads)
		w.U64(st.stores)
		encodeWords(w, st.size, st.words)
		return nil
	case *distributedState:
		w.U8(stateTagDistributed)
		w.U32(uint32(len(st.banks)))
		for i, b := range st.banks {
			encodeWords(w, st.sizes[i], b)
		}
		return nil
	default:
		return fmt.Errorf("mem: cannot encode %T as a memory checkpoint", s)
	}
}

// DecodeState reads a memory checkpoint written by EncodeState. The
// result restores onto a model of identical geometry via
// Checkpointable.RestoreState, exactly like a fresh snapshot.
func DecodeState(r *wire.Reader) (State, error) {
	switch tag := r.U8(); tag {
	case stateTagShared:
		st := &sharedState{loads: r.U64(), stores: r.U64()}
		size, words, err := decodeWords(r, maxCheckpointWords)
		if err != nil {
			return nil, err
		}
		st.size, st.words = size, words
		return st, r.Err()
	case stateTagDistributed:
		n := r.U32()
		if n > isa.NumFU {
			return nil, fmt.Errorf("mem: decoded bank count %d exceeds %d", n, isa.NumFU)
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		st := &distributedState{sizes: make([]uint32, n), banks: make([][]isa.Word, n)}
		for i := range st.banks {
			size, b, err := decodeWords(r, maxCheckpointWords)
			if err != nil {
				return nil, err
			}
			st.sizes[i], st.banks[i] = size, b
		}
		return st, r.Err()
	default:
		return nil, fmt.Errorf("mem: unknown memory checkpoint tag %d", tag)
	}
}
