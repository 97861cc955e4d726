package obs

// Ring is the flight recorder's bounded buffer: it retains the last
// Cap() values appended, overwriting the oldest once full. The
// simulators hang one off the cycle tracer so that when a run dies with
// a SimError, the final window of architectural state is available for
// a postmortem without having recorded (or allocated for) the whole
// run.
//
// Ring is not safe for concurrent use; a machine's tracer runs on one
// goroutine, which is the only writer.
type Ring[T any] struct {
	buf  []T
	n    int // number of valid entries, <= len(buf)
	next int // index the next Append writes
}

// NewRing returns a ring retaining the last capacity values; capacity
// must be positive.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic("obs: ring capacity must be positive")
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Append records v, evicting the oldest value when full.
func (r *Ring[T]) Append(v T) {
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// nextSlot returns the buffer slot the next Append writes and, when the
// ring is full, the value that Append will evict from it (nil
// otherwise). Indexes kept beside a ring (SpanStore's per-trace slot
// lists) use it to follow evictions.
func (r *Ring[T]) nextSlot() (slot int, evicted *T) {
	if r.n == len(r.buf) {
		return r.next, &r.buf[r.next]
	}
	return r.next, nil
}

// Len returns the number of retained values.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the retention capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Snapshot returns the retained values, oldest first, as a fresh slice.
func (r *Ring[T]) Snapshot() []T {
	out := make([]T, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}
