package cache

// FIFO is a bounded first-in-first-out buffer used for the first- and
// second-level write buffers (FLWB/SLWB). The paper's buffers hold memory
// requests in issue order; capacity limits are what make small-buffer
// sensitivity studies (paper §5.4) meaningful. It is a fixed ring, so a
// warm buffer never allocates.
type FIFO[T any] struct {
	buf  []T // len(buf) is the capacity
	head int // index of the oldest item
	n    int
	// HighWater tracks the deepest occupancy reached, for reports.
	HighWater int
}

// NewFIFO returns a buffer holding at most capacity items.
func NewFIFO[T any](capacity int) *FIFO[T] {
	return &FIFO[T]{buf: make([]T, capacity)}
}

// Len returns the current occupancy.
func (f *FIFO[T]) Len() int { return f.n }

// Full reports whether no more items fit.
func (f *FIFO[T]) Full() bool { return f.n >= len(f.buf) }

// Empty reports whether the buffer holds nothing.
func (f *FIFO[T]) Empty() bool { return f.n == 0 }

// Push appends v. It panics if the buffer is full; callers must check Full
// first — overflowing a hardware queue is a controller bug.
func (f *FIFO[T]) Push(v T) {
	if f.Full() {
		panic("cache: push to full FIFO")
	}
	f.buf[(f.head+f.n)%len(f.buf)] = v
	f.n++
	if f.n > f.HighWater {
		f.HighWater = f.n
	}
}

// Pop removes and returns the oldest item. ok is false when empty.
func (f *FIFO[T]) Pop() (v T, ok bool) {
	if f.n == 0 {
		return v, false
	}
	v = f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head = (f.head + 1) % len(f.buf)
	f.n--
	return v, true
}

// Peek returns the oldest item without removing it.
func (f *FIFO[T]) Peek() (v T, ok bool) {
	if f.n == 0 {
		return v, false
	}
	return f.buf[f.head], true
}
