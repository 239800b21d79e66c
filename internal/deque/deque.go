// Package deque provides a growable ring-buffer FIFO. Unlike the
// append/q[1:] slice idiom, popping the front does not strand capacity or
// force reallocation, so steady-state queue traffic allocates nothing once
// the ring has grown to the high-water mark.
package deque

// Deque is a FIFO queue over a ring buffer. The zero value is ready to
// use.
type Deque[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (d *Deque[T]) Len() int { return d.n }

// grow doubles the ring, relinearizing the elements.
func (d *Deque[T]) grow() {
	c := len(d.buf) * 2
	if c == 0 {
		c = 8
	}
	buf := make([]T, c)
	for i := 0; i < d.n; i++ {
		buf[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = buf
	d.head = 0
}

// Reserve grows the ring so at least n elements fit without reallocating,
// letting constructors prewarm queues to their expected high-water mark so
// the steady-state loop never pays the doubling growth.
func (d *Deque[T]) Reserve(n int) {
	if n <= len(d.buf) {
		return
	}
	buf := make([]T, n)
	for i := 0; i < d.n; i++ {
		buf[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = buf
	d.head = 0
}

// PushBack appends v at the tail.
func (d *Deque[T]) PushBack(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)%len(d.buf)] = v
	d.n++
}

// Front returns a pointer to the head element. It panics on an empty
// deque, like indexing an empty slice.
func (d *Deque[T]) Front() *T {
	if d.n == 0 {
		panic("deque: Front on empty deque")
	}
	return &d.buf[d.head]
}

// PopFront removes and returns the head element.
func (d *Deque[T]) PopFront() T {
	if d.n == 0 {
		panic("deque: PopFront on empty deque")
	}
	v := d.buf[d.head]
	var zero T
	d.buf[d.head] = zero // drop references for GC
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	return v
}
