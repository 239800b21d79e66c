package deque

import "testing"

// TestFIFOOrder pushes enough elements to force several growths and checks
// strict FIFO order on the way out.
func TestFIFOOrder(t *testing.T) {
	var d Deque[int]
	const n = 1000
	for i := 0; i < n; i++ {
		d.PushBack(i)
	}
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got := d.PopFront(); got != i {
			t.Fatalf("PopFront #%d = %d, want %d", i, got, i)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", d.Len())
	}
}

// TestWrapAround interleaves pushes and pops so head circles the ring many
// times without growing, exercising the modular index arithmetic.
func TestWrapAround(t *testing.T) {
	var d Deque[int]
	next, expect := 0, 0
	for i := 0; i < 4; i++ {
		d.PushBack(next)
		next++
	}
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			d.PushBack(next)
			next++
		}
		for i := 0; i < 3; i++ {
			if got := d.PopFront(); got != expect {
				t.Fatalf("round %d: PopFront = %d, want %d", round, got, expect)
			}
			expect++
		}
	}
	if d.Len() != 4 {
		t.Fatalf("steady-state Len = %d, want 4", d.Len())
	}
}

// TestGrowRelinearizes fills the ring with head mid-buffer, then grows: the
// copy must preserve order across the old wrap point.
func TestGrowRelinearizes(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 8; i++ { // initial capacity
		d.PushBack(i)
	}
	for i := 0; i < 5; i++ { // advance head past the midpoint
		if got := d.PopFront(); got != i {
			t.Fatalf("PopFront = %d, want %d", got, i)
		}
	}
	for i := 8; i < 20; i++ { // wraps, then grows
		d.PushBack(i)
	}
	for i := 5; i < 20; i++ {
		if got := d.PopFront(); got != i {
			t.Fatalf("after grow: PopFront = %d, want %d", got, i)
		}
	}
}

// TestFrontAndAt checks Front against the logical order while the head
// crosses the ring's wrap point, and that a write through it is visible to
// the next pop.
func TestFrontAndAt(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 8; i++ { // fills the initial ring
		d.PushBack(i)
	}
	for i := 0; i < 6; i++ { // the head moves near the ring's end
		d.PopFront()
	}
	for i := 8; i < 14; i++ { // the tail wraps to the ring's start
		d.PushBack(i)
	}
	if len(d.buf) != 8 {
		t.Fatalf("ring grew to %d slots; the test needs 8 to wrap", len(d.buf))
	}
	for want := 6; want < 14; want++ {
		if got := *d.Front(); got != want {
			t.Fatalf("Front = %d, want %d", got, want)
		}
		*d.Front() = -want
		if got := d.PopFront(); got != -want {
			t.Fatalf("write through Front not observed: PopFront = %d, want %d", got, -want)
		}
	}
}

// TestEmptyPanics: the accessors panic on an empty deque like indexing an
// empty slice would.
func TestEmptyPanics(t *testing.T) {
	for name, f := range map[string]func(d *Deque[int]){
		"Front":    func(d *Deque[int]) { d.Front() },
		"PopFront": func(d *Deque[int]) { d.PopFront() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty deque did not panic", name)
				}
			}()
			var d Deque[int]
			f(&d)
		}()
	}
}

// TestPopZeroesSlot: PopFront must clear the vacated slot so popped
// pointer-typed elements become collectable.
func TestPopZeroesSlot(t *testing.T) {
	var d Deque[*int]
	v := new(int)
	d.PushBack(v)
	d.PopFront()
	if d.buf[0] != nil {
		t.Fatal("PopFront left a live reference in the ring")
	}
}

// TestSteadyStateAllocs: once grown to the high-water mark, queue traffic
// must not allocate — the property the package exists for.
func TestSteadyStateAllocs(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 64; i++ {
		d.PushBack(i)
	}
	for i := 0; i < 64; i++ {
		d.PopFront()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			d.PushBack(i)
		}
		for i := 0; i < 64; i++ {
			d.PopFront()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state traffic allocates %.1f/op, want 0", allocs)
	}
}
