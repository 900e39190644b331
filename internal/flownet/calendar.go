package flownet

// calendar is the fabric's completion calendar: an indexed binary
// min-heap of exactly the streams that hold a finite deadline, ordered
// by (deadline, stream id). Each stream records its own slot
// (Stream.heapIdx, -1 while out of the heap), so a rate change fixes
// the stream's entry in place and a drop to rate 0 removes it: there
// are no stale entries, and the heap size is the live population with
// a deadline. The id tie-break fixes the pop order of simultaneous
// completions, which fixes the done callbacks' engine sequence numbers
// and with them every downstream RNG draw.
type calendar struct {
	a []*Stream
}

func (c *calendar) less(i, j int) bool {
	x, y := c.a[i], c.a[j]
	if x.deadline != y.deadline {
		return x.deadline < y.deadline
	}
	return x.id < y.id
}

func (c *calendar) swap(i, j int) {
	c.a[i], c.a[j] = c.a[j], c.a[i]
	c.a[i].heapIdx = i
	c.a[j].heapIdx = j
}

func (c *calendar) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(i, parent) {
			return
		}
		c.swap(i, parent)
		i = parent
	}
}

// down sifts slot i toward the leaves and reports whether it moved.
func (c *calendar) down(i int) bool {
	start, n := i, len(c.a)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && c.less(l, smallest) {
			smallest = l
		}
		if r < n && c.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return i != start
		}
		c.swap(i, smallest)
		i = smallest
	}
}

// fix inserts s, or restores heap order after its deadline changed.
func (c *calendar) fix(s *Stream) {
	if s.heapIdx < 0 {
		s.heapIdx = len(c.a)
		c.a = append(c.a, s)
		c.up(s.heapIdx)
		return
	}
	if !c.down(s.heapIdx) {
		c.up(s.heapIdx)
	}
}

// remove takes s out of the heap; s must be in it.
func (c *calendar) remove(s *Stream) {
	i, n := s.heapIdx, len(c.a)-1
	if i != n {
		c.swap(i, n)
	}
	// Clear the vacated slot so the *Stream is collectable even while
	// the backing array lives on.
	c.a[n] = nil
	c.a = c.a[:n]
	s.heapIdx = -1
	if i != n && !c.down(i) {
		c.up(i)
	}
}

// min returns the stream with the earliest deadline, or nil.
func (c *calendar) min() *Stream {
	if len(c.a) == 0 {
		return nil
	}
	return c.a[0]
}
