package flownet

import (
	"sort"
	"testing"

	"ensembleio/internal/sim"
)

// checkHeap reports (via t.Errorf, so it is safe from engine
// callbacks) any breach of the calendar's invariants against the
// streams that should be in it: the (deadline, id) heap property, each
// entry's heapIdx naming its own slot, and membership equal to exactly
// the live streams with a finite deadline, every other stream at
// heapIdx -1. It returns false on the first breach.
func checkHeap(t testing.TB, c *calendar, live []*Stream) bool {
	t.Helper()
	for i, s := range c.a {
		if s.heapIdx != i {
			t.Errorf("calendar slot %d holds stream %d whose heapIdx is %d", i, s.id, s.heapIdx)
			return false
		}
		if i > 0 && c.less(i, (i-1)/2) {
			t.Errorf("heap order broken at slot %d: stream %d (deadline %v) above its parent stream %d (deadline %v)",
				i, s.id, s.deadline, c.a[(i-1)/2].id, c.a[(i-1)/2].deadline)
			return false
		}
	}
	finite := 0
	for _, s := range live {
		if s.deadline == sim.Infinity {
			if s.heapIdx != -1 {
				t.Errorf("stream %d has no deadline but heapIdx %d", s.id, s.heapIdx)
				return false
			}
			continue
		}
		finite++
		if s.heapIdx < 0 || s.heapIdx >= len(c.a) || c.a[s.heapIdx] != s {
			t.Errorf("stream %d (deadline %v) missing from the calendar (heapIdx %d)", s.id, s.deadline, s.heapIdx)
			return false
		}
	}
	if finite != len(c.a) {
		t.Errorf("calendar holds %d entries, want the %d live streams with a deadline", len(c.a), finite)
		return false
	}
	return true
}

// checkCalendar runs checkHeap against the fabric's live population:
// every stream still on a port.
func checkCalendar(t testing.TB, f *Fabric) bool {
	t.Helper()
	var live []*Stream
	for _, p := range f.ports {
		live = append(live, p.streams...)
	}
	if len(live) != f.active {
		t.Errorf("ports hold %d streams, fabric counts %d active", len(live), f.active)
		return false
	}
	return checkHeap(t, &f.cal, live)
}

// FuzzCalendar drives the calendar through random update, remove and
// pop sequences — the operations setRate and completeDue issue — and
// checks it against the scan-and-sort reference: every stream whose
// deadline has arrived, ordered by (deadline, id). Deadlines come from
// a small set so simultaneous completions, and with them the id
// tie-break, are common.
func FuzzCalendar(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 1, 3, 0, 2, 3, 2, 0, 5})
	f.Add([]byte{0, 0, 7, 0, 1, 2, 0, 0, 1, 1, 1, 0, 2, 0, 7})
	f.Add([]byte{0, 3, 4, 0, 2, 4, 0, 1, 4, 0, 0, 4, 2, 0, 4, 0, 5, 1, 2, 0, 0})
	// A removal from the middle whose replacement must sift up.
	f.Add([]byte("001110020077120010087027090170"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 12
		streams := make([]*Stream, n)
		for i := range streams {
			streams[i] = &Stream{id: uint64(i + 1), deadline: sim.Infinity, heapIdx: -1}
		}
		var c calendar
		for len(ops) >= 3 {
			op, s, v := ops[0]%3, streams[int(ops[1])%n], sim.Time(ops[2]%8)
			ops = ops[3:]
			switch op {
			case 0: // rate change: a new finite deadline
				s.deadline = v
				c.fix(s)
			case 1: // rate drops to 0: the deadline leaves the calendar
				s.deadline = sim.Infinity
				if s.heapIdx >= 0 {
					c.remove(s)
				}
			case 2: // completeDue at now = v
				var want []*Stream
				for _, r := range streams {
					if r.deadline <= v {
						want = append(want, r)
					}
				}
				sort.Slice(want, func(i, j int) bool {
					if want[i].deadline != want[j].deadline {
						return want[i].deadline < want[j].deadline
					}
					return want[i].id < want[j].id
				})
				var got []*Stream
				for m := c.min(); m != nil && m.deadline <= v; m = c.min() {
					c.remove(m)
					got = append(got, m)
				}
				if len(got) != len(want) {
					t.Fatalf("completeDue(%v) popped %d streams, reference %d", v, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("completeDue(%v) pop %d: stream %d, reference stream %d", v, i, got[i].id, want[i].id)
					}
					got[i].deadline = sim.Infinity
				}
			}
			if !checkHeap(t, &c, streams) {
				t.FailNow()
			}
			min := sim.Infinity
			for _, r := range streams {
				if r.deadline < min {
					min = r.deadline
				}
			}
			top := sim.Infinity
			if m := c.min(); m != nil {
				top = m.deadline
			}
			if top != min {
				t.Fatalf("calendar top deadline %v, reference minimum %v", top, min)
			}
		}
	})
}
