package sim

// heapQueue is the calendar's overflow store: a specialized 4-ary min-heap
// over inline pointer-free entries ordered by (at, seq). It holds the events
// beyond the calendar's current rotation, so only sparse far-future work
// (epoch ticks, long timers, idle gaps) pays its O(log n) sifts.
//
// A 4-ary layout halves the tree height of a binary heap; with 24-byte
// entries the four children of a node span at most two cache lines, so the
// extra comparisons per level are cheaper than the levels they save.
type heapQueue struct {
	es []entry
}

const heapArity = 4

// push inserts e.
func (q *heapQueue) push(e entry) {
	q.es = append(q.es, e)
	q.siftUp(len(q.es) - 1)
}

// dropMin removes the root entry.
func (q *heapQueue) dropMin() {
	h := q.es
	n := len(h) - 1
	last := h[n]
	q.es = h[:n]
	if n > 0 {
		q.es[0] = last
		q.siftDown(0)
	}
}

// siftUp moves the entry at index i toward the root until its parent is no
// larger, using a hole: parents slide down and the entry is written once at
// its final slot.
func (q *heapQueue) siftUp(i int) {
	h := q.es
	e := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !less(&e, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// siftDown moves the entry at index i toward the leaves until no child is
// smaller, with the same hole technique.
func (q *heapQueue) siftDown(i int) {
	h := q.es
	n := len(h)
	e := h[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		end := first + heapArity
		if end > n {
			end = n
		}
		min := first
		for c := first + 1; c < end; c++ {
			if less(&h[c], &h[min]) {
				min = c
			}
		}
		if !less(&h[min], &e) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = e
}
