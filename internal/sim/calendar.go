package sim

import "sort"

// Calendar geometry defaults. Figure-scale scenarios schedule most events
// within a few milliseconds of now (per-packet service times around 0.1–2ms,
// propagation around 1–10ms), so a 1ms × 256 wheel keeps one rotation —
// 256ms — comfortably ahead of the densest horizon while spreading the
// in-flight events over many buckets.
const (
	defaultCalendarWidth   Time = 1e6 // 1ms
	defaultCalendarBuckets      = 256
)

// calendarQueue is the scheduler's pending-event queue: a calendar queue
// (R. Brown, CACM 1988) adapted to an exact (at, seq) total order and lazy
// cancellation. Events within the current rotation window hash by timestamp
// into a ring of buckets; a bucket is sorted only when the wheel reaches it,
// and later arrivals into the bucket being consumed are placed by binary
// search so the front of the queue is always the true minimum. Events beyond
// the rotation horizon wait in an overflow heap and are drained bucket-ward
// when the wheel rolls over. Cancelled entries are discarded when they
// surface at the front.
//
// With most events a few milliseconds ahead of now, bucket appends and small
// on-demand sorts beat a heap's O(log n) sifts on both the paper figures and
// the at-scale fat-trees; DESIGN.md §S30 has the measured A/B.
type calendarQueue struct {
	sc       *Scheduler // resolves handle args for lazy-cancel checks
	width    Time
	rotStart Time      // left edge of the current rotation window
	buckets  [][]entry // bucket i covers [rotStart+i·width, rotStart+(i+1)·width)
	cur      int       // wheel position: buckets below cur are consumed/empty
	pos      int       // consumed prefix of buckets[cur]
	sorted   bool      // whether buckets[cur] is currently in (at, seq) order
	count    int       // entries resident in buckets (including cancelled)
	overflow heapQueue // events at or beyond rotStart + len(buckets)·width
}

// newCalendarQueue returns an empty queue of nbuckets buckets, each width
// wide. The geometry affects speed only, never the event order.
func newCalendarQueue(sc *Scheduler, width Time, nbuckets int) calendarQueue {
	return calendarQueue{sc: sc, width: width, buckets: make([][]entry, nbuckets)}
}

// discard releases a lazily-cancelled handle entry surfacing at the front.
func (q *calendarQueue) discard(e *entry) {
	q.sc.evs[e.arg].fn = nil
	q.sc.releaseEv(e.arg)
}

// horizon is the first timestamp past the current rotation window.
func (q *calendarQueue) horizon() Time {
	return q.rotStart + Time(len(q.buckets))*q.width
}

func (q *calendarQueue) push(e entry) {
	if e.at >= q.horizon() {
		q.overflow.push(e)
		return
	}
	if e.at < q.rotStart {
		// The window was fast-forwarded across an idle gap and a new event
		// now lands inside that gap: rebase the wheel onto it. This can
		// only happen from outside a callback (during one, now ≥ rotStart
		// bounds every new event), so no in-flight cursor state exists.
		q.rebase(e.at)
	}
	b := int((e.at - q.rotStart) / q.width)
	if b < q.cur {
		// The wheel coasted past b's (then-empty) bucket while draining
		// ahead of the clock; rewind to it. This cannot happen from inside
		// a callback — the wheel stays at the executing entry's bucket
		// until the next peek, and new events sort at or after now — so no
		// in-flight cursor state is disturbed. Compact the consumed prefix
		// out of the bucket the wheel is leaving first: pos resets to 0,
		// and a later scan of that bucket must not replay entries that
		// already fired.
		if q.pos > 0 && q.cur < len(q.buckets) {
			old := q.buckets[q.cur]
			q.buckets[q.cur] = old[:copy(old, old[q.pos:])]
		}
		q.cur, q.pos, q.sorted = b, 0, true
	}
	bk := q.buckets[b]
	if b == q.cur && q.sorted {
		// Keep the consuming bucket ordered: binary-insert into the
		// unconsumed tail (everything before pos has already fired).
		i := q.pos + sort.Search(len(bk)-q.pos, func(i int) bool {
			return less(&e, &bk[q.pos+i])
		})
		bk = append(bk, entry{})
		copy(bk[i+1:], bk[i:])
		bk[i] = e
		q.buckets[b] = bk
	} else {
		q.buckets[b] = append(bk, e)
	}
	q.count++
}

// peek surfaces the earliest live entry, discarding cancelled entries and
// advancing the wheel (including rotations and overflow drains) as needed.
// The returned pointer is valid until the next queue operation; dropMin
// acts on exactly this entry.
func (q *calendarQueue) peek() (*entry, bool) {
	for {
		if q.count == 0 {
			if len(q.overflow.es) == 0 {
				return nil, false
			}
			// Fast-forward the window to the earliest overflow event so
			// sparse far-future schedules don't spin through empty
			// rotations. The bucket the wheel stands in still holds its
			// consumed prefix (clearing normally happens when the scan moves
			// past); drop it now or the reset cursor would replay it.
			if q.cur < len(q.buckets) {
				if bk := q.buckets[q.cur]; len(bk) > 0 {
					q.buckets[q.cur] = bk[:0]
				}
			}
			q.rotStart = q.overflow.es[0].at
			q.cur, q.pos, q.sorted = 0, 0, false
			q.drainOverflow()
			continue
		}
		for q.cur < len(q.buckets) {
			bk := q.buckets[q.cur]
			if q.pos >= len(bk) {
				if len(bk) > 0 {
					q.buckets[q.cur] = bk[:0]
				}
				q.cur++
				q.pos, q.sorted = 0, false
				continue
			}
			if !q.sorted {
				sortEntries(bk)
				q.sorted = true
			}
			head := &q.buckets[q.cur][q.pos]
			if head.hid == hidHandle && q.sc.evs[head.arg].canceled {
				q.discard(head)
				q.pos++
				q.count--
				continue
			}
			return head, true
		}
		// Rotation exhausted: roll the window forward and pull newly
		// eligible overflow events into the buckets.
		q.rotStart = q.horizon()
		q.cur, q.pos, q.sorted = 0, 0, false
		q.drainOverflow()
	}
}

// rebase restarts the rotation window at start, re-pushing any resident
// bucket entries (they all lie at or after the old rotStart, so they re-land
// in later buckets or the overflow heap). Rare: only reachable when the
// window fast-forwarded past an idle gap and a new event then arrives inside
// the gap.
func (q *calendarQueue) rebase(start Time) {
	var resident []entry
	for b := q.cur; b < len(q.buckets); b++ {
		bk := q.buckets[b]
		from := 0
		if b == q.cur {
			from = q.pos
		}
		for i := from; i < len(bk); i++ {
			if bk[i].hid == hidHandle && q.sc.evs[bk[i].arg].canceled {
				q.discard(&bk[i])
				continue
			}
			resident = append(resident, bk[i])
		}
		q.buckets[b] = bk[:0]
	}
	q.rotStart = start
	q.cur, q.pos, q.sorted = 0, 0, false
	q.count = 0
	for _, r := range resident {
		q.push(r)
	}
}

// drainOverflow moves every overflow event now inside the rotation window
// into its bucket.
func (q *calendarQueue) drainOverflow() {
	hz := q.horizon()
	for len(q.overflow.es) > 0 && q.overflow.es[0].at < hz {
		e := q.overflow.es[0]
		q.overflow.dropMin()
		q.push(e)
	}
}

// dropMin consumes the entry peek returned. Entries are pointer-free, so
// the consumed prefix needs no clearing.
func (q *calendarQueue) dropMin() {
	q.pos++
	q.count--
}

// sortEntries orders a bucket by (at, seq). Keys are unique (seq is), so
// stability is irrelevant; an insertion sort is used because buckets are
// typically small and this avoids sort.Slice's per-call closure allocation.
func sortEntries(es []entry) {
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i
		for j > 0 && less(&e, &es[j-1]) {
			es[j] = es[j-1]
			j--
		}
		es[j] = e
	}
}
