package sim

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// refScheduler is a deliberately naive reference implementation of the
// event-queue contract the calendar queue must preserve: a sorted list
// ordered by (time, scheduling sequence), with cancelled events skipped
// lazily at pop time. The differential tests below run the same op programs
// through both and require identical firing sequences, so any queue bug
// that perturbs the total order (and would silently change every figure) is
// caught directly.
type refScheduler struct {
	now     time.Duration
	seq     uint64
	events  []*refEvent
	stepped uint64
}

type refEvent struct {
	at       time.Duration
	seq      uint64
	canceled bool
	fn       func()
}

func (r *refScheduler) at(t time.Duration, fn func()) *refEvent {
	e := &refEvent{at: t, seq: r.seq, fn: fn}
	r.seq++
	// Insert keeping (at, seq) order; seq is strictly increasing, so among
	// equal times the new event always goes last (FIFO).
	i := sort.Search(len(r.events), func(i int) bool {
		other := r.events[i]
		return other.at > e.at || (other.at == e.at && other.seq > e.seq)
	})
	r.events = append(r.events, nil)
	copy(r.events[i+1:], r.events[i:])
	r.events[i] = e
	return e
}

func (r *refScheduler) step() bool {
	for len(r.events) > 0 {
		e := r.events[0]
		r.events = r.events[1:]
		if e.canceled {
			continue
		}
		r.now = e.at
		r.stepped++
		e.fn()
		return true
	}
	return false
}

func (r *refScheduler) runAll() {
	for r.step() {
	}
}

// opPrograms is the FuzzScheduler seed corpus (the f.Add seeds plus the
// regression entries under testdata/fuzz), reused here as deterministic
// differential inputs, plus a long mixed program exercising deep queues.
func opPrograms() [][]byte {
	programs := [][]byte{
		{0, 10, 0, 10, 1, 0, 3, 0, 0, 5, 2, 1, 3, 0},
		{0, 0, 0, 0, 0, 0},
		{1, 1, 1, 1, 2, 0, 2, 0},
		{0, 255, 3, 3, 3, 3},
		// testdata/fuzz/FuzzScheduler regression entries.
		{0, 0, 0, 0, 0, 0, 2, 1, 2, 2, 3, 0, 3, 0, 3, 0}, // all-zero-ties
		{2, 0, 3, 0, 1, 0, 2, 0},                         // cancel-empty-then-tie
		{0, 255, 0, 1, 0, 128, 3, 0, 0, 2, 3, 0},         // interleaved-steps
		{0, 5, 1, 0, 1, 0, 2, 1, 3, 0, 3, 0},             // ties-and-cancel
		// cancel-heavy
		{0, 3, 0, 7, 0, 2, 0, 9, 2, 0, 2, 1, 2, 2, 0, 1, 2, 3, 3, 0, 0, 4, 2, 0, 2, 5, 3, 0, 2, 6, 3, 0, 3, 0},
		// same-timestamp-burst
		{0, 5, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 3, 0, 1, 0, 1, 0, 2, 3, 3, 0, 3, 0},
	}
	// A long pseudo-random program (fixed recurrence, no global randomness)
	// that mixes all four ops and grows the queue well past one heap level.
	long := make([]byte, 0, 2048)
	x := uint32(0x9e3779b9)
	for i := 0; i < 1024; i++ {
		x = x*1664525 + 1013904223
		long = append(long, byte(x>>24), byte(x>>16))
	}
	return append(programs, long)
}

type firing struct {
	at  time.Duration
	ord int
}

// geometries are the calendar shapes every differential program runs under:
// the production wheel, and a degenerate one-bucket, 1ns wheel under which
// every event beyond the current nanosecond waits in the overflow heap, so
// the heap's sift paths and the rotation and fast-forward logic run on
// nearly every operation.
var geometries = []struct {
	name    string
	width   Time
	buckets int
}{
	{"calendar", defaultCalendarWidth, defaultCalendarBuckets},
	{"heap", 1, 1},
}

// newSchedulerGeometry returns an empty scheduler whose calendar has the
// given bucket width and count.
func newSchedulerGeometry(width Time, buckets int) *Scheduler {
	s := NewScheduler()
	s.cal = newCalendarQueue(s, width, buckets)
	return s
}

// diffScales stretch the op programs' byte-valued delays (≤255 units) onto
// three calendar regimes: within one bucket, across buckets within one
// rotation, and across rotations through the overflow heap. The calendar's
// bucket-clearing, rotation-roll and fast-forward paths only run when
// programs actually cross those boundaries.
var diffScales = []time.Duration{1, 1100 * time.Microsecond, 97 * time.Millisecond}

// runProgram interprets the op program against a scheduler with the given
// calendar geometry using cancellable handles and returns the firing
// sequence. Delays are multiplied by scale.
func runProgram(t *testing.T, width Time, buckets int, program []byte, scale time.Duration) []firing {
	t.Helper()
	s := newSchedulerGeometry(width, buckets)
	var (
		fired   []firing
		pending []*Event
		nexttag int
		lastAt  time.Duration
	)
	schedule := func(at time.Duration) {
		tag := nexttag
		nexttag++
		pending = append(pending, s.MustAt(at, func() { fired = append(fired, firing{at, tag}) }))
	}
	for i := 0; i+1 < len(program); i += 2 {
		op, arg := program[i]%4, program[i+1]
		switch op {
		case 0:
			lastAt = s.Now() + time.Duration(arg)*scale
			schedule(lastAt)
		case 1:
			if lastAt < s.Now() {
				lastAt = s.Now()
			}
			schedule(lastAt)
		case 2:
			if len(pending) > 0 {
				pending[int(arg)%len(pending)].Cancel()
			}
		case 3:
			s.Step()
		}
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("queue not drained: Len() = %d", s.Len())
	}
	return fired
}

// runProgramRef interprets the same program against the reference sorted
// list.
func runProgramRef(program []byte, scale time.Duration) []firing {
	r := &refScheduler{}
	var (
		fired   []firing
		pending []*refEvent
		nexttag int
		lastAt  time.Duration
	)
	schedule := func(at time.Duration) {
		tag := nexttag
		nexttag++
		pending = append(pending, r.at(at, func() { fired = append(fired, firing{at, tag}) }))
	}
	for i := 0; i+1 < len(program); i += 2 {
		op, arg := program[i]%4, program[i+1]
		switch op {
		case 0:
			lastAt = r.now + time.Duration(arg)*scale
			schedule(lastAt)
		case 1:
			if lastAt < r.now {
				lastAt = r.now
			}
			schedule(lastAt)
		case 2:
			if len(pending) > 0 {
				pending[int(arg)%len(pending)].canceled = true
			}
		case 3:
			r.step()
		}
	}
	r.runAll()
	return fired
}

// TestSchedulerDifferential pins the calendar queue's total order against
// the reference: identical programs must produce identical firing
// sequences, cancel-skips included, under every geometry and delay scale.
func TestSchedulerDifferential(t *testing.T) {
	for _, g := range geometries {
		for _, scale := range diffScales {
			for pi, program := range opPrograms() {
				got := runProgram(t, g.width, g.buckets, program, scale)
				want := runProgramRef(program, scale)
				if len(got) != len(want) {
					t.Fatalf("%s scale %v program %d: fired %d events, reference fired %d",
						g.name, scale, pi, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s scale %v program %d: firing %d = {at %v, ord %d}, reference {at %v, ord %d}",
							g.name, scale, pi, i, got[i].at, got[i].ord, want[i].at, want[i].ord)
					}
				}
			}
		}
	}
}

// TestSchedulerDifferentialPost replays the schedule/step ops through the
// handle-free registered-handler tier (cancel ops become no-ops on both
// sides): posted events must follow exactly the same (time, seq) total order
// as handles.
func TestSchedulerDifferentialPost(t *testing.T) {
	for _, g := range geometries {
		g := g
		t.Run(g.name, func(t *testing.T) {
			for _, scale := range diffScales {
				testDifferentialPost(t, g.width, g.buckets, scale)
			}
		})
	}
}

func testDifferentialPost(t *testing.T, width Time, buckets int, scale time.Duration) {
	for pi, program := range opPrograms() {
		s := newSchedulerGeometry(width, buckets)
		r := &refScheduler{}
		var got, want []firing
		hid := s.RegisterHandler(func(tag uint32) { got = append(got, firing{s.Now(), int(tag)}) })
		nexttag := 0
		var lastAt time.Duration
		for i := 0; i+1 < len(program); i += 2 {
			op, arg := program[i]%4, program[i+1]
			switch op {
			case 0, 1:
				at := s.Now() + time.Duration(arg)*scale
				if op == 1 {
					at = lastAt
					if at < s.Now() {
						at = s.Now()
					}
				}
				lastAt = at
				tag := nexttag
				nexttag++
				s.PostHandlerAt(at, hid, uint32(tag))
				r.at(at, func() { want = append(want, firing{at, tag}) })
			case 2:
				// Posted events cannot be cancelled; skip on both sides.
			case 3:
				s.Step()
				r.step()
			}
		}
		if err := s.RunAll(); err != nil {
			t.Fatalf("program %d: RunAll: %v", pi, err)
		}
		r.runAll()
		if len(got) != len(want) {
			t.Fatalf("program %d: fired %d events, reference fired %d", pi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("program %d: firing %d = %+v, reference %+v", pi, i, got[i], want[i])
			}
		}
	}
}

// TestSchedulerDifferentialMixed drives both scheduling tiers at once —
// cancellable handles and registered handlers that post follow-ups from
// inside their callbacks, the shape of the link pipeline's transmit handler
// (post the propagation, post the next completion) — through deterministic
// pseudo-random interleavings, in lockstep against the reference list, under
// every geometry and delay scale. The reference inserts each follow-up at
// the moment the real scheduler posts it, so any drift in sequence
// accounting surfaces as a firing-order mismatch. The event-loop profiler
// rides along at stride 1 and its exact per-kind counts must match the
// reference's manual tally.
func TestSchedulerDifferentialMixed(t *testing.T) {
	for _, g := range geometries {
		for seed := uint64(1); seed <= 4; seed++ {
			g, seed := g, seed
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				for _, scale := range diffScales {
					runMixedDifferential(t, g.width, g.buckets, seed, scale)
				}
			})
		}
	}
}

func runMixedDifferential(t *testing.T, width Time, buckets int, seed uint64, scale time.Duration) {
	const ops = 800
	// Delays are drawn in units of scale, below 256 like the op programs'.
	var (
		txDelay   = 3 * scale
		propDelay = 2 * scale
	)
	s := newSchedulerGeometry(width, buckets)
	prof := NewLoopProfiler(1)
	s.SetProfiler(prof)
	r := &refScheduler{}
	var refCounts [numHandlerKinds]uint64

	type rec struct {
		at  time.Duration
		tag uint32
	}
	var got, want []rec

	// Registered tier: a propagation handler, and a transmit handler whose
	// tags divisible by five post a propagation and then one more transmit
	// of their own, in that order.
	propHid := s.RegisterHandler(func(arg uint32) {
		s.MarkHandler(KindLinkProp)
		got = append(got, rec{s.Now(), arg})
	})
	reposted := map[uint32]bool{}
	var txHid HandlerID
	txHid = s.RegisterHandler(func(arg uint32) {
		s.MarkHandler(KindLinkTx)
		got = append(got, rec{s.Now(), arg})
		if arg%5 == 0 && !reposted[arg] {
			reposted[arg] = true
			s.PostHandler(propDelay, propHid, arg)
			s.PostHandler(txDelay, txHid, arg)
		}
	})
	refReposted := map[uint32]bool{}
	refProp := func(arg uint32) {
		refCounts[KindLinkProp]++
		want = append(want, rec{r.now, arg})
	}
	var refTx func(arg uint32)
	refTx = func(arg uint32) {
		refCounts[KindLinkTx]++
		want = append(want, rec{r.now, arg})
		if arg%5 == 0 && !refReposted[arg] {
			refReposted[arg] = true
			r.at(r.now+propDelay, func() { refProp(arg) })
			r.at(r.now+txDelay, func() { refTx(arg) })
		}
	}

	var (
		pending    []*Event
		refPending []*refEvent
		tag        uint32
		lastAt     time.Duration
	)
	x := seed*0x9e3779b97f4a7c15 + 1
	next := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	for i := 0; i < ops; i++ {
		switch op := next(16); {
		case op < 6: // cancellable handle, tagged measure/control/other
			at := s.Now() + time.Duration(next(256))*scale
			if op == 2 && lastAt >= s.Now() {
				at = lastAt // exact tie with the previous schedule
			}
			lastAt = at
			tg := tag
			tag++
			mark := KindOther
			switch tg % 3 {
			case 1:
				mark = KindMeasure
			case 2:
				mark = KindControl
			}
			pending = append(pending, s.MustAt(at, func() {
				s.MarkHandler(mark)
				got = append(got, rec{at, tg})
			}))
			refPending = append(refPending, r.at(at, func() {
				refCounts[mark]++
				want = append(want, rec{at, tg})
			}))
		case op < 10: // registered handler, may post follow-ups
			d := time.Duration(next(256)) * scale
			lastAt = s.Now() + d
			tg := tag
			tag++
			s.PostHandler(d, txHid, tg)
			r.at(r.now+d, func() { refTx(tg) })
		case op < 13: // cancel the same pending handle on both sides
			if len(pending) > 0 {
				idx := int(next(uint64(len(pending))))
				pending[idx].Cancel()
				refPending[idx].canceled = true
			}
		default: // step both sides
			s.Step()
			r.step()
		}
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	r.runAll()

	if len(got) != len(want) {
		t.Fatalf("scale %v: fired %d events, reference fired %d", scale, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scale %v: firing %d = {at %v, tag %d}, reference {at %v, tag %d}",
				scale, i, got[i].at, got[i].tag, want[i].at, want[i].tag)
		}
	}
	if s.Processed() != r.stepped {
		t.Fatalf("scale %v: Processed() = %d, reference stepped %d", scale, s.Processed(), r.stepped)
	}
	if s.Len() != 0 {
		t.Fatalf("scale %v: queue not drained: Len() = %d", scale, s.Len())
	}
	counts := map[HandlerKind]uint64{}
	for _, st := range prof.Snapshot() {
		counts[st.Kind] = st.Events
	}
	for k := HandlerKind(0); k < numHandlerKinds; k++ {
		if counts[k] != refCounts[k] {
			t.Fatalf("scale %v: profiler counted %d %v events, reference counted %d", scale, counts[k], k, refCounts[k])
		}
	}
}

// TestCancelRemovesEagerly pins the Cancel accounting: a cancelled event
// stops counting toward Len() immediately, although its entry is discarded
// only when it reaches the front.
func TestCancelRemovesEagerly(t *testing.T) {
	s := NewScheduler()
	var evs []*Event
	for i := 0; i < 100; i++ {
		evs = append(evs, s.MustAt(time.Duration(i%7)*time.Millisecond, func() {}))
	}
	if got := s.Len(); got != 100 {
		t.Fatalf("Len() = %d, want 100", got)
	}
	// Cancel from the middle, the front, and the tail.
	for _, i := range []int{50, 0, 99, 17, 3} {
		evs[i].Cancel()
	}
	if got := s.Len(); got != 95 {
		t.Fatalf("Len() after 5 cancels = %d, want 95", got)
	}
	// Double cancel stays a no-op.
	evs[50].Cancel()
	if got := s.Len(); got != 95 {
		t.Fatalf("Len() after double cancel = %d, want 95", got)
	}
	fired := 0
	for s.Step() {
		fired++
	}
	if fired != 95 {
		t.Fatalf("fired %d events, want 95", fired)
	}
}

// TestPostSteadyStateAllocs pins the hot-path allocation claim: once the
// calendar's buckets are warm, a schedule-and-fire cycle through PostHandler
// allocates nothing.
func TestPostSteadyStateAllocs(t *testing.T) {
	s := NewScheduler()
	hid := s.RegisterHandler(func(uint32) {})
	// Warm the buckets' backing arrays across a full rotation.
	for i := 0; i < 2*defaultCalendarBuckets; i++ {
		s.PostHandler(time.Millisecond, hid, 0)
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.PostHandler(time.Millisecond, hid, 0)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state PostHandler/Step allocates %.1f objects per cycle, want 0", allocs)
	}
}

// TestPostChainSteadyStateAllocs covers the self-rescheduling shape the link
// pipeline uses: a handler whose callback posts the next firing.
func TestPostChainSteadyStateAllocs(t *testing.T) {
	s := NewScheduler()
	var hid HandlerID
	hid = s.RegisterHandler(func(arg uint32) { s.PostHandler(time.Millisecond, hid, arg) })
	s.PostHandler(time.Millisecond, hid, 0)
	for i := 0; i < 2*defaultCalendarBuckets; i++ {
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() { s.Step() })
	if allocs != 0 {
		t.Fatalf("steady-state chained PostHandler allocates %.1f objects per fire, want 0", allocs)
	}
}
