// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate on which the packet-level network simulator is
// built (the role ns-2's scheduler plays in the original Corelite
// evaluation). It offers a virtual clock, an event queue with stable FIFO
// ordering for simultaneous events, cancellable timers, and seeded random
// number streams so that every run is exactly reproducible.
//
// The engine is single-threaded by design: events execute sequentially in
// timestamp order, so model code needs no locking and every simulation with
// the same seed produces the same trace.
//
// # Memory model
//
// A queued event is a 24-byte pointer-free struct — (time, sequence, packed
// handler id, arg) — stored inline in the queue's backing arrays. Because the
// entries hold no pointers, the garbage collector never scans the queue and
// reordering it (the calendar's bucket sorts, its overflow heap's sift loops)
// is pure memory movement with no write barriers. What an entry *runs* is
// resolved through the handler id at dispatch time. Two tiers:
//
//   - Registered handlers (RegisterHandler + PostHandler/PostHandlerAt): the
//     handler id indexes a table of func(arg uint32) callbacks registered
//     once per run; the arg typically indexes a caller-side pool (e.g. the
//     in-flight timer records of the link pipeline). Scheduling one of these
//     writes no pointers anywhere — this is the hot-path tier.
//   - MustAt/MustAfter return a cancellable *Event handle. Handles are never
//     recycled (a stale handle after the event fired must stay a safe no-op),
//     so each call allocates one Event record; the entry's arg names the slot
//     holding it.
//
// # Queue
//
// The pending-event queue is a calendar queue (see calendarQueue) with a
// 4-ary heap for events beyond its current rotation. The (time, sequence)
// total order it produces is pinned against a sorted-list reference by the
// differential suite in differential_test.go.
package sim

import (
	"errors"
	"fmt"
	"time"
)

// Time is a virtual timestamp measured as an offset from the start of the
// simulation. The simulation clock starts at zero.
type Time = time.Duration

// ErrHalted is returned by Run when Halt was called before the horizon was
// reached.
var ErrHalted = errors.New("simulation halted")

// entry is one queued event: 24 pointer-free bytes. The key (at, seq) orders
// the queue; (hid, arg) says what to run — see the package comment's memory
// model.
type entry struct {
	at  Time
	seq uint64
	hid HandlerID
	arg uint32
}

// less orders entries by (time, sequence) so that events scheduled for the
// same instant fire in scheduling order (stable FIFO tie-break).
func less(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// HandlerID selects what a queue entry runs. hidHandle is the built-in
// handle tier; RegisterHandler hands out the rest.
type HandlerID uint32

const (
	// hidHandle: arg is a slot in Scheduler.evs holding a live *Event.
	hidHandle HandlerID = 0
	// hidFirst is the first id RegisterHandler returns.
	hidFirst HandlerID = 1
)

// Event is a scheduled callback handle. It is returned by the scheduling
// methods so that callers may cancel the event before it fires.
type Event struct {
	at Time
	// fn is the callback while the event is queued; nil once it fired or,
	// after Cancel, once the queue discarded its entry.
	fn       func()
	sched    *Scheduler
	canceled bool
}

// At reports the virtual time at which the event is (or was) scheduled to
// fire.
func (e *Event) At() Time { return e.at }

// Cancel prevents the event from firing. The queue entry is flagged and
// discarded when it reaches the front, but Len() stops counting it at once.
// Cancelling an event that already fired or was already cancelled is a
// no-op. Cancel must only be called from within the simulation (i.e. from
// event callbacks or before Run), never from another goroutine.
func (e *Event) Cancel() {
	if e.canceled {
		return
	}
	e.canceled = true
	if e.fn != nil {
		e.sched.live--
	}
}

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Scheduler owns the virtual clock and the pending-event queue. Construct it
// with NewScheduler.
type Scheduler struct {
	now  Time
	seq  uint64
	live int // queued non-cancelled events

	cal calendarQueue

	// handlers is the registered-handler dispatch table; slots below
	// hidFirst are reserved for the built-in tier.
	handlers []func(arg uint32)
	// evs parks handle-tier events, free-listed so slots are reused.
	evs    []*Event
	evFree []uint32

	halted  bool
	stepped uint64
	prof    *LoopProfiler // nil unless the event-loop profiler is attached
}

// NewScheduler returns an empty scheduler with the clock at zero.
func NewScheduler() *Scheduler {
	s := &Scheduler{handlers: make([]func(uint32), hidFirst, 8)}
	s.cal = newCalendarQueue(s, defaultCalendarWidth, defaultCalendarBuckets)
	return s
}

// Now reports the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Len reports the number of live events still queued: cancelled events stop
// counting the moment Cancel returns, and the currently executing event is
// not counted while its callback runs.
func (s *Scheduler) Len() int { return s.live }

// Processed reports how many events have been executed so far.
func (s *Scheduler) Processed() uint64 { return s.stepped }

// RegisterHandler adds f to the dispatch table and returns its id for use
// with PostHandler/PostHandlerAt. Handlers are registered once (typically at
// model construction) and never unregistered; the arg passed at scheduling
// time is handed back to f verbatim, so callers use it to index their own
// pooled state. Registering is not for per-event use — that is what the arg
// is for.
func (s *Scheduler) RegisterHandler(f func(arg uint32)) HandlerID {
	if f == nil {
		panic(errors.New("sim: register nil handler"))
	}
	id := HandlerID(len(s.handlers))
	s.handlers = append(s.handlers, f)
	return id
}

// PostHandlerAt schedules registered handler id to run with arg at absolute
// time t. Nothing is allocated and no pointer is written anywhere: the event
// is 24 flat bytes in the queue. It panics on the programming errors MustAt
// panics on, and on an unregistered id.
func (s *Scheduler) PostHandlerAt(t Time, id HandlerID, arg uint32) {
	if t < s.now {
		panic(fmt.Errorf("sim: post at %v before now %v", t, s.now))
	}
	if id < hidFirst || int(id) >= len(s.handlers) {
		panic(fmt.Errorf("sim: post unregistered handler %d", id))
	}
	s.push(entry{at: t, seq: s.seq, hid: id, arg: arg})
}

// PostHandler schedules registered handler id to run d after the current
// virtual time (see PostHandlerAt).
func (s *Scheduler) PostHandler(d time.Duration, id HandlerID, arg uint32) {
	s.PostHandlerAt(s.now+d, id, arg)
}

// push queues e under the sequence number it was built with and advances
// the sequence and live counters.
func (s *Scheduler) push(e entry) {
	s.seq++
	s.live++
	s.cal.push(e)
}

// allocEv parks ev in a handle slot and returns the slot number.
func (s *Scheduler) allocEv(ev *Event) uint32 {
	if k := len(s.evFree); k > 0 {
		slot := s.evFree[k-1]
		s.evFree = s.evFree[:k-1]
		s.evs[slot] = ev
		return slot
	}
	s.evs = append(s.evs, ev)
	return uint32(len(s.evs) - 1)
}

// releaseEv clears a handle slot for reuse.
func (s *Scheduler) releaseEv(slot uint32) {
	s.evs[slot] = nil
	s.evFree = append(s.evFree, slot)
}

// MustAt schedules fn to run at absolute virtual time t and returns a handle
// that can cancel it. Scheduling in the past or a nil callback is a
// programming error — models that do this are buggy — so MustAt panics
// rather than silently reordering time.
func (s *Scheduler) MustAt(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Errorf("sim: schedule at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic(errors.New("sim: schedule nil callback"))
	}
	ev := &Event{at: t, fn: fn, sched: s}
	s.push(entry{at: t, seq: s.seq, hid: hidHandle, arg: s.allocEv(ev)})
	return ev
}

// MustAfter schedules fn to run d after the current virtual time (see
// MustAt). A negative d panics.
func (s *Scheduler) MustAfter(d time.Duration, fn func()) *Event {
	return s.MustAt(s.now+d, fn)
}

// Halt stops Run before the horizon. It is intended to be called from within
// an event callback (e.g. when a termination condition is detected).
func (s *Scheduler) Halt() { s.halted = true }

// exec retires the entry the calendar's peek just surfaced and runs it.
func (s *Scheduler) exec(e *entry) {
	s.now = e.at
	s.stepped++
	s.live--
	hid, arg := e.hid, e.arg
	s.cal.dropMin()
	var fn func()
	if hid == hidHandle {
		ev := s.evs[arg]
		s.releaseEv(arg)
		fn, ev.fn = ev.fn, nil
	}
	p := s.prof
	if p != nil {
		p.begin()
	}
	if fn != nil {
		fn()
	} else {
		s.handlers[hid](arg)
	}
	if p != nil {
		p.end()
	}
}

// Step executes the single earliest pending event. It reports whether an
// event was executed (false when the queue is empty). Step must not be
// called from within an event callback.
func (s *Scheduler) Step() bool {
	e, ok := s.cal.peek()
	if !ok {
		return false
	}
	s.exec(e)
	return true
}

// Run executes events in order until the queue is empty, the next event lies
// beyond the horizon, or Halt is called. On return the clock is at the time
// of the last executed event (or at horizon when the queue drained past it).
// Run returns ErrHalted if the run was stopped by Halt.
func (s *Scheduler) Run(horizon Time) error {
	s.halted = false
	for !s.halted {
		e, ok := s.cal.peek()
		if !ok || e.at > horizon {
			if s.now < horizon {
				s.now = horizon
			}
			return nil
		}
		s.exec(e)
	}
	return ErrHalted
}

// RunAll executes events until the queue is empty or Halt is called.
func (s *Scheduler) RunAll() error {
	s.halted = false
	for !s.halted {
		if !s.Step() {
			return nil
		}
	}
	return ErrHalted
}
