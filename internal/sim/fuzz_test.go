package sim

import (
	"testing"
	"time"
)

// FuzzScheduler interprets the fuzz input as a little op program — schedule
// at an offset, schedule a same-time tie, cancel a pending event, step —
// runs it against a fresh scheduler under each calendar geometry, and
// asserts the discrete-event contract: fired events observe non-decreasing
// virtual time, same-time events fire in scheduling (FIFO) order, cancelled
// events never fire, and Processed() counts exactly the events that ran.
// It then requires the firing sequence to match the sorted-list reference
// exactly, making every fuzz input a differential test of the calendar
// queue.
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{0, 10, 0, 10, 1, 0, 3, 0, 0, 5, 2, 1, 3, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 1, 1, 1, 2, 0, 2, 0})
	f.Add([]byte{0, 255, 3, 3, 3, 3})
	// Cancel-heavy: more cancels than schedules, interleaved with steps, so
	// lazy discards at the front and in rebases get exercised.
	f.Add([]byte{0, 3, 0, 7, 0, 2, 0, 9, 2, 0, 2, 1, 2, 2, 0, 1, 2, 3, 3, 0, 0, 4, 2, 0, 2, 5, 3, 0, 2, 6, 3, 0, 3, 0})
	// Same-timestamp burst: a long FIFO tie train with a mid-train step and
	// a cancel inside the tie group.
	f.Add([]byte{0, 5, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 3, 0, 1, 0, 1, 0, 2, 3, 3, 0, 3, 0})
	f.Fuzz(func(t *testing.T, program []byte) {
		// Each program runs at every diffScales stretch so its delays cross
		// calendar buckets and rotations, not just the first bucket.
		run := func(kind string, width Time, buckets int, scale time.Duration) []firing {
			s := newSchedulerGeometry(width, buckets)
			var (
				pending []*Event // cancellable handles, in scheduling order
				meta    []firing // parallel to pending
				fired   []firing
				nexttag int
			)
			schedule := func(at time.Duration) {
				tag := nexttag
				nexttag++
				pending = append(pending, s.MustAt(at, func() {
					fired = append(fired, firing{at: at, ord: tag})
					if got := s.Now(); got != at {
						t.Fatalf("%v: event scheduled for %v fired at Now()=%v", kind, at, got)
					}
				}))
				meta = append(meta, firing{at: at, ord: tag})
			}

			lastAt := time.Duration(0)
			for i := 0; i+1 < len(program); i += 2 {
				op, arg := program[i]%4, program[i+1]
				switch op {
				case 0: // schedule at now + arg (relative offsets stay valid)
					lastAt = s.Now() + time.Duration(arg)*scale
					schedule(lastAt)
				case 1: // schedule a tie at the last used instant
					if lastAt < s.Now() {
						lastAt = s.Now()
					}
					schedule(lastAt)
				case 2: // cancel one pending event
					if len(pending) > 0 {
						pending[int(arg)%len(pending)].Cancel()
					}
				case 3: // run one event
					s.Step()
				}
			}
			if err := s.RunAll(); err != nil {
				t.Fatalf("%v: RunAll: %v", kind, err)
			}

			// Every non-cancelled scheduled event fired exactly once; no
			// cancelled event fired. (An event cancelled after firing stays
			// fired — Cancel is a no-op then — so filter by the fired list.)
			firedBy := make(map[int]firing, len(fired))
			for _, r := range fired {
				if _, dup := firedBy[r.ord]; dup {
					t.Fatalf("%v: event %d fired twice", kind, r.ord)
				}
				firedBy[r.ord] = r
			}
			for i, ev := range pending {
				_, didFire := firedBy[meta[i].ord]
				if ev.Canceled() && didFire {
					// Cancel-after-fire is legal and leaves Canceled()
					// true; the contract is only that cancelling BEFORE the
					// event pops suppresses it, which the ordering checks
					// below cover. Nothing to assert here.
					continue
				}
				if !ev.Canceled() && !didFire {
					t.Fatalf("%v: event %d (at %v) never fired", kind, meta[i].ord, meta[i].at)
				}
			}

			// Time monotone, FIFO within ties.
			for i := 1; i < len(fired); i++ {
				prev, cur := fired[i-1], fired[i]
				if cur.at < prev.at {
					t.Fatalf("%v: time went backwards: %v after %v", kind, cur.at, prev.at)
				}
				if cur.at == prev.at && cur.ord < prev.ord {
					t.Fatalf("%v: same-time events fired out of scheduling order: %d before %d", kind, prev.ord, cur.ord)
				}
			}

			if got := s.Processed(); got != uint64(len(fired)) {
				t.Fatalf("%v: Processed() = %d, want %d fired events", kind, got, len(fired))
			}
			if s.Len() != 0 {
				t.Fatalf("%v: queue not drained: Len() = %d", kind, s.Len())
			}
			return fired
		}

		for _, scale := range diffScales {
			want := runProgramRef(program, scale)
			for _, g := range geometries {
				got := run(g.name, g.width, g.buckets, scale)
				if len(got) != len(want) {
					t.Fatalf("%s scale %v: fired %d events, reference fired %d", g.name, scale, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s scale %v firing %d: {at %v, ord %d}, reference {at %v, ord %d}",
							g.name, scale, i, got[i].at, got[i].ord, want[i].at, want[i].ord)
					}
				}
			}
		}
	})
}
