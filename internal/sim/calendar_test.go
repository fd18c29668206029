package sim

import (
	"testing"
	"time"
)

// TestCalendarFastForwardNoReplay pins the fix for a consumed-entry replay:
// when the wheel goes idle with only far-future (overflow) work left, peek
// fast-forwards the rotation window onto the overflow minimum and resets the
// cursor — but the bucket the wheel was standing in still holds its consumed
// prefix (buckets are only cleared when the scan moves past them). Without
// clearing that residue at fast-forward time, the reset cursor re-surfaces
// entries that already fired, executing them a second time with a stale
// timestamp and driving simulated time backwards.
func TestCalendarFastForwardNoReplay(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	note := func() { fired = append(fired, s.Now()) }

	// Near event lands in a bucket; far event (700ms >= 256ms horizon) waits
	// in the overflow heap. Consuming the near event leaves its consumed
	// entry resident in the bucket with count == 0.
	s.MustAt(Time(time.Millisecond), note)
	s.MustAt(Time(700*time.Millisecond), note)
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}

	want := []Time{Time(time.Millisecond), Time(700 * time.Millisecond)}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events (%v), want %d (%v)", len(fired), fired, len(want), want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firing order %v, want %v", fired, want)
		}
	}
	if got := s.Processed(); got != 2 {
		t.Fatalf("Processed() = %d, want 2", got)
	}
}

// TestCalendarRepeatedFastForward drives several idle-gap fast-forwards in a
// row, each leaving consumed residue behind, and checks the firing sequence
// stays strictly monotonic with every event firing exactly once.
func TestCalendarRepeatedFastForward(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	note := func() { fired = append(fired, s.Now()) }

	times := []Time{
		Time(500 * time.Microsecond),
		Time(300 * time.Millisecond),
		Time(time.Second),
		Time(2500 * time.Millisecond),
		Time(2500*time.Millisecond + 1),
	}
	for _, at := range times {
		s.MustAt(at, note)
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(fired) != len(times) {
		t.Fatalf("fired %d events (%v), want %d", len(fired), fired, len(times))
	}
	for i, at := range times {
		if fired[i] != at {
			t.Fatalf("firing sequence %v, want %v", fired, times)
		}
	}
}
