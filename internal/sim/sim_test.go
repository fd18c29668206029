package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []time.Duration
	times := []time.Duration{5 * time.Second, time.Second, 3 * time.Second, 2 * time.Second}
	for _, at := range times {
		at := at
		s.MustAt(at, func() { got = append(got, at) })
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	want := append([]time.Duration(nil), times...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
	if s.Now() != 5*time.Second {
		t.Errorf("Now() = %v, want 5s", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.MustAt(time.Second, func() { order = append(order, i) })
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of scheduling order: %v", order)
		}
	}
}

func TestSchedulePastRejected(t *testing.T) {
	s := NewScheduler()
	s.MustAt(2*time.Second, func() {})
	if !s.Step() {
		t.Fatal("Step returned false with a pending event")
	}
	wantPanic(t, "MustAt in the past", func() { s.MustAt(time.Second, func() {}) })
	wantPanic(t, "MustAfter with negative delay", func() { s.MustAfter(-time.Second, func() {}) })
	if s.Len() != 0 {
		t.Errorf("rejected schedules left Len() = %d, want 0", s.Len())
	}
}

func TestScheduleNilCallbackRejected(t *testing.T) {
	s := NewScheduler()
	wantPanic(t, "MustAt with nil callback", func() { s.MustAt(time.Second, nil) })
}

// wantPanic fails the test unless f panics.
func wantPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s succeeded, want panic", what)
		}
	}()
	f()
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.MustAt(time.Second, func() { fired = true })
	e.Cancel()
	if !e.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	s := NewScheduler()
	fired := false
	late := s.MustAt(2*time.Second, func() { fired = true })
	s.MustAt(time.Second, func() { late.Cancel() })
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if fired {
		t.Error("event cancelled by an earlier event still fired")
	}
}

func TestRunHorizon(t *testing.T) {
	s := NewScheduler()
	var fired []time.Duration
	for _, at := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		at := at
		s.MustAt(at, func() { fired = append(fired, at) })
	}
	if err := s.Run(2 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events before horizon, want 2", len(fired))
	}
	if s.Now() != 2*time.Second {
		t.Errorf("Now() = %v after horizon run, want 2s", s.Now())
	}
	// The remaining event still fires on a later run.
	if err := s.Run(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events total, want 3", len(fired))
	}
	if s.Now() != 5*time.Second {
		t.Errorf("Now() = %v, want horizon 5s when queue drained", s.Now())
	}
}

func TestHalt(t *testing.T) {
	s := NewScheduler()
	count := 0
	s.MustAt(time.Second, func() { count++; s.Halt() })
	s.MustAt(2*time.Second, func() { count++ })
	err := s.Run(10 * time.Second)
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("Run returned %v, want ErrHalted", err)
	}
	if count != 1 {
		t.Errorf("executed %d events, want 1 (halted after first)", count)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := NewScheduler()
	var ticks []time.Duration
	var tick func()
	tick = func() {
		ticks = append(ticks, s.Now())
		if s.Now() < 5*time.Second {
			s.MustAfter(time.Second, tick)
		}
	}
	s.MustAt(time.Second, tick)
	if err := s.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5: %v", len(ticks), ticks)
	}
	for i, at := range ticks {
		if want := time.Duration(i+1) * time.Second; at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestProcessedCount(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 7; i++ {
		s.MustAfter(time.Duration(i)*time.Millisecond, func() {})
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if s.Processed() != 7 {
		t.Errorf("Processed() = %d, want 7", s.Processed())
	}
}

// TestHeapOrderingProperty verifies with random event sets that execution
// order is exactly (time, scheduling order).
func TestHeapOrderingProperty(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		s := NewScheduler()
		type stamp struct {
			at  time.Duration
			seq int
		}
		var want, got []stamp
		for i, d := range delaysRaw {
			at := time.Duration(d%64) * time.Millisecond
			want = append(want, stamp{at, i})
			i := i
			s.MustAt(at, func() { got = append(got, stamp{s.Now(), i}) })
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if err := s.RunAll(); err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRandomCancellationProperty verifies that cancelling an arbitrary subset
// of events results in exactly the complement being executed.
func TestRandomCancellationProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		total := int(n%50) + 1
		events := make([]*Event, total)
		fired := make([]bool, total)
		for i := 0; i < total; i++ {
			i := i
			events[i] = s.MustAt(time.Duration(rng.Intn(100))*time.Millisecond, func() { fired[i] = true })
		}
		cancelled := make([]bool, total)
		for i := 0; i < total; i++ {
			if rng.Intn(2) == 0 {
				events[i].Cancel()
				cancelled[i] = true
			}
		}
		if err := s.RunAll(); err != nil {
			return false
		}
		for i := 0; i < total; i++ {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	a := NewRNG(42).Stream("alpha")
	b := NewRNG(42).Stream("beta")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams alpha/beta coincide on %d of 100 draws", same)
	}
	// Same name must reproduce the same stream.
	c := NewRNG(42).Stream("alpha")
	d := NewRNG(42).Stream("alpha")
	for i := 0; i < 100; i++ {
		if c.Float64() != d.Float64() {
			t.Fatal("same-named streams diverged")
		}
	}
}

func TestBernoulliBounds(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 50; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := NewRNG(7)
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	freq := float64(hits) / n
	if freq < 0.27 || freq > 0.33 {
		t.Errorf("Bernoulli(0.3) frequency = %.3f, want ~0.3", freq)
	}
}
