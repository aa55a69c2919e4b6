package sim

import (
	"math/rand"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.RunUntil(100)
	want := []int{1, 2, 3}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestTieBreakByInsertion(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.RunUntil(10)
	for i := range got {
		if got[i] != i {
			t.Fatalf("ties not broken by insertion: %v", got)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := NewScheduler(1)
	var at Time
	s.At(50, func() {
		s.After(25, func() { at = s.Now() })
	})
	s.RunUntil(1000)
	if at != 75 {
		t.Fatalf("After fired at %d, want 75", at)
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	cancel := s.At(10, func() { fired = true })
	cancel()
	s.RunUntil(100)
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestEvery(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	cancel := s.Every(0, 10, 0, func() { count++ })
	s.RunUntil(95)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	cancel()
	s.RunUntil(200)
	if count != 10 {
		t.Fatalf("events fired after cancel: %d", count)
	}
}

func TestEveryJitterBounded(t *testing.T) {
	s := NewScheduler(42)
	var times []Time
	s.Every(0, 10, 5, func() { times = append(times, s.Now()) })
	s.RunUntil(1000)
	for i := 1; i < len(times); i++ {
		gap := times[i] - times[i-1]
		if gap < 10 || gap > 15 {
			t.Fatalf("gap %d outside [10,15]", gap)
		}
	}
	if len(times) < 50 {
		t.Fatalf("too few firings: %d", len(times))
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := NewScheduler(7)
		var times []Time
		s.Every(0, 10, 7, func() { times = append(times, s.Now()) })
		s.Every(3, 9, 3, func() { times = append(times, s.Now()) })
		s.RunUntil(500)
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRunSteps(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	s.Every(0, 1, 0, func() { count++ })
	if n := s.RunSteps(5); n != 5 || count != 5 {
		t.Fatalf("RunSteps: n=%d count=%d", n, count)
	}
}

func TestRunWhile(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	s.Every(0, 1, 0, func() { count++ })
	if !s.RunWhile(func() bool { return count < 7 }, 1000) {
		t.Fatal("RunWhile did not satisfy condition")
	}
	if count != 7 {
		t.Fatalf("count = %d, want 7", count)
	}
	if s.RunWhile(func() bool { return false }, 10) != true {
		t.Fatal("vacuously satisfied condition not detected")
	}
}

func TestHalt(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	s.Every(0, 1, 0, func() {
		count++
		if count == 3 {
			s.Halt()
		}
	})
	s.RunUntil(100)
	if count != 3 {
		t.Fatalf("Halt did not stop the loop: %d", count)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	// A queue that drains before the deadline reports false.
	s := NewScheduler(1)
	s.At(5, func() {})
	if s.RunUntil(100) {
		t.Fatal("drained queue must report false")
	}
	if s.Now() != 5 {
		t.Fatalf("Now = %d, want 5", s.Now())
	}
	// A perpetual series reaches the deadline and reports true.
	s2 := NewScheduler(1)
	s2.Every(0, 10, 0, func() {})
	if !s2.RunUntil(95) {
		t.Fatal("deadline not reported")
	}
	if s2.Now() != 95 {
		t.Fatalf("Now = %d, want 95", s2.Now())
	}
	// With an empty queue RunUntil reports false immediately.
	s3 := NewScheduler(1)
	if s3.RunUntil(10) {
		t.Fatal("empty queue should report false")
	}
}

func TestPastEventClamped(t *testing.T) {
	s := NewScheduler(1)
	s.At(50, func() {
		s.At(10, func() {
			if s.Now() < 50 {
				t.Fatalf("time ran backwards: %d", s.Now())
			}
		})
	})
	s.RunUntil(100)
}

// TestQuickSchedulerOrder interleaves random At/After/Every calls and
// cancellations (some made from inside running events) with RunSteps,
// then drains the queue. Events must run in increasing (at, seq) order,
// at their clamped time; canceled one-shot events never run, every other
// one-shot event runs exactly once, and a stopped series never fires
// again.
func TestQuickSchedulerOrder(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		checkSchedulerRun(t, seed)
	}
}

type firing struct {
	at  Time
	seq uint64
}

func checkSchedulerRun(t *testing.T, seed int64) {
	t.Helper()
	s := NewScheduler(seed)
	rng := rand.New(rand.NewSource(seed))
	type oneShot struct {
		at       Time
		canceled bool
		runs     int
		cancel   Cancel
	}
	var (
		shots   []*oneShot
		series  []Cancel
		stopped []bool
		fired   []firing
	)
	// cancelShot cancels a random one-shot event; canceled records only
	// cancellations that came before the event ran.
	cancelShot := func() {
		if len(shots) == 0 {
			return
		}
		victim := shots[rng.Intn(len(shots))]
		if victim.runs == 0 {
			victim.canceled = true
		}
		victim.cancel()
	}
	// schedule adds a one-shot event; At assigns it the scheduler's next
	// seq, so the test knows its place in the total order up front.
	var schedule func()
	schedule = func() {
		e := &oneShot{}
		seq := s.seq
		t0 := s.Now() + Time(rng.Intn(12)) - 3 // some in the past: clamped
		if t0 < s.Now() {
			e.at = s.Now()
		} else {
			e.at = t0
		}
		fn := func() {
			e.runs++
			fired = append(fired, firing{s.Now(), seq})
			if s.Now() != e.at {
				t.Fatalf("seed %d: event seq %d ran at %d, scheduled for %d", seed, seq, s.Now(), e.at)
			}
			if rng.Intn(4) == 0 {
				schedule()
			}
			if rng.Intn(6) == 0 {
				cancelShot()
			}
		}
		if rng.Intn(2) == 0 {
			e.cancel = s.At(t0, fn)
		} else {
			e.cancel = s.After(t0-s.Now(), fn)
		}
		shots = append(shots, e)
	}
	addSeries := func() {
		k := len(series)
		stopped = append(stopped, false)
		// A firing's seq is the scheduler's seq when its series was
		// armed: at Every for the first one, right after the previous
		// firing's callback (which schedules nothing itself) for the rest.
		seq := s.seq
		series = append(series, s.Every(Time(rng.Intn(8)), Time(rng.Intn(6)+1), Time(rng.Intn(3)), func() {
			if stopped[k] {
				t.Fatalf("seed %d: series %d fired after it was stopped", seed, k)
			}
			fired = append(fired, firing{s.Now(), seq})
			seq = s.seq
		}))
	}
	for round := 0; round < 40; round++ {
		for ops := rng.Intn(5); ops > 0; ops-- {
			switch r := rng.Intn(10); {
			case r < 6:
				schedule()
			case r < 7:
				addSeries()
			case r < 9:
				cancelShot()
			default:
				if len(series) > 0 {
					k := rng.Intn(len(series))
					stopped[k] = true
					series[k]()
				}
			}
		}
		s.RunSteps(rng.Intn(10))
	}
	for k := range series {
		stopped[k] = true
		series[k]()
	}
	for s.Pending() > 0 {
		s.RunSteps(1000)
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if a.at > b.at || (a.at == b.at && a.seq >= b.seq) {
			t.Fatalf("seed %d: firing %d (at %d, seq %d) ran before (at %d, seq %d)", seed, i, a.at, a.seq, b.at, b.seq)
		}
	}
	for i, e := range shots {
		want := 1
		if e.canceled {
			want = 0
		}
		if e.runs != want {
			t.Fatalf("seed %d: one-shot %d (canceled %v) ran %d times, want %d", seed, i, e.canceled, e.runs, want)
		}
	}
}

// BenchmarkSchedulerAtStep measures one After plus one executed step on a
// queue holding about a thousand pending events.
func BenchmarkSchedulerAtStep(b *testing.B) {
	s := NewScheduler(1)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.After(Time(i*7919%1000), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(Time(i*7919%1000), fn)
		s.RunSteps(1)
	}
}
