package event

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"jvmgc/internal/simtime"
	"jvmgc/internal/xrand"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.ScheduleFunc(3*simtime.Time(simtime.Second), func() { order = append(order, 3) })
	s.ScheduleFunc(1*simtime.Time(simtime.Second), func() { order = append(order, 1) })
	s.ScheduleFunc(2*simtime.Time(simtime.Second), func() { order = append(order, 2) })
	if n := s.RunAll(); n != 3 {
		t.Fatalf("executed %d events, want 3", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
	if s.Now() != 3*simtime.Time(simtime.Second) {
		t.Errorf("clock = %v", s.Now())
	}
}

func TestTiesFireInSchedulingOrder(t *testing.T) {
	s := New()
	var order []int
	at := simtime.Time(simtime.Second)
	for i := 0; i < 10; i++ {
		i := i
		s.ScheduleFunc(at, func() { order = append(order, i) })
	}
	s.RunAll()
	if !sort.IntsAreSorted(order) {
		t.Errorf("tied events fired out of scheduling order: %v", order)
	}
}

func TestClockAdvancesOnlyOnExecution(t *testing.T) {
	s := New()
	s.ScheduleFunc(simtime.Time(5*simtime.Second), func() {})
	if s.Now() != 0 {
		t.Errorf("clock moved on schedule: %v", s.Now())
	}
	s.Step()
	if s.Now() != simtime.Time(5*simtime.Second) {
		t.Errorf("clock = %v after step", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.ScheduleFunc(simtime.Time(simtime.Second), func() {})
	s.RunAll()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.ScheduleFunc(0, func() {})
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New().ScheduleFunc(0, nil)
}

func TestAfterNegativeClamps(t *testing.T) {
	s := New()
	fired := false
	s.AfterFunc(-simtime.Second, func() { fired = true })
	s.RunAll()
	if !fired {
		t.Error("negative After never fired")
	}
	if s.Now() != 0 {
		t.Errorf("clock = %v", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.ScheduleFunc(simtime.Time(simtime.Second), func() { fired = true })
	s.Cancel(e)
	if !e.Cancelled() {
		t.Error("event not marked cancelled")
	}
	s.RunAll()
	if fired {
		t.Error("cancelled event fired")
	}
	// Cancelling again, or cancelling nil, must be harmless.
	s.Cancel(e)
	s.Cancel(nil)
}

func TestCancelMiddleOfQueue(t *testing.T) {
	s := New()
	var order []int
	var events []*Event
	for i := 0; i < 20; i++ {
		i := i
		events = append(events, s.ScheduleFunc(simtime.Time(i)*simtime.Time(simtime.Second), func() {
			order = append(order, i)
		}))
	}
	for i := 0; i < 20; i += 2 {
		s.Cancel(events[i])
	}
	s.RunAll()
	want := []int{1, 3, 5, 7, 9, 11, 13, 15, 17, 19}
	if len(order) != len(want) {
		t.Fatalf("fired %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestEventsScheduledDuringExecution(t *testing.T) {
	s := New()
	var order []string
	s.ScheduleFunc(simtime.Time(simtime.Second), func() {
		order = append(order, "a")
		s.AfterFunc(simtime.Second, func() { order = append(order, "b") })
		s.AfterFunc(0, func() { order = append(order, "a2") })
	})
	s.RunAll()
	if len(order) != 3 || order[0] != "a" || order[1] != "a2" || order[2] != "b" {
		t.Errorf("order = %v", order)
	}
}

func TestRunDeadline(t *testing.T) {
	s := New()
	fired := 0
	for i := 1; i <= 10; i++ {
		s.ScheduleFunc(simtime.Time(i)*simtime.Time(simtime.Second), func() { fired++ })
	}
	n := s.Run(simtime.Time(5*simtime.Second + simtime.Millisecond))
	if n != 5 || fired != 5 {
		t.Errorf("executed %d/%d events", n, fired)
	}
	if s.Now() != simtime.Time(5*simtime.Second+simtime.Millisecond) {
		t.Errorf("clock = %v, want deadline", s.Now())
	}
	if s.Pending() != 5 {
		t.Errorf("pending = %d", s.Pending())
	}
	// Resuming past the deadline picks the remaining events up.
	s.RunAll()
	if fired != 10 {
		t.Errorf("after resume fired = %d", fired)
	}
}

func TestHalt(t *testing.T) {
	s := New()
	fired := 0
	for i := 1; i <= 10; i++ {
		s.ScheduleFunc(simtime.Time(i)*simtime.Time(simtime.Second), func() {
			fired++
			if fired == 3 {
				s.Halt()
			}
		})
	}
	s.RunAll()
	if fired != 3 {
		t.Errorf("fired = %d, want 3 after Halt", fired)
	}
	// A subsequent run resumes.
	s.RunAll()
	if fired != 10 {
		t.Errorf("fired = %d after resume", fired)
	}
}

// TestHaltStopsRun pins driver-controlled completion: a driver that
// halts its wheel ends Run at the halting event, with the clock parked
// there and the rest of the queue left pending, although the deadline
// lies further out.
func TestHaltStopsRun(t *testing.T) {
	s := New()
	stop := 2 * simtime.Time(simtime.Second)
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		if s.Now() >= stop {
			s.Halt()
		}
		s.AfterFunc(simtime.Second, tick)
	}
	s.AfterFunc(simtime.Second, tick)
	s.Run(10 * simtime.Time(simtime.Second))
	if ticks != 2 {
		t.Errorf("halted wheel ticked %d times, want 2", ticks)
	}
	if s.Now() != stop {
		t.Errorf("halted wheel clock = %v, want %v", s.Now(), stop)
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want the one tick scheduled before the halt", s.Pending())
	}
}

func TestFiredCounter(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.AfterFunc(simtime.Duration(i), func() {})
	}
	s.RunAll()
	if s.Fired() != 5 {
		t.Errorf("Fired = %d", s.Fired())
	}
}

func TestStepOnEmptyQueue(t *testing.T) {
	s := New()
	if s.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestPoolRecyclesFiredEvents(t *testing.T) {
	s := New()
	e1 := s.ScheduleFunc(simtime.Time(simtime.Second), func() {})
	s.RunAll()
	// The first Schedule seeded the free list with a batch; the fired
	// event lands on top of the remaining spares.
	free := s.PoolSize()
	if free < 1 {
		t.Fatalf("pool size = %d after fire, want >= 1", free)
	}
	e2 := s.ScheduleFunc(simtime.Time(2*simtime.Second), func() {})
	if e1 != e2 {
		t.Error("fired event was not recycled by the next Schedule")
	}
	if s.PoolSize() != free-1 {
		t.Errorf("pool size = %d after reuse, want %d", s.PoolSize(), free-1)
	}
}

func TestPoolRecyclesCancelledEvents(t *testing.T) {
	s := New()
	e := s.ScheduleFunc(simtime.Time(simtime.Second), func() {})
	s.Cancel(e)
	if s.PoolSize() < 1 {
		t.Fatalf("pool size = %d after cancel, want >= 1", s.PoolSize())
	}
	fired := false
	e2 := s.ScheduleFunc(simtime.Time(simtime.Second), func() { fired = true })
	if e2 != e {
		t.Error("cancelled event was not recycled")
	}
	if e2.Cancelled() {
		t.Error("recycled event reads as cancelled before firing")
	}
	s.RunAll()
	if !fired {
		t.Error("rescheduled recycled event never fired")
	}
}

// TestPoolRescheduleLoop exercises the steady-state schedule/fire/cancel
// churn of a simulation: a self-rescheduling tick plus a repeatedly
// cancelled-and-rearmed event, the jvm package's two usage patterns. The
// pool must stay bounded and the tick order exact.
func TestPoolRescheduleLoop(t *testing.T) {
	s := New()
	var ticks []simtime.Time
	var tick func()
	tick = func() {
		ticks = append(ticks, s.Now())
		if len(ticks) < 100 {
			s.AfterFunc(simtime.Second, tick)
		}
	}
	s.AfterFunc(simtime.Second, tick)

	var armed *Event
	rearm := func() {
		s.Cancel(armed)
		armed = s.ScheduleFunc(s.Now().Add(10*simtime.Second), func() {
			t.Error("rearmed event fired despite constant cancellation")
		})
	}
	for i := 0; i < 50; i++ {
		rearm()
	}
	s.Run(simtime.Time(5 * simtime.Second))
	for i := 0; i < 50; i++ {
		rearm()
	}
	s.Cancel(armed)
	s.RunAll()

	if len(ticks) != 100 {
		t.Fatalf("ticks = %d, want 100", len(ticks))
	}
	for i, at := range ticks {
		if at != simtime.Time(i+1)*simtime.Time(simtime.Second) {
			t.Fatalf("tick %d at %v", i, at)
		}
	}
	// One live object per concurrently pending event plus batch spares, no
	// leak beyond: schedule/fire/cancel churn must recycle, not allocate.
	if s.PoolSize() > 8 {
		t.Errorf("pool grew to %d objects, want <= 8", s.PoolSize())
	}
}

// TestTieOrderUnderRecycling pins the (at, seq) contract across pooling:
// recycled Event objects must fire in scheduling order when tied, exactly
// like fresh ones.
func TestTieOrderUnderRecycling(t *testing.T) {
	s := New()
	// Load and drain the pool so subsequent schedules reuse objects.
	for i := 0; i < 8; i++ {
		s.ScheduleFunc(0, func() {})
	}
	s.RunAll()
	if s.PoolSize() < 8 {
		t.Fatalf("pool size = %d, want >= 8", s.PoolSize())
	}
	var order []int
	at := simtime.Time(simtime.Second)
	for i := 0; i < 8; i++ {
		i := i
		s.ScheduleFunc(at, func() { order = append(order, i) })
	}
	// Interleave cancels to shuffle heap internals.
	e := s.ScheduleFunc(at, func() { t.Error("cancelled event fired") })
	s.Cancel(e)
	for i := 8; i < 12; i++ {
		i := i
		s.ScheduleFunc(at, func() { order = append(order, i) })
	}
	s.RunAll()
	if !sort.IntsAreSorted(order) || len(order) != 12 {
		t.Errorf("tied recycled events fired out of order: %v", order)
	}
}

// TestSteadyStateSteppingAllocationFree proves the tentpole property: once
// the pool is warm, the schedule/fire cycle performs zero heap
// allocations.
func TestSteadyStateSteppingAllocationFree(t *testing.T) {
	s := New()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 20000 {
			s.AfterFunc(simtime.Millisecond, tick)
		}
	}
	s.AfterFunc(simtime.Millisecond, tick)
	s.Run(simtime.Time(simtime.Second)) // warm the pool and queue

	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 50; i++ {
			s.Step()
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state stepping allocates %.1f objects per run, want 0", allocs)
	}
}

func BenchmarkScheduleFire(b *testing.B) {
	s := New()
	var tick func()
	tick = func() { s.AfterFunc(simtime.Microsecond, tick) }
	s.AfterFunc(simtime.Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkScheduleCancel measures the rearm pattern (scheduleEden's
// cancel-and-reschedule on every collection).
func BenchmarkScheduleCancel(b *testing.B) {
	s := New()
	h := func() {}
	// A background population keeps the heap non-trivial.
	for i := 0; i < 64; i++ {
		s.ScheduleFunc(simtime.Time(i)*simtime.Time(simtime.Second), h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var e *Event
	for i := 0; i < b.N; i++ {
		s.Cancel(e)
		e = s.ScheduleFunc(simtime.Time(simtime.Hour), h)
	}
}

func TestQuickRandomScheduleFiresSorted(t *testing.T) {
	f := func(seed uint64, raw []uint16) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		s := New()
		r := xrand.New(seed)
		var fired []simtime.Time
		for range raw {
			at := simtime.Time(r.Uint64n(1000)) * simtime.Time(simtime.Millisecond)
			s.ScheduleFunc(at, func() { fired = append(fired, s.Now()) })
		}
		s.RunAll()
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPostBandFiresAfterTies mirrors TestTiesFireInSchedulingOrder for
// the post band: at one instant, every normally scheduled event
// fires before every post-band event regardless of scheduling
// interleaving, and each band keeps scheduling order internally.
func TestPostBandFiresAfterTies(t *testing.T) {
	s := New()
	var order []int
	at := simtime.Time(simtime.Second)
	// Interleave the bands while scheduling: posts get ids >= 100.
	for i := 0; i < 6; i++ {
		i := i
		s.SchedulePostFunc(at, func() { order = append(order, 100+i) })
		s.ScheduleFunc(at, func() { order = append(order, i) })
	}
	s.RunAll()
	want := []int{0, 1, 2, 3, 4, 5, 100, 101, 102, 103, 104, 105}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("band order = %v, want %v", order, want)
	}
}

// TestPostBandOrdersAcrossInstants pins that the band only breaks ties:
// a post event at an earlier instant still fires before a normal event
// at a later one.
func TestPostBandOrdersAcrossInstants(t *testing.T) {
	s := New()
	var order []int
	s.ScheduleFunc(2*simtime.Time(simtime.Second), func() { order = append(order, 2) })
	s.SchedulePostFunc(simtime.Time(simtime.Second), func() { order = append(order, 1) })
	s.RunAll()
	if !sort.IntsAreSorted(order) || len(order) != 2 {
		t.Errorf("order = %v", order)
	}
}

// TestPostBandSeesSameInstantWork pins the driver contract the cassandra
// node relies on: a post event at T observes every effect of normal
// events at T, and normal events it schedules at T still run (right
// after it, exactly like a Run(T)-then-inspect driver scheduling work).
func TestPostBandSeesSameInstantWork(t *testing.T) {
	s := New()
	at := simtime.Time(simtime.Second)
	fired := 0
	var sawAtPost int
	s.SchedulePostFunc(at, func() {
		sawAtPost = fired
		s.ScheduleFunc(at, func() { fired++ }) // reactively scheduled work
	})
	s.ScheduleFunc(at, func() { fired++ })
	s.ScheduleFunc(at, func() { fired++ })
	s.RunAll()
	if sawAtPost != 2 {
		t.Errorf("post handler saw %d fired events, want 2", sawAtPost)
	}
	if fired != 3 {
		t.Errorf("reactively scheduled same-instant event did not run: fired = %d", fired)
	}
}

// TestPostBandRecyclingKeepsSeqUnique pins that the band bit never leaks
// into the pool: a recycled post event rescheduled normally must order
// like a normal event.
func TestPostBandRecyclingKeepsSeqUnique(t *testing.T) {
	s := New()
	s.SchedulePostFunc(0, func() {})
	s.RunAll() // recycles the post event object
	var order []int
	at := simtime.Time(simtime.Second)
	s.SchedulePostFunc(at, func() { order = append(order, 2) })
	s.ScheduleFunc(at, func() { order = append(order, 1) }) // likely the recycled object
	s.RunAll()
	if !sort.IntsAreSorted(order) || len(order) != 2 {
		t.Errorf("recycled post object broke band order: %v", order)
	}
}

// AfterFunc is After for a plain function.
func (s *Sim) AfterFunc(d simtime.Duration, f func()) *Event {
	if f == nil {
		panic("event: schedule with nil handler")
	}
	return s.After(d, Func(f))
}

// SchedulePostFunc is SchedulePost for a plain function.
func (s *Sim) SchedulePostFunc(at simtime.Time, f func()) *Event {
	if f == nil {
		panic("event: schedule with nil handler")
	}
	return s.schedule(at, Func(f), postBand)
}

// Fired returns the number of events executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Pending returns the number of events currently scheduled.
func (s *Sim) Pending() int { return len(s.queue) }

// PoolSize returns the number of recycled Event objects currently waiting
// for reuse.
func (s *Sim) PoolSize() int { return len(s.free) }

// ScheduleFunc is Schedule for a plain function.
func (s *Sim) ScheduleFunc(at simtime.Time, f func()) *Event {
	if f == nil {
		panic("event: schedule with nil handler")
	}
	return s.Schedule(at, Func(f))
}

// After schedules h to run d after the current instant. Negative d is
// treated as zero.
func (s *Sim) After(d simtime.Duration, h Handler) *Event {
	if d < 0 {
		d = 0
	}
	return s.Schedule(s.now.Add(d), h)
}
