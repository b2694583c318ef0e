// Package event implements the discrete-event simulation kernel that
// drives every jvmgc simulation.
//
// A Sim owns a virtual clock and a priority queue of scheduled events.
// Components schedule handlers at future instants; Run repeatedly pops the
// earliest event, advances the clock to its timestamp and executes it.
// Executing an event may schedule or cancel further events. The kernel is
// strictly single-threaded: determinism matters more than parallel
// execution here, and every simulation in the laboratory completes in
// milliseconds to seconds of wall time.
//
// Ties (events at the same instant) fire in scheduling order, which keeps
// runs reproducible regardless of queue internals. SchedulePost places an
// event in a late band: at equal instants it fires after every normally
// scheduled event, which lets an experiment driver observe the simulation
// exactly as a sequential Run-to-deadline-then-inspect loop would, while
// living on the wheel itself, so a wheel and its driver can be stepped to
// completion on any goroutine without a caller in between.
//
// Steady-state stepping is allocation-free: fired and cancelled Event
// objects are recycled through a free list, and the priority queue is a
// concrete binary heap (no container/heap interface dispatch). The
// recycling imposes one contract on callers: an *Event handle is only
// valid until the event fires or is cancelled. Holders must drop their
// handle inside the handler (or immediately after observing Cancelled),
// because the kernel may hand the same object out again from a later
// Schedule. Every handler in the laboratory clears its registration as
// its first statement, which satisfies the contract.
package event

import (
	"fmt"

	"jvmgc/internal/simtime"
)

// Handler is a scheduled action. Fire runs with the simulation clock set
// to the scheduled instant.
//
// Handler is an interface rather than a func type so hot components can
// pre-bind their actions without a closure allocation per binding: a
// method on a pointer embedded in the component converts to a Handler
// for free. One-off actions wrap a function in Func.
type Handler interface {
	Fire()
}

// Func adapts a plain function to a Handler. Func values are
// pointer-shaped, so the interface conversion itself does not allocate.
type Func func()

// Fire invokes the function.
func (f Func) Fire() { f() }

// Event is a handle to a scheduled event. It can be used to cancel the
// event before it fires. Once the event fires or is cancelled the handle
// is dead: the kernel recycles the object and a subsequent Schedule may
// return it again.
type Event struct {
	at      simtime.Time
	seq     uint64
	index   int // heap index, -1 once removed
	handler Handler
}

// postBand is OR-ed into the sequence number of events scheduled with
// SchedulePost. The heap orders ties by seq, so the high bit pushes a
// post-band event after every normal event at the same instant while
// preserving scheduling order within the band. The plain counter would
// need 2^63 schedules to collide with it.
const postBand = uint64(1) << 63

// Cancelled reports whether the event has been cancelled or has already
// fired.
func (e *Event) Cancelled() bool { return e.index < 0 }

// Sim is a discrete-event simulator. The zero value is ready to use.
type Sim struct {
	now    simtime.Time
	queue  []*Event
	free   []*Event
	seq    uint64
	fired  uint64
	halted bool
}

// New returns a simulator with its clock at zero.
func New() *Sim {
	// Pre-size the heap and free list for the common steady state (a JVM
	// keeps a handful of events in flight); short-lived sims in experiment
	// sweeps then never regrow either slice. Both live in one backing
	// array — an append past either cap reallocates just that slice.
	backing := make([]*Event, 16)
	return &Sim{
		queue: backing[0:0:8],
		free:  backing[8:8:16],
	}
}

// Now returns the current simulated instant.
func (s *Sim) Now() simtime.Time { return s.now }

// Schedule registers h to run at instant at. Scheduling in the past
// (before Now) panics: that is always a simulation bug, and silently
// reordering time would corrupt results. The returned handle is valid
// only until the event fires or is cancelled.
func (s *Sim) Schedule(at simtime.Time, h Handler) *Event {
	return s.schedule(at, h, 0)
}

// SchedulePost registers h to run at instant at, in the post band: among
// events at the same instant it fires after every normally scheduled
// event (and post events keep scheduling order among themselves).
// Experiment drivers mounted on the wheel use this so their
// inspect-and-react logic observes the simulation exactly as a
// Run(deadline)-then-inspect loop outside the wheel would.
func (s *Sim) SchedulePost(at simtime.Time, h Handler) *Event {
	return s.schedule(at, h, postBand)
}

// schedule is the common Schedule/SchedulePost path.
func (s *Sim) schedule(at simtime.Time, h Handler, band uint64) *Event {
	if at < s.now {
		panic(fmt.Sprintf("event: schedule at %v before now %v", at, s.now))
	}
	if h == nil {
		panic("event: schedule with nil handler")
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		// Allocate events in small batches: one backing array serves the
		// next few schedules, so a fresh sim reaches its steady-state pool
		// in one allocation instead of one per event.
		batch := make([]Event, 4)
		for i := range batch[1:] {
			s.free = append(s.free, &batch[1+i])
		}
		e = &batch[0]
	}
	e.at = at
	e.seq = s.seq | band
	e.handler = h
	s.seq++
	s.push(e)
	return e
}

// Cancel removes a scheduled event and recycles it. Cancelling an event
// that already fired or was already cancelled is a no-op.
func (s *Sim) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	s.remove(e.index)
	e.index = -1
	e.handler = nil
	s.free = append(s.free, e)
}

// Halt stops the run loop after the current event completes. Pending
// events remain queued.
func (s *Sim) Halt() { s.halted = true }

// Step executes the single earliest pending event, advancing the clock.
// It reports whether an event was executed. The fired event is recycled
// after its handler returns, so a handle checked immediately after Step
// still reads as cancelled; holding it across further scheduling is the
// caller's bug (see the package comment).
func (s *Sim) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.pop()
	e.index = -1
	s.now = e.at
	h := e.handler
	e.handler = nil
	s.fired++
	h.Fire()
	s.free = append(s.free, e)
	return true
}

// Run executes events until the queue is empty, Halt is called, or the
// next event lies strictly after deadline. On return the clock is at the
// last executed event (or, if the deadline cut the run short, advanced to
// the deadline). It returns the number of events executed.
func (s *Sim) Run(deadline simtime.Time) uint64 {
	s.halted = false
	start := s.fired
	for !s.halted {
		if len(s.queue) == 0 {
			// A bounded run advances the clock to its deadline even when
			// no events remain; an unbounded RunAll stays at the last
			// event.
			if deadline != simtime.MaxTime && deadline > s.now {
				s.now = deadline
			}
			break
		}
		if s.queue[0].at > deadline {
			if deadline > s.now {
				s.now = deadline
			}
			break
		}
		s.Step()
	}
	return s.fired - start
}

// RunAll executes events until the queue is empty or Halt is called.
// It returns the number of events executed.
func (s *Sim) RunAll() uint64 { return s.Run(simtime.MaxTime) }

// The queue is a binary min-heap on (at, seq). seq is unique per event, so
// the order is total and pop order is independent of heap internals.

// less orders queue entries i and j.
func (s *Sim) less(i, j int) bool {
	a, b := s.queue[i], s.queue[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// swap exchanges queue entries i and j, maintaining their heap indices.
func (s *Sim) swap(i, j int) {
	q := s.queue
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

// push appends e and restores the heap property.
func (s *Sim) push(e *Event) {
	e.index = len(s.queue)
	s.queue = append(s.queue, e)
	s.up(e.index)
}

// pop removes and returns the minimum entry.
func (s *Sim) pop() *Event {
	n := len(s.queue) - 1
	s.swap(0, n)
	s.down(0, n)
	e := s.queue[n]
	s.queue[n] = nil
	s.queue = s.queue[:n]
	return e
}

// remove deletes the entry at index i.
func (s *Sim) remove(i int) {
	n := len(s.queue) - 1
	if n != i {
		s.swap(i, n)
		if !s.down(i, n) {
			s.up(i)
		}
	}
	s.queue[n] = nil
	s.queue = s.queue[:n]
}

// up sifts entry j toward the root.
func (s *Sim) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !s.less(j, i) {
			break
		}
		s.swap(i, j)
		j = i
	}
}

// down sifts entry i0 toward the leaves within queue[:n]. It reports
// whether the entry moved.
func (s *Sim) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s.less(j2, j1) {
			j = j2 // right child
		}
		if !s.less(j, i) {
			break
		}
		s.swap(i, j)
		i = j
	}
	return i > i0
}
