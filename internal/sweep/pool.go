package sweep

import (
	"errors"
	"runtime"
	"sync"
)

// Pool errors surfaced to submitters.
var (
	// ErrPoolFull reports backpressure: the queued backlog is at its
	// configured bound.
	ErrPoolFull = errors.New("sweep: pool queue full")
	// ErrPoolClosed reports a pool that has stopped accepting work.
	ErrPoolClosed = errors.New("sweep: pool closed")
)

// PoolOptions configures a dynamic pool.
type PoolOptions struct {
	// Workers is the number of executor goroutines (<= 0 selects
	// GOMAXPROCS).
	Workers int
	// QueueLimit bounds the queued (not yet running) backlog; Submit
	// returns ErrPoolFull beyond it. Values <= 0 select 64.
	QueueLimit int
	// Seed drives victim selection when an idle worker steals.
	Seed uint64
}

// Pool is the dynamic counterpart of Run for long-running services:
// tasks arrive over time instead of as a fixed set. Submissions are
// dealt round-robin across per-worker deques; an owner drains its own
// deque in FIFO order (service fairness — jobs age out in arrival
// order), and an idle worker steals the newest task from the back of a
// seeded victim's deque, so a burst landing on one deque spreads to
// whoever is free instead of waiting behind a long job.
//
// Like Run, the stealing changes who executes a task, never its
// result: labd jobs are deterministic in their spec, and completion
// delivery is per-job.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	deques  []poolDeque
	next    int // round-robin deal pointer
	pending int
	limit   int
	closed  bool
	wg      sync.WaitGroup
}

// poolDeque is one worker's dynamic queue: owner pops the front
// (oldest), thieves pop the back (newest). The pool's single mutex
// guards it; service jobs are seconds-long, so queue ops are noise.
type poolDeque struct {
	buf  []func(int)
	head int
}

func (d *poolDeque) push(t func(int)) { d.buf = append(d.buf, t) }

func (d *poolDeque) popFront() (func(int), bool) {
	if d.head >= len(d.buf) {
		return nil, false
	}
	t := d.buf[d.head]
	d.buf[d.head] = nil
	d.head++
	if d.head == len(d.buf) {
		d.buf = d.buf[:0]
		d.head = 0
	}
	return t, true
}

func (d *poolDeque) popBack() (func(int), bool) {
	if d.head >= len(d.buf) {
		return nil, false
	}
	t := d.buf[len(d.buf)-1]
	d.buf[len(d.buf)-1] = nil
	d.buf = d.buf[:len(d.buf)-1]
	return t, true
}

// NewPool builds a pool and starts its workers.
func NewPool(opts PoolOptions) *Pool {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	limit := opts.QueueLimit
	if limit <= 0 {
		limit = 64
	}
	p := &Pool{
		deques: make([]poolDeque, workers),
		limit:  limit,
	}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker(w, stealRng{state: splitmix64(opts.Seed + uint64(w) + 1)})
	}
	return p
}

// SubmitWorker queues a task that receives the index of the worker
// executing it, from 0 to the worker count minus one. Because of
// stealing, the executor may not be the worker the task was dealt to —
// the index identifies who actually ran it, which is what an
// observability layer wants to record. It never blocks: a backlog at
// QueueLimit returns ErrPoolFull (backpressure), a closed pool
// ErrPoolClosed.
func (p *Pool) SubmitWorker(task func(worker int)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	if p.pending >= p.limit {
		return ErrPoolFull
	}
	p.deques[p.next].push(task)
	p.next = (p.next + 1) % len(p.deques)
	p.pending++
	p.cond.Signal()
	return nil
}

// Pending returns the number of queued tasks not yet claimed by a
// worker (running tasks are not counted).
func (p *Pool) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}

// Close stops intake. Workers finish every queued task, then exit; it
// is idempotent and returns without waiting (see Wait).
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Wait blocks until all workers have exited — i.e. after Close, once
// the backlog has drained and running tasks returned.
func (p *Pool) Wait() { p.wg.Wait() }

// worker drains its own deque in FIFO order, steals when dry, and
// sleeps on the condition variable until Submit or Close wakes it.
func (p *Pool) worker(self int, rng stealRng) {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		task, ok := p.deques[self].popFront()
		if !ok {
			task, ok = p.stealLocked(self, &rng)
		}
		if ok {
			p.pending--
			p.mu.Unlock()
			task(self)
			p.mu.Lock()
			continue
		}
		if p.closed {
			break
		}
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// stealLocked scans the other deques in a seeded rotation and takes
// the newest task from the first victim with a backlog. Caller holds
// p.mu.
func (p *Pool) stealLocked(self int, rng *stealRng) (func(int), bool) {
	w := len(p.deques)
	if w == 1 {
		return nil, false
	}
	start := int(rng.next() % uint64(w))
	for k := 0; k < w; k++ {
		victim := (start + k) % w
		if victim == self {
			continue
		}
		if t, ok := p.deques[victim].popBack(); ok {
			return t, true
		}
	}
	return nil, false
}
