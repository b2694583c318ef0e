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
}

// Pool is the dynamic counterpart of Run for long-running services:
// tasks arrive over time instead of as a fixed set. Every worker takes
// the oldest queued task from one FIFO ring, so tasks start in arrival
// order (service fairness — jobs age out in arrival order), each on the
// first worker that comes free.
type Pool struct {
	mu   sync.Mutex
	cond *sync.Cond
	// ring holds the queued tasks, the oldest at head. It grows with the
	// backlog, up to limit slots, so a large QueueLimit costs memory only
	// once a backlog that large has queued.
	ring    []func(int)
	head    int
	pending int
	limit   int
	closed  bool
	wg      sync.WaitGroup
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
	p := &Pool{limit: limit}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

// SubmitWorker queues a task that receives the index of the worker
// executing it, from 0 to the worker count minus one, which is what an
// observability layer wants to record. It never blocks: a backlog at
// QueueLimit returns ErrPoolFull (backpressure), a closed pool
// ErrPoolClosed.
func (p *Pool) SubmitWorker(task func(worker int)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	if p.pending == p.limit {
		return ErrPoolFull
	}
	if p.pending == len(p.ring) {
		p.grow()
	}
	p.ring[(p.head+p.pending)%len(p.ring)] = task
	p.pending++
	p.cond.Signal()
	return nil
}

// grow doubles the ring, up to the queue limit, keeping arrival order.
// Caller holds p.mu.
func (p *Pool) grow() {
	ring := make([]func(int), min(max(2*len(p.ring), 8), p.limit))
	for i := 0; i < p.pending; i++ {
		ring[i] = p.ring[(p.head+i)%len(p.ring)]
	}
	p.ring, p.head = ring, 0
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

// worker takes the oldest queued task, runs it, and sleeps on the
// condition variable until Submit or Close wakes it.
func (p *Pool) worker(self int) {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		if p.pending > 0 {
			task := p.ring[p.head]
			p.ring[p.head] = nil
			p.head = (p.head + 1) % len(p.ring)
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
