package sweep

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunAll checks every index runs exactly once across worker
// counts, with and without a cost model.
func TestRunAll(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, cost := range []func(int) float64{nil, func(i int) float64 { return float64(i % 3) }} {
			n := 37
			var counts [37]int32
			err := Run(Options{Workers: workers, Cost: cost}, n, func(i int) error {
				atomic.AddInt32(&counts[i], 1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d: task %d ran %d times", workers, i, c)
				}
			}
		}
	}
}

// TestRunZero covers the empty sweep.
func TestRunZero(t *testing.T) {
	if err := Run(Options{Workers: 4}, 0, func(int) error { return errors.New("ran") }); err != nil {
		t.Fatal(err)
	}
}

// TestRunErrorSelection requires the FIRST error in index order even
// when a later-index error completes earlier.
func TestRunErrorSelection(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, workers := range []int{2, 4, 16} {
		err := Run(Options{Workers: workers}, 20, func(i int) error {
			switch i {
			case 17:
				return errHigh // fails fast
			case 3:
				time.Sleep(5 * time.Millisecond) // fails late
				return errLow
			}
			return nil
		})
		if err != errLow {
			t.Fatalf("workers=%d: got %v, want index-3 error", workers, err)
		}
	}
}

// TestRunSerialEarlyStop pins the single-worker contract: tasks run
// sequentially in schedule order and the first error stops the sweep.
func TestRunSerialEarlyStop(t *testing.T) {
	var ran []int
	boom := errors.New("boom")
	err := Run(Options{Workers: 1}, 10, func(i int) error {
		ran = append(ran, i)
		if i == 4 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("got %v, want boom", err)
	}
	want := []int{0, 1, 2, 3, 4}
	if fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Fatalf("serial order = %v, want %v", ran, want)
	}
}

// TestScheduleOrder checks the longest-expected-first order with stable
// index tie-breaks.
func TestScheduleOrder(t *testing.T) {
	costs := []float64{1, 5, 3, 5, 2}
	order := schedule(len(costs), func(i int) float64 { return costs[i] })
	want := []int{1, 3, 2, 4, 0}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("schedule = %v, want %v", order, want)
	}
	if got := schedule(3, nil); fmt.Sprint(got) != fmt.Sprint([]int{0, 1, 2}) {
		t.Fatalf("nil-cost schedule = %v, want index order", got)
	}
}

// TestRunOutputIdentity runs the same sweep at worker counts 1, 4 and
// 16 and requires identical result bytes — the guarantee the rendered
// paper tables rely on.
func TestRunOutputIdentity(t *testing.T) {
	render := func(workers int) string {
		results := make([]string, 24)
		err := Run(Options{Workers: workers, Cost: func(i int) float64 {
			return float64((i * 7) % 5)
		}}, len(results), func(i int) error {
			results[i] = fmt.Sprintf("cell %d -> %d", i, i*i)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(results)
	}
	base := render(1)
	for _, workers := range []int{4, 16} {
		if got := render(workers); got != base {
			t.Fatalf("workers=%d output differs from serial:\n%s\n%s", workers, got, base)
		}
	}
}

// TestRunLongTaskHoldsOneWorker pins the shared queue: with two
// workers, one pinned by a long task, the other worker takes every
// other task as it comes free.
func TestRunLongTaskHoldsOneWorker(t *testing.T) {
	block := make(chan struct{})
	var others int32
	err := Run(Options{Workers: 2}, 10, func(i int) error {
		if i == 0 {
			select {
			case <-block:
				return nil
			case <-time.After(10 * time.Second):
				return errors.New("the free worker did not run the other nine tasks")
			}
		}
		if atomic.AddInt32(&others, 1) == 9 {
			close(block) // all nine other tasks done; release task 0
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPoolRunsAll submits tasks and waits for all to execute.
func TestPoolRunsAll(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 4, QueueLimit: 64})
	var ran int32
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		if err := p.Submit(func() {
			atomic.AddInt32(&ran, 1)
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if ran != 40 {
		t.Fatalf("ran %d tasks, want 40", ran)
	}
	p.Close()
	p.Wait()
}

// TestPoolSubmitWorker checks that worker-aware tasks receive the index
// of the worker that actually executed them — every index in range, and
// with more tasks than workers, more than one worker observed.
func TestPoolSubmitWorker(t *testing.T) {
	const workers = 4
	p := NewPool(PoolOptions{Workers: workers, QueueLimit: 256})
	var mu sync.Mutex
	seen := map[int]int{}
	release := make(chan struct{})
	var started, wg sync.WaitGroup
	// One blocking task per worker forces every worker to execute
	// something concurrently, so all indices are observed.
	started.Add(workers)
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		if err := p.SubmitWorker(func(w int) {
			mu.Lock()
			seen[w]++
			mu.Unlock()
			started.Done()
			<-release
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	started.Wait()
	close(release)
	wg.Wait()
	p.Close()
	p.Wait()
	if len(seen) != workers {
		t.Fatalf("saw %d distinct worker indices, want %d (%v)", len(seen), workers, seen)
	}
	for w := range seen {
		if w < 0 || w >= workers {
			t.Fatalf("worker index %d out of range [0,%d)", w, workers)
		}
	}
}

// TestPoolBackpressure fills the pool past its queue limit and expects
// ErrPoolFull, with Pending counting only queued (unclaimed) tasks.
func TestPoolBackpressure(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 2, QueueLimit: 3})
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(2)
	// Two tasks occupy both workers...
	for i := 0; i < 2; i++ {
		if err := p.Submit(func() { started.Done(); <-release }); err != nil {
			t.Fatal(err)
		}
	}
	started.Wait()
	// ...three more fill the queue...
	for i := 0; i < 3; i++ {
		if err := p.Submit(func() {}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if got := p.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	// ...and the next submission bounces.
	if err := p.Submit(func() {}); err != ErrPoolFull {
		t.Fatalf("got %v, want ErrPoolFull", err)
	}
	close(release)
	p.Close()
	p.Wait()
	if err := p.Submit(func() {}); err != ErrPoolClosed {
		t.Fatalf("post-close submit: got %v, want ErrPoolClosed", err)
	}
}

// TestPoolCloseDrains requires Close/Wait to run every queued task
// before the workers exit, in arrival order: ten tasks queued behind a
// blocked worker wrap the ring and grow it.
func TestPoolCloseDrains(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueLimit: 64})
	started, gate := make(chan struct{}), make(chan struct{})
	var ran []int
	if err := p.Submit(func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started // the ring's head has moved past the blocked task
	for i := 0; i < 10; i++ {
		i := i
		if err := p.Submit(func() { ran = append(ran, i) }); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	close(gate)
	p.Wait()
	if fmt.Sprint(ran) != "[0 1 2 3 4 5 6 7 8 9]" {
		t.Fatalf("drain ran %v, want the ten queued tasks in arrival order", ran)
	}
}

// TestPoolStartsInArrivalOrder pins both workers, queues six tasks and
// frees one worker: it must run all six in the order they arrived,
// while the other worker stays pinned.
func TestPoolStartsInArrivalOrder(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 2, QueueLimit: 64})
	release := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	pinnedOn := make(chan [2]int, 2) // {pin, worker}
	for k := 0; k < 2; k++ {
		k := k
		if err := p.SubmitWorker(func(w int) { pinnedOn <- [2]int{k, w}; <-release[k] }); err != nil {
			t.Fatal(err)
		}
	}
	var worker [2]int
	for k := 0; k < 2; k++ {
		pin := <-pinnedOn
		worker[pin[0]] = pin[1]
	}
	var mu sync.Mutex
	var order, ranOn []int
	var done sync.WaitGroup
	done.Add(6)
	for i := 1; i <= 6; i++ {
		i := i
		if err := p.SubmitWorker(func(w int) {
			mu.Lock()
			order = append(order, i)
			ranOn = append(ranOn, w)
			mu.Unlock()
			done.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(release[0])
	done.Wait()
	close(release[1])
	p.Close()
	p.Wait()
	if fmt.Sprint(order) != "[1 2 3 4 5 6]" {
		t.Errorf("start order = %v, want arrival order [1 2 3 4 5 6]", order)
	}
	for k, w := range ranOn {
		if w != worker[0] {
			t.Errorf("task %d ran on worker %d, want the freed worker %d", order[k], w, worker[0])
		}
	}
}

// TestPoolSubmitConcurrent hammers Submit from many goroutines while
// workers drain, for the -race run in ci.sh.
func TestPoolSubmitConcurrent(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 4, QueueLimit: 1 << 16})
	var ran, submitted int32
	var submitters, tasks sync.WaitGroup
	for g := 0; g < 8; g++ {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			for i := 0; i < 200; i++ {
				tasks.Add(1)
				if err := p.Submit(func() { atomic.AddInt32(&ran, 1); tasks.Done() }); err != nil {
					tasks.Done()
					continue
				}
				atomic.AddInt32(&submitted, 1)
			}
		}()
	}
	submitters.Wait()
	tasks.Wait()
	p.Close()
	p.Wait()
	if ran < submitted {
		t.Fatalf("ran %d of %d accepted tasks", ran, submitted)
	}
}

// imbalancedCosts is the skewed 6-collector profile the benchmark and
// the speedup test share: a sweep of 18 experiments where the cheap
// stop-the-world collectors dominate the count and the concurrent
// collectors (CMS-like 2u and 4u entries, one G1-like 12u straggler)
// sit at the END of the natural submission order — the FIFO pool's
// worst case, since the straggler starts last.
var imbalancedCosts = []float64{
	1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, // Serial/ParNew/Parallel-class runs
	2, 2, 2, // CMS-class runs
	4, 4, 12, // G1-class runs, one dominant heap
}

// runImbalanced executes the profile with simulated task durations
// (sleeps, so the scheduling policy — not single-core CPU contention —
// determines the makespan) and returns the wall-clock time.
func runImbalanced(t testing.TB, unit time.Duration, run func(n int, fn func(i int) error) error) time.Duration {
	start := time.Now()
	err := run(len(imbalancedCosts), func(i int) error {
		time.Sleep(time.Duration(imbalancedCosts[i]) * unit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// fifoRun replicates the pool this package replaced: a fixed worker
// set pulling indices from a shared channel in submission order.
func fifoRun(workers int) func(n int, fn func(i int) error) error {
	return func(n int, fn func(i int) error) error {
		errs := make([]error, n)
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					errs[i] = fn(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// sweepRun is the same profile on Run with the cost model enabled.
func sweepRun(workers int) func(n int, fn func(i int) error) error {
	return func(n int, fn func(i int) error) error {
		return Run(Options{Workers: workers, Cost: func(i int) float64 {
			return imbalancedCosts[i]
		}}, n, fn)
	}
}

// virtualMakespan runs the profile under run on a virtual clock and
// returns its makespan in cost units. Each task blocks until the test
// releases it at its virtual end time. The test releases the earliest
// end first, and only once every free worker has started its next task,
// so the makespan depends on the scheduling policy alone: neither host
// load nor sleep jitter can move it.
func virtualMakespan(t *testing.T, workers int, run func(n int, fn func(i int) error) error) float64 {
	t.Helper()
	type started struct {
		end     float64
		release chan struct{}
	}
	var (
		mu  sync.Mutex
		now float64
	)
	n := len(imbalancedCosts)
	starts := make(chan *started)
	done := make(chan error, 1)
	go func() {
		done <- run(n, func(i int) error {
			mu.Lock()
			s := &started{end: now + imbalancedCosts[i], release: make(chan struct{})}
			mu.Unlock()
			starts <- s
			<-s.release
			return nil
		})
	}()
	var running []*started
	for finished := 0; finished < n; finished++ {
		for len(running) < min(workers, n-finished) {
			select {
			case s := <-starts:
				running = append(running, s)
			case <-time.After(10 * time.Second):
				t.Fatalf("%d tasks running after %d finished; want %d", len(running), finished, min(workers, n-finished))
			}
		}
		k := 0
		for j := range running {
			if running[j].end < running[k].end {
				k = j
			}
		}
		s := running[k]
		running = append(running[:k], running[k+1:]...)
		mu.Lock()
		now = s.end
		mu.Unlock()
		close(s.release)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return now
}

// TestImbalanceSpeedup is the acceptance gate: on 4 workers the
// longest-first sweep must beat the FIFO pool by ≥1.3x on the skewed
// profile. On the virtual clock the makespans are exact: 17 units for
// FIFO (the 12u straggler starts at 5u) and 12 for longest-first (it
// starts first), a 1.42x ratio.
func TestImbalanceSpeedup(t *testing.T) {
	fifo := virtualMakespan(t, 4, fifoRun(4))
	sweep := virtualMakespan(t, 4, sweepRun(4))
	if fifo != 17 || sweep != 12 {
		t.Errorf("makespans: fifo %g units, longest-first %g; want 17 and 12", fifo, sweep)
	}
	if ratio := fifo / sweep; ratio < 1.3 {
		t.Errorf("longest-first speedup %.2fx < 1.3x (fifo %g units, longest-first %g)", ratio, fifo, sweep)
	}
}

// sortCheck keeps the sort import honest for schedule's contract: the
// hand-out order must be a permutation.
func sortCheck(order []int) bool {
	cp := append([]int(nil), order...)
	sort.Ints(cp)
	for i, v := range cp {
		if v != i {
			return false
		}
	}
	return true
}

func TestScheduleIsPermutation(t *testing.T) {
	order := schedule(50, func(i int) float64 { return float64((i * 13) % 7) })
	if !sortCheck(order) {
		t.Fatalf("schedule is not a permutation: %v", order)
	}
}

// Submit queues one task. It never blocks: a backlog at QueueLimit
// returns ErrPoolFull (backpressure), a closed pool ErrPoolClosed.
func (p *Pool) Submit(task func()) error {
	return p.SubmitWorker(func(int) { task() })
}
