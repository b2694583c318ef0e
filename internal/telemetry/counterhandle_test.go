package telemetry

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"jvmgc/internal/hdrhist"
)

func TestCounterHandleAdds(t *testing.T) {
	r := New(Config{})
	h := r.Metrics().CounterHandle("gc.collections.young")
	h.Add(1)
	h.Add(2)
	if got := r.Metrics().Counter("gc.collections.young"); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	// The string API and the handle hit the same slot.
	r.Metrics().Add("gc.collections.young", 4)
	h.Add(1)
	if got := r.Metrics().Counter("gc.collections.young"); got != 8 {
		t.Errorf("counter = %d, want 8", got)
	}
}

func TestCounterHandleNilRecorder(t *testing.T) {
	var r *Recorder
	h := r.Metrics().CounterHandle("anything")
	if h != nil {
		t.Fatal("nil recorder returned non-nil handle")
	}
	h.Add(5) // must not panic
}

// TestCounterHandlePreservesFirstTouchOrder pins the export contract:
// registering handles must not surface counters before their first
// increment, so exporters see the same first-touch ordering with or
// without handles.
func TestCounterHandlePreservesFirstTouchOrder(t *testing.T) {
	r := New(Config{})
	a := r.Metrics().CounterHandle("a")
	b := r.Metrics().CounterHandle("b")
	c := r.Metrics().CounterHandle("c")
	if n := len(r.Metrics().Counters()); n != 0 {
		t.Fatalf("registration surfaced %d counters, want 0", n)
	}
	b.Add(1)
	r.Metrics().Add("z", 1)
	a.Add(1)
	_ = c // registered, never touched: must stay invisible
	names := []string{}
	for _, ctr := range r.Metrics().Counters() {
		names = append(names, ctr.Name)
	}
	want := []string{"b", "z", "a"}
	if len(names) != len(want) {
		t.Fatalf("counters = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("counters = %v, want %v", names, want)
		}
	}
}

func TestCounterHandleConcurrent(t *testing.T) {
	r := New(Config{})
	h := r.Metrics().CounterHandle("shared")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Metrics().Counter("shared"); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
}

// TestCounterHandleZeroAlloc: counting through a handle allocates
// nothing, listed or nil, so hot paths (labd's fast path, the router's
// forwards, the simulator's collections) can count every event.
func TestCounterHandleZeroAlloc(t *testing.T) {
	h := NewMetrics().CounterHandle("hits")
	h.Add(1) // listed
	if n := testing.AllocsPerRun(1000, func() { h.Add(1) }); n != 0 {
		t.Errorf("Add on a listed handle: %v allocs, want 0", n)
	}
	var off *CounterHandle
	if n := testing.AllocsPerRun(1000, func() { off.Add(1) }); n != 0 {
		t.Errorf("Add on a nil handle: %v allocs, want 0", n)
	}
}

// TestMetricsConcurrentExport: counters, gauges and histograms take
// writes from several goroutines while another renders and snapshots
// the set; nothing is lost (run under -race).
func TestMetricsConcurrentExport(t *testing.T) {
	m := NewMetrics()
	var depth atomic.Int64
	m.Gauge("depth", "Queue depth.", func() float64 { return float64(depth.Load()) })
	lat := m.Histogram("lat_seconds", "Latency.")
	hits := m.CounterHandle("hits")
	const workers, per = 4, 500
	stop := make(chan struct{})
	exported := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				exported <- n
				return
			default:
			}
			var snap PromSnapshot
			m.AddTo(&snap)
			if err := snap.Write(io.Discard); err != nil {
				t.Error(err)
			}
			_ = m.State()
			n++
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := fmt.Sprintf("worker.%d", w)
			for i := 0; i < per; i++ {
				hits.Add(1)
				m.Add(own, 1)
				depth.Add(1)
				if i%50 == 0 {
					lat.ObserveExemplar(float64(i), own, 0)
				} else {
					lat.Observe(float64(i))
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if n := <-exported; n == 0 {
		t.Error("no export ran")
	}
	st := m.State()
	if got := st.Counters["hits"]; got != workers*per {
		t.Errorf("hits = %d, want %d", got, workers*per)
	}
	for w := 0; w < workers; w++ {
		if got := st.Counters[fmt.Sprintf("worker.%d", w)]; got != per {
			t.Errorf("worker.%d = %d, want %d", w, got, per)
		}
	}
	if got := st.Gauges["depth"]; got != workers*per {
		t.Errorf("depth gauge = %g, want %d", got, workers*per)
	}
	h, err := hdrhist.Decode(st.Hists["lat_seconds"])
	if err != nil {
		t.Fatal(err)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

func BenchmarkCounterAddByName(b *testing.B) {
	r := New(Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Metrics().Add("gc.collections.young", 1)
	}
}

func BenchmarkCounterAddByHandle(b *testing.B) {
	r := New(Config{})
	h := r.Metrics().CounterHandle("gc.collections.young")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add(1)
	}
}
