package core

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestForEachRunsAll(t *testing.T) {
	lab := QuickLab(1)
	var count int64
	seen := make([]bool, 100)
	err := lab.forEach(100, func(i int) error {
		atomic.AddInt64(&count, 1)
		seen[i] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Errorf("ran %d of 100", count)
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d never ran", i)
		}
	}
}

func TestForEachErrorSelection(t *testing.T) {
	// The first error in INDEX order is returned, regardless of
	// completion order.
	lab := QuickLab(1)
	errA := errors.New("a")
	errB := errors.New("b")
	err := lab.forEach(50, func(i int) error {
		switch i {
		case 7:
			return errA
		case 30:
			return errB
		}
		return nil
	})
	if err != errA {
		t.Errorf("err = %v, want index-7 error", err)
	}
}

func TestForEachSerialPath(t *testing.T) {
	lab := QuickLab(1)
	lab.Parallelism = 1
	order := []int{}
	err := lab.forEach(10, func(i int) error {
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial path out of order: %v", order)
		}
	}
	// Serial path stops at the first error.
	ran := 0
	lab.forEach(10, func(i int) error {
		ran++
		if i == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if ran != 4 {
		t.Errorf("serial path ran %d after error", ran)
	}
}

func TestForEachZero(t *testing.T) {
	lab := QuickLab(1)
	if err := lab.forEach(0, func(int) error { return errors.New("never") }); err != nil {
		t.Error("n=0 returned error")
	}
}

func TestForEachCostOrdersSerialSchedule(t *testing.T) {
	lab := QuickLab(1)
	lab.Parallelism = 1
	order := []int{}
	costs := []float64{1, 5, 3, 5, 2}
	err := lab.forEachCost(len(costs), func(i int) float64 { return costs[i] },
		func(i int) error {
			order = append(order, i)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 2, 4, 0} // descending cost, ties by index
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("cost schedule = %v, want %v", order, want)
		}
	}
}

func TestParallelismDoesNotChangeResults(t *testing.T) {
	// Rendered experiment bytes must be identical at any worker count:
	// the schedule may differ, the output may not.
	var base string
	for _, workers := range []int{1, 4, 16} {
		lab := QuickLab(9)
		lab.Parallelism = workers
		r, err := lab.FigureRanking(true)
		if err != nil {
			t.Fatal(err)
		}
		if rendered := r.Render(); base == "" {
			base = rendered
		} else if rendered != base {
			t.Errorf("FigureRanking output at %d workers differs from 1 worker", workers)
		}
	}
}
