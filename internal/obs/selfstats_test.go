package obs

import (
	"runtime"
	"testing"
)

func TestReadRuntimeSample(t *testing.T) {
	// Heap accounting in runtime/metrics is published at GC mark
	// termination; force a cycle so a fresh test binary has real numbers.
	runtime.GC()
	s := ReadRuntimeSample()
	if s.HeapObjectsBytes <= 0 {
		t.Errorf("heap objects = %v, want > 0", s.HeapObjectsBytes)
	}
	if s.Goroutines < 1 {
		t.Errorf("goroutines = %v, want >= 1", s.Goroutines)
	}
	if s.PauseP50 < 0 || s.PauseP99 < s.PauseP50 || s.PauseMax < 0 {
		t.Errorf("pause quantiles inconsistent: %+v", s)
	}
}
