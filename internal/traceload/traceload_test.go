package traceload

import (
	"strings"
	"testing"

	"jvmgc/internal/collector"
	"jvmgc/internal/demography"
	"jvmgc/internal/heapmodel"
	"jvmgc/internal/jvm"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

const sampleCSV = `seconds,alloc_bytes_per_sec
0,200000000
60,950000000
120,100000000
`

func TestParseCSV(t *testing.T) {
	tr, err := ParseCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) != 3 {
		t.Fatalf("points = %d", len(tr.Points))
	}
	if tr.Points[1].At != 60*simtime.Second || tr.Points[1].AllocRate != 950e6 {
		t.Errorf("point 1 = %+v", tr.Points[1])
	}
	if tr.Duration() != 180*simtime.Second {
		t.Errorf("duration = %v", tr.Duration())
	}
}

func TestParseCSVNoHeader(t *testing.T) {
	tr, err := ParseCSV(strings.NewReader("0,1000\n10,2000\n"))
	if err != nil || len(tr.Points) != 2 {
		t.Fatalf("%v, %d points", err, len(tr.Points))
	}
}

func TestParseCSVRejectsMalformed(t *testing.T) {
	bad := []string{
		"",                      // empty
		"0,100\n0,200\n",        // not increasing
		"0,100\n5,-3\n",         // negative rate
		"0,100\nx,y\n",          // non-numeric past the header
		"justonefield\n0,100\n", // short row
	}
	for _, in := range bad {
		if _, err := ParseCSV(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func mkJVM(t *testing.T) *jvm.JVM {
	t.Helper()
	m := machine.New(machine.PaperTestbed())
	col, err := collector.New("ParallelOld", collector.Config{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	return jvm.New(jvm.Config{
		Machine:   m,
		Collector: col,
		Geometry:  heapmodel.Geometry{Heap: 8 * machine.GB, Young: 2 * machine.GB, SurvivorRatio: heapmodel.DefaultSurvivorRatio},
		Seed:      3,
	}, jvm.Workload{
		Threads:   16,
		AllocRate: 1, // overridden by the trace
		Profile: demography.Profile{
			ShortFrac: 0.9, MeanShort: 150 * simtime.Millisecond,
			MediumFrac: 0.05, MeanMedium: 3 * simtime.Second,
		},
	})
}

func TestReplayFollowsRateStaircase(t *testing.T) {
	tr, err := ParseCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	j := mkJVM(t)
	if err := Replay(j, tr); err != nil {
		t.Fatal(err)
	}
	// The run covers the whole trace.
	if j.Now() < simtime.Time(tr.Duration()) {
		t.Errorf("replay ended at %v, want >= %v", j.Now(), tr.Duration())
	}
	// The rate at the end is the final point's.
	if j.AllocRate() != 100e6 {
		t.Errorf("final rate = %v", j.AllocRate())
	}
	// The 950MB/s middle hour dominates the GC activity: pauses cluster
	// in [60s, 120s].
	in, out := 0, 0
	for _, e := range j.Log().Pauses() {
		s := e.Start.Seconds()
		if s >= 60 && s < 120 {
			in++
		} else {
			out++
		}
	}
	if in <= out {
		t.Errorf("pauses: %d inside the burst, %d outside", in, out)
	}
}

func TestReplayRejectsBadTrace(t *testing.T) {
	j := mkJVM(t)
	if err := Replay(j, Trace{}); err == nil {
		t.Error("empty trace accepted")
	}
}
