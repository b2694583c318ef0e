package machine

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBytesString(t *testing.T) {
	cases := []struct {
		b    Bytes
		want string
	}{
		{512, "512B"},
		{2 * KB, "2KB"},
		{3 * MB, "3MB"},
		{64 * GB, "64GB"},
		{1536 * KB, "1.5MB"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.b), got, c.want)
		}
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want Bytes
	}{
		{"512", 512},
		{"0", 0},
		{"2k", 2048},
		{"3m", 3 << 20},
		{"16g", 16 << 30},
		{"1.5g", 3 << 29},
		{"  8M ", 8 << 20},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "abc", "12q3g", "nan", "NaN", "inf", "-inf", "-4g", "-1g", "1e30g", "9223372036854775808"} {
		if got, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) = %d, want an error", bad, got)
		}
	}
}

func TestPaperTestbedShape(t *testing.T) {
	topo := PaperTestbed()
	if topo.Cores() != 48 {
		t.Errorf("Cores = %d, want 48", topo.Cores())
	}
	if topo.Nodes() != 8 {
		t.Errorf("Nodes = %d, want 8", topo.Nodes())
	}
	if topo.RAM != 64*GB {
		t.Errorf("RAM = %v", topo.RAM)
	}
	if err := topo.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestClientTestbedShape(t *testing.T) {
	topo := ClientTestbed()
	if topo.Cores() != 16 {
		t.Errorf("Cores = %d, want 16", topo.Cores())
	}
	if err := topo.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateRejectsBadTopologies(t *testing.T) {
	bad := []Topology{
		{Sockets: 0, NodesPerSocket: 1, CoresPerNode: 1, RAM: GB},
		{Sockets: 1, NodesPerSocket: 0, CoresPerNode: 1, RAM: GB},
		{Sockets: 1, NodesPerSocket: 1, CoresPerNode: 0, RAM: GB},
		{Sockets: 1, NodesPerSocket: 1, CoresPerNode: 1, RAM: 0},
	}
	for i, topo := range bad {
		if err := topo.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid topology", i)
		}
	}
}

func TestNewPanicsOnInvalidTopology(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Topology{})
}

func TestSpeedupBasics(t *testing.T) {
	m := New(PaperTestbed())
	if s := m.Speedup(1); s != 1 {
		t.Errorf("Speedup(1) = %v", s)
	}
	if s := m.Speedup(0); s != 1 {
		t.Errorf("Speedup(0) = %v", s)
	}
	// Within one NUMA node scaling should be strong.
	if s := m.Speedup(6); s < 4 {
		t.Errorf("Speedup(6) = %v, want >= 4 within a node", s)
	}
	// Requests beyond the core count are clamped.
	if m.Speedup(48) != m.Speedup(1000) {
		t.Error("Speedup not clamped at core count")
	}
}

func TestSpeedupMonotoneNondecreasingThenSaturating(t *testing.T) {
	m := New(PaperTestbed())
	prev := 0.0
	for n := 1; n <= 48; n++ {
		s := m.Speedup(n)
		if s <= 0 {
			t.Fatalf("Speedup(%d) = %v", n, s)
		}
		// Allow mild local dips at NUMA-node boundaries but never a
		// collapse below 85% of the running maximum.
		if s < 0.85*prev {
			t.Errorf("Speedup(%d) = %v collapsed from %v", n, s, prev)
		}
		if s > prev {
			prev = s
		}
	}
}

func TestSpeedupDoesNotScaleAcrossNodes(t *testing.T) {
	// The headline scalability result (Gidra et al.): 48 threads must be
	// far from 48x. Expect between 6x and 20x.
	m := New(PaperTestbed())
	s := m.Speedup(48)
	if s < 6 || s > 20 {
		t.Errorf("Speedup(48) = %v, want in [6, 20]", s)
	}
	// And 48 threads must still beat 6 (one node).
	if s <= m.Speedup(6) {
		t.Errorf("Speedup(48)=%v <= Speedup(6)=%v", s, m.Speedup(6))
	}
}

func TestEfficiencyDecreases(t *testing.T) {
	m := New(PaperTestbed())
	if e1, e48 := m.Efficiency(1), m.Efficiency(48); e48 >= e1 {
		t.Errorf("Efficiency(48)=%v >= Efficiency(1)=%v", e48, e1)
	}
}

func TestParallelSecondsScalesWithWork(t *testing.T) {
	m := New(PaperTestbed())
	small := m.ParallelSeconds(1e6, 16)
	big := m.ParallelSeconds(1e9, 16)
	if big <= small {
		t.Errorf("ParallelSeconds not increasing in work: %v vs %v", small, big)
	}
	if m.ParallelSeconds(-5, 16) > m.Cost.SpinUp*16+1e-12 {
		t.Error("negative work not clamped")
	}
}

func TestParallelBeatsSerialOnLargeWork(t *testing.T) {
	m := New(PaperTestbed())
	work := float64(4 * GB)
	par := m.ParallelSeconds(work, 32)
	ser := m.SerialSeconds(work, 8*GB)
	if par >= ser {
		t.Errorf("parallel %vs >= serial %vs on 4GB", par, ser)
	}
}

func TestSerialWinsOnTinyWork(t *testing.T) {
	// The spin-up tax must make serial collection competitive on tiny live
	// sets — this is why ParNew/Serial win experiments in Figure 3a.
	m := New(PaperTestbed())
	work := float64(256 * KB)
	par := m.ParallelSeconds(work, 48)
	ser := m.SerialSeconds(work, 64*MB)
	if ser >= par {
		t.Errorf("serial %vs >= parallel %vs on 256KB", ser, par)
	}
}

func TestSerialSecondsRemotePenaltyGrowsWithSpan(t *testing.T) {
	m := New(PaperTestbed())
	work := float64(GB)
	local := m.SerialSeconds(work, 4*GB)   // fits one node's share
	spread := m.SerialSeconds(work, 64*GB) // spans all 8 nodes
	if spread <= local {
		t.Errorf("spanning heap not slower: %v vs %v", spread, local)
	}
	if spread > 4*local {
		t.Errorf("remote penalty implausibly large: %v vs %v", spread, local)
	}
}

func TestFullHeapSerialCompactTakesMinutes(t *testing.T) {
	// Sanity-check the headline magnitude: a serial traversal of ~60GB of
	// live data on the 64GB box must take on the order of minutes
	// (the paper measured a 4-minute ParallelOld full GC; serial is the
	// worst case bound).
	m := New(PaperTestbed())
	s := m.SerialSeconds(float64(60*GB), 64*GB)
	if s < 60 || s > 1200 {
		t.Errorf("serial 60GB traversal = %vs, want minutes", s)
	}
}

func TestDefaultGCThreads(t *testing.T) {
	m := New(PaperTestbed())
	// HotSpot: 8 + (48-8)*5/8 = 33.
	if got := m.DefaultGCThreads(); got != 33 {
		t.Errorf("DefaultGCThreads = %d, want 33", got)
	}
	if got := m.DefaultConcGCThreads(); got != 9 {
		t.Errorf("DefaultConcGCThreads = %d, want 9", got)
	}
	small := New(Topology{Sockets: 1, NodesPerSocket: 1, CoresPerNode: 4, RAM: GB})
	if got := small.DefaultGCThreads(); got != 4 {
		t.Errorf("small DefaultGCThreads = %d, want 4", got)
	}
}

func TestQuickSpeedupPositiveAndBounded(t *testing.T) {
	m := New(PaperTestbed())
	f := func(n uint8) bool {
		s := m.Speedup(int(n))
		return s >= 0.999 && s <= float64(m.Topo.Cores()) && !math.IsNaN(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickParallelSecondsMonotoneInWork(t *testing.T) {
	m := New(PaperTestbed())
	f := func(a, b uint32) bool {
		x, y := float64(a), float64(b)
		if x > y {
			x, y = y, x
		}
		return m.ParallelSeconds(x, 16) <= m.ParallelSeconds(y, 16)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPresetTopologiesValid(t *testing.T) {
	for _, tc := range []struct {
		name  string
		topo  Topology
		cores int
		nodes int
	}{
		{"TwoSocketServer", TwoSocketServer(), 32, 2},
		{"Laptop", Laptop(), 8, 1},
	} {
		if err := tc.topo.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if tc.topo.Cores() != tc.cores || tc.topo.Nodes() != tc.nodes {
			t.Errorf("%s: %d cores / %d nodes", tc.name, tc.topo.Cores(), tc.topo.Nodes())
		}
	}
}

func TestSingleNodeMachinesScaleBetterPerThread(t *testing.T) {
	// A single-NUMA-node laptop pays no remote penalty, so its 8-thread
	// efficiency beats the 8-node server's 48-thread efficiency.
	laptop := New(Laptop())
	server := New(PaperTestbed())
	if laptop.Efficiency(8) <= server.Efficiency(48) {
		t.Errorf("laptop eff(8)=%.2f <= server eff(48)=%.2f",
			laptop.Efficiency(8), server.Efficiency(48))
	}
	// And the laptop's speedup at its core count is near-linear.
	if s := laptop.Speedup(8); s < 6 {
		t.Errorf("laptop Speedup(8) = %.2f, want near-linear", s)
	}
}
