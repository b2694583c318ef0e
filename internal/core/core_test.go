package core

import (
	"fmt"
	"strings"
	"testing"

	"jvmgc/internal/cluster"
)

func TestTableStabilityReproducesSelection(t *testing.T) {
	lab := NewLab(42)
	tab := lab.TableStability()
	if len(tab.Rows) != 14 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	crashed := 0
	for _, r := range tab.Rows {
		if r.Crashed {
			crashed++
		}
	}
	if crashed != 3 {
		t.Errorf("crashed = %d, want 3", crashed)
	}
	// The paper's selected subset must pass the screen.
	want := map[string]bool{"h2": true, "tomcat": true, "xalan": true,
		"jython": true, "pmd": true, "luindex": true, "batik": true}
	got := tab.StableNames()
	for _, n := range got {
		if !want[n] {
			t.Errorf("unexpected stable benchmark %s", n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("stable set = %v, want the paper's seven", got)
	}
	if s := tab.Render(); !strings.Contains(s, "crashed") || !strings.Contains(s, "selected") {
		t.Error("render missing verdicts")
	}
}

func TestFigure1G1WorstWithSystemGC(t *testing.T) {
	lab := NewLab(42)
	withGC, err := lab.FigurePauseScatter("xalan", true)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PauseSeries{}
	for _, s := range withGC {
		byName[s.Collector] = s
	}
	g1 := byName["G1"]
	// G1's max pause dominates every other collector's (its full GC is
	// serial and heap-capacity bound).
	for name, s := range byName {
		if name == "G1" {
			continue
		}
		if s.MaxPause() >= g1.MaxPause() {
			t.Errorf("%s max pause %.3fs >= G1 %.3fs", name, s.MaxPause(), g1.MaxPause())
		}
	}
	// And its execution time is at least 20% above the field.
	for name, s := range byName {
		if name == "G1" {
			continue
		}
		if g1.TotalSeconds < s.TotalSeconds*1.2 {
			t.Errorf("G1 exec %.2fs not >> %s %.2fs", g1.TotalSeconds, name, s.TotalSeconds)
		}
	}
	// ParallelOld is the best performer.
	po := byName["ParallelOld"]
	for name, s := range byName {
		if name == "ParallelOld" {
			continue
		}
		if po.TotalSeconds > s.TotalSeconds {
			t.Errorf("ParallelOld %.2fs slower than %s %.2fs", po.TotalSeconds, name, s.TotalSeconds)
		}
	}
}

func TestFigure1WithoutSystemGCCollectorsConverge(t *testing.T) {
	lab := NewLab(42)
	series, err := lab.FigurePauseScatter("xalan", false)
	if err != nil {
		t.Fatal(err)
	}
	min, max := 0.0, 0.0
	for _, s := range series {
		if min == 0 || s.TotalSeconds < min {
			min = s.TotalSeconds
		}
		if s.TotalSeconds > max {
			max = s.TotalSeconds
		}
		_, full := 0, 0
		_ = full
		for _, p := range s.Points {
			if p.PauseSeconds <= 0 {
				t.Errorf("%s: non-positive pause", s.Collector)
			}
		}
	}
	// "In this case, all GCs perform similarly": spread under 15%.
	if max > min*1.15 {
		t.Errorf("collectors diverged without system GC: %.2f..%.2f", min, max)
	}
}

func TestFigure2FinalIterationOrdering(t *testing.T) {
	lab := NewLab(42)
	series, err := lab.FigureIterationTimes("xalan", true)
	if err != nil {
		t.Fatal(err)
	}
	finals := map[string]float64{}
	for _, s := range series {
		if len(s.Seconds) != 10 {
			t.Fatalf("%s has %d iterations", s.Collector, len(s.Seconds))
		}
		finals[s.Collector] = s.Final()
	}
	// "ParallelOld has the best execution time, G1 the worst."
	for name, f := range finals {
		if name != "G1" && f >= finals["G1"] {
			t.Errorf("%s final %.3fs >= G1 %.3fs", name, f, finals["G1"])
		}
		if name != "ParallelOld" && f <= finals["ParallelOld"] {
			t.Errorf("%s final %.3fs <= ParallelOld %.3fs", name, f, finals["ParallelOld"])
		}
	}
}

func TestTable3InversionCMSNotParallelOld(t *testing.T) {
	lab := NewLab(42)
	cms, err := lab.TableHeapYoungSweep("h2", "CMS", Table3Cases())
	if err != nil {
		t.Fatal(err)
	}
	if !cms.InversionObserved() {
		t.Errorf("CMS average-pause inversion not observed:\n%s", cms.Render())
	}
	po, err := lab.TableHeapYoungSweep("h2", "ParallelOld", Table3Cases())
	if err != nil {
		t.Fatal(err)
	}
	if po.InversionObserved() {
		t.Errorf("ParallelOld shows the inversion but should behave as expected:\n%s", po.Render())
	}
	// Small heaps: hundreds of collections, fulls dominating at 250MB.
	rows := cms.Rows
	if rows[4].Pauses < 50 {
		t.Errorf("1GB-200MB pauses = %d, want dozens", rows[4].Pauses)
	}
	if rows[8].FullGCs < 20 {
		t.Errorf("250MB-200MB full GCs = %d, want heavy thrash", rows[8].FullGCs)
	}
	// The paper: at 250MB the total pause time can exceed 50% of the
	// execution time.
	worst := rows[9]
	if frac := worst.TotalPause / worst.TotalExecS; frac < 0.4 {
		t.Errorf("250MB-100MB pause fraction = %.2f, want >= 0.4", frac)
	}
}

func TestTable4MostlyNeutral(t *testing.T) {
	lab := NewLab(42)
	tab, err := lab.TableTLAB()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Benchmarks) != 7 || len(tab.Collectors) != 6 {
		t.Fatalf("table shape %dx%d", len(tab.Benchmarks), len(tab.Collectors))
	}
	neutral, positive, negative := tab.Counts()
	total := neutral + positive + negative
	if total != 42 {
		t.Fatalf("cells = %d", total)
	}
	// "Most of the time the TLAB does not have any influence."
	if neutral < total*2/3 {
		t.Errorf("neutral cells = %d of %d, want a clear majority", neutral, total)
	}
	if neutral == total {
		t.Error("no deviating cells at all; the paper found several")
	}
}

func TestFigure3RankingShape(t *testing.T) {
	lab := NewLab(42)
	withGC, err := lab.FigureRanking(true)
	if err != nil {
		t.Fatal(err)
	}
	// "There is no column for G1" when system GC is forced.
	if w := withGC.Wins["G1"]; w > withGC.Experiments/20 {
		t.Errorf("G1 won %d of %d experiments with system GC", w, withGC.Experiments)
	}
	// ParallelOld contributes more than 20%.
	if p := withGC.Percent("ParallelOld"); p < 20 {
		t.Errorf("ParallelOld = %.1f%%, want >= 20", p)
	}
	total := 0
	for _, w := range withGC.Wins {
		total += w
	}
	if total != withGC.Experiments {
		t.Errorf("wins sum %d != experiments %d", total, withGC.Experiments)
	}

	withoutGC, err := lab.FigureRanking(false)
	if err != nil {
		t.Fatal(err)
	}
	// G1 improves but stays last among the six.
	order := withoutGC.Order()
	if order[len(order)-1] != "G1" {
		t.Errorf("ranking order without system GC = %v, want G1 last", order)
	}
	if p := withoutGC.Percent("ParallelOld"); p < 15 {
		t.Errorf("ParallelOld without system GC = %.1f%%", p)
	}
}

func TestServerStudyShape(t *testing.T) {
	lab := QuickLab(42)
	study, err := lab.ServerPauseStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Rows) != 5 {
		t.Fatalf("rows = %d", len(study.Rows))
	}
	var def1, def2, poStress, cmsStress, g1Stress ServerStudyRow
	for _, r := range study.Rows {
		switch {
		case r.Collector == "ParallelOld" && strings.HasPrefix(r.Configuration, "default") && def1.Collector == "":
			def1 = r
		case r.Collector == "ParallelOld" && strings.HasPrefix(r.Configuration, "default"):
			def2 = r
		case r.Collector == "ParallelOld":
			poStress = r
		case r.Collector == "CMS":
			cmsStress = r
		case r.Collector == "G1":
			g1Stress = r
		}
	}
	// The shorter default run ends without a full collection; the longer
	// one (or the stress run) escalates.
	if def1.FullGCs != 0 {
		t.Errorf("short default run had %d full GCs", def1.FullGCs)
	}
	if def2.FullGCs == 0 && poStress.FullGCs == 0 {
		t.Error("neither the long default run nor stress saturated ParallelOld")
	}
	// CMS and G1 avoid full collections under stress and keep pauses in
	// seconds; ParallelOld's worst pause dwarfs theirs.
	if cmsStress.FullGCs != 0 || g1Stress.FullGCs != 0 {
		t.Errorf("CMS/G1 full GCs = %d/%d under stress", cmsStress.FullGCs, g1Stress.FullGCs)
	}
	poWorst := poStress.MaxFullS
	if poStress.MaxYoungS > poWorst {
		poWorst = poStress.MaxYoungS
	}
	if poWorst < 4*cmsStress.MaxYoungS {
		t.Errorf("ParallelOld worst %.1fs not >> CMS %.1fs", poWorst, cmsStress.MaxYoungS)
	}
	// Figure 4 series exist for CMS and G1.
	f4 := study.FigureServerPauses()
	if len(f4) != 2 {
		t.Fatalf("figure 4 series = %d", len(f4))
	}
	for _, s := range f4 {
		if len(s.Points) == 0 {
			t.Errorf("%s: empty figure 4 series", s.Collector)
		}
	}
}

func TestClientStudyShape(t *testing.T) {
	lab := QuickLab(42)
	exp, err := lab.ClientLatencyStudy("CMS")
	if err != nil {
		t.Fatal(err)
	}
	// Updates concentrate in the normal band; every exceedance band is
	// fully GC-covered (the paper's core client-side observation).
	if exp.Update.Normal.Reqs < 90 {
		t.Errorf("update normal band = %.1f%%", exp.Update.Normal.Reqs)
	}
	if exp.Update.Normal.GCs > 10 {
		t.Errorf("update normal GC coverage = %.1f%%, want ~0", exp.Update.Normal.GCs)
	}
	if len(exp.Update.Above) == 0 || exp.Update.Above[0].GCs < 90 {
		t.Errorf(">2x band GC coverage = %+v", exp.Update.Above)
	}
	// "Almost every peak in the client response time was associated to a
	// collection on the server."
	if pct := exp.PeaksCoincideWithGCs(200); pct < 80 {
		t.Errorf("top-200 peaks GC-coincidence = %.1f%%", pct)
	}
	if s := exp.RenderBands(); !strings.Contains(s, "AVG(ms)") {
		t.Error("bands render incomplete")
	}
	if s := exp.RenderFigure5(100); !strings.Contains(s, "GC ") {
		t.Error("figure 5 render missing GC series")
	}
}

func TestVerdictsMatchPaperTable8(t *testing.T) {
	lab := QuickLab(42)
	ranking, err := lab.FigureRanking(true)
	if err != nil {
		t.Fatal(err)
	}
	iter, err := lab.FigureIterationTimes("xalan", true)
	if err != nil {
		t.Fatal(err)
	}
	server, err := lab.ServerPauseStudy()
	if err != nil {
		t.Fatal(err)
	}
	verdicts := TableVerdicts(ranking, iter, server)
	if len(verdicts.Rows) != 6 {
		t.Fatalf("verdict rows = %d", len(verdicts.Rows))
	}
	// The paper's headline cells.
	v, err := verdicts.Find("ParallelOld", "DaCapo")
	if err != nil || v.Throughput != "good" {
		t.Errorf("ParallelOld DaCapo throughput = %+v, %v", v, err)
	}
	v, _ = verdicts.Find("ParallelOld", "Cassandra")
	if v.PauseTime != "unacceptable" {
		t.Errorf("ParallelOld Cassandra pause = %q, want unacceptable", v.PauseTime)
	}
	v, _ = verdicts.Find("G1", "DaCapo")
	if v.Throughput == "good" {
		t.Errorf("G1 DaCapo throughput = %q, paper grades it bad", v.Throughput)
	}
	for _, gc := range []string{"CMS", "G1"} {
		v, _ = verdicts.Find(gc, "Cassandra")
		if v.PauseTime != "significant" {
			t.Errorf("%s Cassandra pause = %q, want significant", gc, v.PauseTime)
		}
	}
	if _, err := verdicts.Find("Shenandoah", "DaCapo"); err == nil {
		t.Error("unknown verdict lookup succeeded")
	}
	if s := verdicts.Render(); !strings.Contains(s, "Table 8") {
		t.Error("verdict render missing title")
	}
}

func TestQuickLabRunAll(t *testing.T) {
	lab := QuickLab(7)
	rep, err := lab.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Render()
	for _, want := range []string{
		"Table 2", "Figure 1a", "Figure 1b", "Figure 2a", "Figure 2b",
		"Table 3", "Table 4", "Figure 3a", "Figure 3b",
		"Section 4.1", "Figure 4", "ParallelOld GC", "CMS GC", "G1 GC", "Table 8",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestLabDeterminism(t *testing.T) {
	a, err := QuickLab(3).ClientLatencyStudy("G1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := QuickLab(3).ClientLatencyStudy("G1")
	if err != nil {
		t.Fatal(err)
	}
	if a.RenderBands() != b.RenderBands() {
		t.Error("same-seed labs diverged")
	}
}

func TestRenderTableAlignment(t *testing.T) {
	out := renderTable([]string{"a", "bb"}, [][]string{{"xxx", "y"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Error("separator misaligned")
	}
}

func TestUnknownBenchmarkErrors(t *testing.T) {
	lab := QuickLab(1)
	if _, err := lab.FigurePauseScatter("nope", true); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := lab.FigureIterationTimes("nope", true); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := lab.TableHeapYoungSweep("nope", "CMS", Table3Cases()); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestNoGCStatisticsStudy(t *testing.T) {
	lab := QuickLab(42)
	s, err := lab.NoGCStatisticsStudy()
	if err != nil {
		t.Fatal(err)
	}
	if s.Experiments != 18 {
		t.Fatalf("experiments = %d, want 18", s.Experiments)
	}
	// batik at these sizes must mostly run without collections.
	if s.NoGCCount < s.Experiments/2 {
		t.Errorf("only %d of %d experiments were pause-free", s.NoGCCount, s.Experiments)
	}
	// The paper's observation: Serial wins well under half of them
	// (4 of 18 there; a noise-driven share here).
	if s.SerialWins > s.NoGCCount/2 {
		t.Errorf("Serial won %d of %d no-GC experiments; should be a noise share", s.SerialWins, s.NoGCCount)
	}
	total := 0
	for _, w := range s.WinsByGC {
		total += w
	}
	if total != s.NoGCCount {
		t.Errorf("wins %d != no-GC experiments %d", total, s.NoGCCount)
	}
	if out := s.Render(); !strings.Contains(out, "GC statistics") {
		t.Error("render missing title")
	}
}

func TestMachineSensitivityStudy(t *testing.T) {
	lab := QuickLab(42)
	s, err := lab.MachineSensitivityStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 3 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	byName := map[string]MachineSensitivityRow{}
	for _, r := range s.Rows {
		byName[r.Machine] = r
		if r.G1Penalty <= 0 || r.FullWidthSpeedup <= 0 {
			t.Errorf("%s: degenerate row %+v", r.Machine, r)
		}
	}
	paper := byName["paper-48core-8node"]
	laptop := byName["laptop-8core-1node"]
	// The G1 penalty must be real on the big box and shrink on the
	// laptop, where a serial full GC loses much less ground.
	if paper.G1Penalty < 1.2 {
		t.Errorf("paper testbed G1 penalty = %.2f, want >= 1.2", paper.G1Penalty)
	}
	if laptop.G1Penalty >= paper.G1Penalty {
		t.Errorf("laptop penalty %.2f >= paper %.2f; NUMA headroom not driving it",
			laptop.G1Penalty, paper.G1Penalty)
	}
	if out := s.Render(); !strings.Contains(out, "Machine sensitivity") {
		t.Error("render missing title")
	}
}

func TestFigure1ShapeGeneralizesAcrossBenchmarks(t *testing.T) {
	// "We choose Xalan for clarity, all other benchmarks having a similar
	// behaviour" (§3.3): G1 must be the worst with forced collections on
	// the other multi-threaded stable benchmarks too.
	lab := QuickLab(42)
	for _, bench := range []string{"tomcat", "pmd", "jython"} {
		series, err := lab.FigurePauseScatter(bench, true)
		if err != nil {
			t.Fatal(err)
		}
		var g1 float64
		worstOther := 0.0
		for _, s := range series {
			if s.Collector == "G1" {
				g1 = s.TotalSeconds
			} else if s.TotalSeconds > worstOther {
				worstOther = s.TotalSeconds
			}
		}
		if g1 <= worstOther {
			t.Errorf("%s: G1 exec %.2fs not the worst (field max %.2fs)", bench, g1, worstOther)
		}
	}
}

func TestG1PauseTargetSweep(t *testing.T) {
	lab := QuickLab(42)
	sweep, err := lab.G1PauseTargetSweep([]int{100, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Rows) != 2 {
		t.Fatalf("rows = %d", len(sweep.Rows))
	}
	tight, loose := sweep.Rows[0], sweep.Rows[1]
	// A looser goal lets the young generation grow: fewer collections.
	if loose.Pauses >= tight.Pauses {
		t.Errorf("pauses: target %dms -> %d, target %dms -> %d; expected fewer with the loose goal",
			tight.TargetMS, tight.Pauses, loose.TargetMS, loose.Pauses)
	}
	// The worst pause is remark-floor-bound either way: within 2x.
	if loose.MaxPauseS > tight.MaxPauseS*2 || tight.MaxPauseS > loose.MaxPauseS*2 {
		t.Errorf("max pauses diverged: %.2fs vs %.2fs", tight.MaxPauseS, loose.MaxPauseS)
	}
	if out := sweep.Render(); !strings.Contains(out, "MaxGCPauseMillis") {
		t.Error("render missing header")
	}
}

func TestClusterStudyAll(t *testing.T) {
	lab := QuickLab(42)
	study, err := lab.ClusterStudyAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Results) != 4 {
		t.Fatalf("results = %d", len(study.Results))
	}
	po, err := study.Find("ParallelOld")
	if err != nil {
		t.Fatal(err)
	}
	cms, _ := study.Find("CMS")
	htm, _ := study.Find("HTM")

	// Replication cannot mask ParallelOld's minutes-scale full GCs: its
	// quorum tail stays orders of magnitude above CMS's.
	if po.PerLevel[cluster.All].MaxMS < 10*cms.PerLevel[cluster.All].MaxMS {
		t.Errorf("PO ALL max %.0fms not >> CMS %.0fms",
			po.PerLevel[cluster.All].MaxMS, cms.PerLevel[cluster.All].MaxMS)
	}
	// Only ParallelOld trips the ring's failure detector.
	if po.SuspicionsTotal == 0 {
		t.Error("ParallelOld ring produced no suspicions")
	}
	if cms.SuspicionsTotal != 0 || htm.SuspicionsTotal != 0 {
		t.Errorf("CMS/HTM suspicions = %d/%d", cms.SuspicionsTotal, htm.SuspicionsTotal)
	}
	// HTM's handshake pauses vanish behind replication entirely.
	if htm.PerLevel[cluster.All].MaxMS > 100 {
		t.Errorf("HTM ALL max = %.1fms", htm.PerLevel[cluster.All].MaxMS)
	}
	if _, err := study.Find("Epsilon"); err == nil {
		t.Error("unknown collector lookup succeeded")
	}
	if out := study.Render(); !strings.Contains(out, "Cluster extension") {
		t.Error("render missing title")
	}
}

func TestWorkloadComparisonStudy(t *testing.T) {
	lab := QuickLab(42)
	study, err := lab.WorkloadComparisonStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Rows) != 15 {
		t.Fatalf("rows = %d", len(study.Rows))
	}
	byKey := map[string]WorkloadComparisonRow{}
	for _, r := range study.Rows {
		byKey[r.Collector+string(rune(r.Workload))] = r
	}
	for _, gc := range MainGCNames() {
		a := byKey[gc+"A"]
		e := byKey[gc+"E"]
		// Scans cost more per op...
		if e.AvgMS < 4*a.AvgMS {
			t.Errorf("%s: scan avg %.2f not >> point avg %.2f", gc, e.AvgMS, a.AvgMS)
		}
		// ...but expose a smaller share of requests to GC shadows (the
		// 8x threshold scales with the larger average).
		if e.TailPct >= a.TailPct {
			t.Errorf("%s: scan tail %.3f%% not below point tail %.3f%%", gc, e.TailPct, a.TailPct)
		}
	}
	if out := study.Render(); !strings.Contains(out, "YCSB core-workload") {
		t.Error("render missing title")
	}
}

func TestRunExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("extension bundle in -short mode")
	}
	lab := QuickLab(42)
	ext, err := lab.RunExtensions()
	if err != nil {
		t.Fatal(err)
	}
	out := ext.Render()
	for _, want := range []string{
		"GC statistics", "Machine sensitivity", "MaxGCPauseMillis",
		"YCSB core-workload", "Cluster extension", "Extension (paper §6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("extended report missing %q", want)
		}
	}
}

func TestScatterRenderers(t *testing.T) {
	lab := QuickLab(42)
	series, err := lab.FigurePauseScatter("xalan", true)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderPauseScatter(series, "Figure 1a")
	if !strings.Contains(out, "Figure 1a") || !strings.Contains(out, "# G1") {
		t.Error("pause scatter render incomplete")
	}
	// Every series line is "x y" pairs; spot-check one data line parses.
	lines := strings.Split(out, "\n")
	dataLines := 0
	for _, l := range lines {
		if l == "" || strings.HasPrefix(l, "#") || strings.HasPrefix(l, "Figure") {
			continue
		}
		dataLines++
		if len(strings.Fields(l)) != 2 {
			t.Fatalf("malformed data line %q", l)
		}
	}
	if dataLines == 0 {
		t.Error("no data lines rendered")
	}

	study, err := lab.ServerPauseStudy()
	if err != nil {
		t.Fatal(err)
	}
	f4 := study.RenderFigure4()
	for _, want := range []string{"Figure 4", "# CMS", "# G1"} {
		if !strings.Contains(f4, want) {
			t.Errorf("figure 4 render missing %q", want)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep in -short mode")
	}
	s, err := SeedSensitivityStudy(42, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Claims) != 5 || len(s.Seeds) != 5 {
		t.Fatalf("matrix %dx%d", len(s.Claims), len(s.Seeds))
	}
	// The reproduction must not hinge on a lucky seed: at least 90% of
	// (claim, seed) cells hold, and the ranking claim holds everywhere.
	if rate := s.HoldRate(); rate < 0.9 {
		t.Errorf("hold rate %.0f%%:\n%s", 100*rate, s.Render())
	}
	for j := range s.Seeds {
		if !s.Held[0][j] {
			t.Errorf("G1-never-wins failed at seed %d", s.Seeds[j])
		}
	}
	if out := s.Render(); !strings.Contains(out, "Seed sensitivity") {
		t.Error("render missing title")
	}
}

// Find returns the verdict for one collector and experiment.
func (t VerdictTable) Find(gc, experiment string) (Verdict, error) {
	for _, r := range t.Rows {
		if r.GC == gc && r.Experiment == experiment {
			return r, nil
		}
	}
	return Verdict{}, fmt.Errorf("core: no verdict for %s/%s", gc, experiment)
}
