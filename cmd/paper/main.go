// Command paper regenerates every table and figure of "A Performance
// Study of Java Garbage Collectors on Multicore Architectures" from the
// simulation laboratory, printing the evaluation in reading order.
//
// With -out, the per-figure raw series (scatter data for Figures 1, 4 and
// 5) are additionally written to files in the given directory, one file
// per artifact, in a gnuplot-friendly format.
//
// Examples:
//
//	paper                 # full evaluation to stdout
//	paper -quick          # fewer stability repetitions
//	paper -out ./results  # also dump raw figure series
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"jvmgc"
	"jvmgc/internal/core"
	"jvmgc/internal/profiling"
	"jvmgc/internal/textplot"
	"jvmgc/internal/ycsb"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "shrink stability repetitions for a faster smoke run")
		seed       = flag.Uint64("seed", 42, "random seed (the evaluation is fully deterministic)")
		out        = flag.String("out", "", "directory to write raw figure series into")
		plot       = flag.Bool("plot", false, "render the figures as ASCII scatter plots")
		extended   = flag.Bool("extended", false, "also run the extension studies (nogc, machines, g1sweep, workloads, cluster, ext)")
		par        = flag.Int("parallelism", 0, "worker count for the runner fanning out independent experiments, longest first (0 = all cores); output is byte-identical at any setting")
		only       = flag.String("only", "", "run a single artifact: t2, f1, f2, t3, t4, f3, f4, f5, t8, nogc (§3.3 statistics), seeds (claim robustness), machines (topology sensitivity), g1sweep (pause-target frontier), workloads (YCSB A-F comparison), cluster (3-node ring extension), ext (HTM future-work study)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the evaluation to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write an allocation profile of the evaluation to this file (go tool pprof)")
	)
	flag.Parse()

	stopCPU, err := profiling.Start(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
	finishProfiles := func() {
		stopCPU()
		if err := profiling.WriteHeap(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
		}
	}

	start := time.Now()
	lab := core.NewLab(*seed)
	if *quick {
		lab = core.QuickLab(*seed)
	}
	lab.Parallelism = *par

	if *only != "" {
		err := runOne(lab, *only)
		finishProfiles()
		if err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		return
	}

	rep, err := lab.RunAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
	fmt.Println(rep.Render())
	if *plot {
		printPlots(rep)
	}

	if *extended {
		ext, err := lab.RunExtensions()
		if err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		fmt.Println(ext.Render())
	}

	if *out != "" {
		if err := dumpSeries(rep, *out); err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			os.Exit(1)
		}
		fmt.Printf("raw figure series written to %s\n", *out)
	}
	finishProfiles()
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

func runOne(lab *core.Lab, id string) error {
	switch id {
	case "t2":
		fmt.Println(lab.TableStability().Render())
	case "f1":
		a, err := lab.FigurePauseScatter("xalan", true)
		if err != nil {
			return err
		}
		fmt.Println(core.RenderPauseScatter(a, "Figure 1a: xalan pauses (system GC)"))
		b, err := lab.FigurePauseScatter("xalan", false)
		if err != nil {
			return err
		}
		fmt.Println(core.RenderPauseScatter(b, "Figure 1b: xalan pauses (no system GC)"))
	case "f2":
		a, err := lab.FigureIterationTimes("xalan", true)
		if err != nil {
			return err
		}
		fmt.Println(core.RenderIterationTimes(a, "Figure 2a: xalan iteration times (system GC)"))
		b, err := lab.FigureIterationTimes("xalan", false)
		if err != nil {
			return err
		}
		fmt.Println(core.RenderIterationTimes(b, "Figure 2b: xalan iteration times (no system GC)"))
	case "t3":
		for _, gc := range []string{"CMS", "ParallelOld"} {
			tab, err := lab.TableHeapYoungSweep("h2", gc, core.Table3Cases())
			if err != nil {
				return err
			}
			fmt.Println(tab.Render())
		}
	case "t4":
		tab, err := lab.TableTLAB()
		if err != nil {
			return err
		}
		fmt.Println(tab.Render())
	case "f3":
		for _, sys := range []bool{true, false} {
			r, err := lab.FigureRanking(sys)
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
		}
	case "f4":
		study, err := lab.ServerPauseStudy()
		if err != nil {
			return err
		}
		fmt.Println(study.Render())
		fmt.Println(study.RenderFigure4())
	case "f5":
		exps, err := lab.ClientLatencyStudyAll()
		if err != nil {
			return err
		}
		for _, e := range exps {
			fmt.Println(e.RenderBands())
		}
	case "seeds":
		study, err := core.SeedSensitivityStudy(lab.Seed, 5)
		if err != nil {
			return err
		}
		fmt.Println(study.Render())
	case "workloads":
		study, err := lab.WorkloadComparisonStudy()
		if err != nil {
			return err
		}
		fmt.Println(study.Render())
	case "cluster":
		study, err := lab.ClusterStudyAll()
		if err != nil {
			return err
		}
		fmt.Println(study.Render())
	case "g1sweep":
		sweep, err := lab.G1PauseTargetSweep(nil)
		if err != nil {
			return err
		}
		fmt.Println(sweep.Render())
	case "machines":
		study, err := lab.MachineSensitivityStudy()
		if err != nil {
			return err
		}
		fmt.Println(study.Render())
	case "nogc":
		study, err := lab.NoGCStatisticsStudy()
		if err != nil {
			return err
		}
		fmt.Println(study.Render())
	case "ext":
		study, err := lab.ExtensionHTMStudy()
		if err != nil {
			return err
		}
		fmt.Println(study.Render())
	case "t8":
		rep, err := lab.RunAll()
		if err != nil {
			return err
		}
		fmt.Println(rep.Verdicts().Render())
	default:
		return fmt.Errorf("unknown artifact %q", id)
	}
	return nil
}

// printPlots renders the scatter figures as terminal plots.
func printPlots(rep jvmgc.PaperReport) {
	pauseSeries := func(in []core.PauseSeries) []textplot.Series {
		var out []textplot.Series
		for _, s := range in {
			ser := textplot.Series{Name: s.Collector}
			for _, p := range s.Points {
				ser.X = append(ser.X, p.AtSeconds)
				ser.Y = append(ser.Y, p.PauseSeconds)
			}
			out = append(out, ser)
		}
		return out
	}
	sc := textplot.Scatter{Width: 78, Height: 18, XLabel: "execution time (s)", YLabel: "pause (s)"}
	sc.Title = "Figure 1a: xalan GC pauses (system GC between iterations)"
	fmt.Println(sc.Render(pauseSeries(rep.Fig1a)))
	sc.Title = "Figure 1b: xalan GC pauses (no system GC)"
	fmt.Println(sc.Render(pauseSeries(rep.Fig1b)))
	sc.Title = "Figure 4: Cassandra stress pauses"
	sc.XLabel = "elapsed time (s)"
	fmt.Println(sc.Render(pauseSeries(rep.Server.FigureServerPauses())))

	for _, c := range rep.Client {
		var read, update, gc textplot.Series
		read.Name, update.Name, gc.Name = "READ", "UPDATE", "GC"
		read.Glyph, update.Glyph, gc.Glyph = '.', '+', '#'
		for _, op := range c.Trace.TopPoints(2000) {
			if op.Type == ycsb.Read {
				read.X = append(read.X, op.Completed)
				read.Y = append(read.Y, op.LatencyMS)
			} else {
				update.X = append(update.X, op.Completed)
				update.Y = append(update.Y, op.LatencyMS)
			}
		}
		for _, p := range c.Trace.Pauses {
			gc.X = append(gc.X, p.Start)
			gc.Y = append(gc.Y, (p.End-p.Start)*1e3)
		}
		f5 := textplot.Scatter{
			Width: 78, Height: 18,
			Title:  "Figure 5: client response time under " + c.Collector + " (top 2000 points)",
			XLabel: "time since experiment start (s)", YLabel: "latency (ms)",
		}
		fmt.Println(f5.Render([]textplot.Series{read, update, gc}))
	}
}

func dumpSeries(rep jvmgc.PaperReport, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name, content string) error {
		return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
	}
	if err := write("figure1a.dat", core.RenderPauseScatter(rep.Fig1a, "# Figure 1a")); err != nil {
		return err
	}
	if err := write("figure1b.dat", core.RenderPauseScatter(rep.Fig1b, "# Figure 1b")); err != nil {
		return err
	}
	if err := write("figure4.dat", rep.Server.RenderFigure4()); err != nil {
		return err
	}
	for _, c := range rep.Client {
		if err := write("figure5-"+c.Collector+".dat", c.RenderFigure5(10000)); err != nil {
			return err
		}
	}
	return nil
}
