// Command gcanalyze digests a GC log: pause statistics, a duration
// histogram, a pause timeline plot, and the cluster-impact analysis
// (which pauses would get a Cassandra node declared down).
//
// It reads logs in this laboratory's HotSpot-flavoured rendering — the
// output of `gcsim -v`, the file `gcsim [dacapo] -gclog-out` writes (the
// same lines), or `jvmgc.SimulationResult.LogText` — from the file
// argument, or from stdin when no file is given. Parse errors abort with
// a non-zero exit rather than printing partial statistics.
//
// Examples:
//
//	gcsim -collector CMS -heap 4g -alloc 800m -duration 5m -v | gcanalyze
//	gcanalyze -plot < run.gclog
//	gcanalyze -suspicion-timeout 8s server.gclog
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"jvmgc/internal/cassandra"
	"jvmgc/internal/gclog"
	"jvmgc/internal/simtime"
	"jvmgc/internal/textplot"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable body of the command: it parses args, reads the log
// from the named file (or stdin with no file argument), writes the
// analysis to out, and returns the process exit code.
func run(args []string, stdin io.Reader, out, errw io.Writer) int {
	fs := flag.NewFlagSet("gcanalyze", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		plot    = fs.Bool("plot", false, "render the pause timeline as an ASCII scatter")
		timeout = fs.Duration("suspicion-timeout", 8*time.Second,
			"gossip failure-detector timeout for the cluster-impact analysis (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(errw, "gcanalyze:", err)
			return 1
		}
		defer f.Close()
		in = f
	}

	log, err := gclog.Parse(in)
	if err != nil {
		fmt.Fprintln(errw, "gcanalyze:", err)
		return 1
	}

	fmt.Fprint(out, gclog.Summarize(log).Render())
	fmt.Fprintln(out)
	fmt.Fprintln(out, "pause duration histogram:")
	fmt.Fprint(out, gclog.Histogram(log))

	if *timeout > 0 {
		fd := cassandra.FailureDetector{
			HeartbeatInterval: simtime.Second,
			SuspicionTimeout:  simtime.FromStd(*timeout),
		}
		sus := fd.Analyze(log)
		fmt.Fprintln(out)
		fmt.Fprintln(out, cassandra.DescribeSuspicions("node", sus))
	}

	if *plot {
		var series textplot.Series
		series.Name = "pauses"
		series.Glyph = '*'
		for _, e := range log.Pauses() {
			series.X = append(series.X, e.Start.Seconds())
			series.Y = append(series.Y, e.Duration.Seconds())
		}
		sc := textplot.Scatter{
			Title: "pause timeline", Width: 78, Height: 16,
			XLabel: "time (s)", YLabel: "pause (s)",
		}
		fmt.Fprintln(out)
		fmt.Fprintln(out, sc.Render([]textplot.Series{series}))
	}
	return 0
}
