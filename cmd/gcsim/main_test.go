package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jvmgc/internal/gclog"
)

// runOK runs gcsim with args and returns its stdout, failing the test on
// a non-zero exit.
func runOK(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("gcsim %q: exit %d: %s", args, code, stderr.String())
	}
	return stdout.Bytes()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSameBytesAsReplacedCommands pins every mode to the commands it
// replaced, by the SHA-256 of their output: the stdout of dacapobench,
// cassbench and bare gcsim, and the three exports of gctrace (whose -o
// prefix became one flag per export). The digests came from those
// binaries, except -gclog-out's: it writes the run's own GC log, which
// is gctrace's file without its '#' comment lines.
func TestSameBytesAsReplacedCommands(t *testing.T) {
	cases := []struct {
		args   []string
		stdout string            // digest of stdout; "" leaves it unpinned
		files  map[string]string // export flag -> digest of the file it wrote
	}{
		// dacapobench -list
		{args: []string{"dacapo", "-list"},
			stdout: "3227ab91eee0042cbaf6c6e0557fd6ed556d5953eb2c6d1a954e1bceaca7fab9"},
		// dacapobench -bench xalan -all-collectors
		{args: []string{"dacapo", "-bench", "xalan", "-all-collectors"},
			stdout: "39022bbf5ec86eb1cbc4be29876c9eb05774b88a50c23adfd49a43ff3ca38050"},
		// dacapobench -bench h2 -collector CMS -heap 8589934592
		//   -young 2147483648 -iterations 5 -no-system-gc -no-tlab -seed 3
		{args: []string{"dacapo", "-bench", "h2", "-collector", "CMS", "-heap", "8589934592",
			"-young", "2147483648", "-iterations", "5", "-no-system-gc", "-no-tlab", "-seed", "3"},
			stdout: "4d2e76ebce0055199d9fb71dc5c27c535fa5ef69a1a5fe0b9ef22bdceba2d9c3"},
		// cassbench -collector CMS
		{args: []string{"cassandra", "-collector", "CMS"},
			stdout: "6be3a135ba33a8df2a2985c1dfaec9d44309e04ebc6f76ab5ab4e48ef925848c"},
		// cassbench -collector ParallelOld -stress -duration 20m -points
		{args: []string{"cassandra", "-collector", "ParallelOld", "-stress", "-duration", "20m", "-points"},
			stdout: "da6b4f63577d668fd4dda15171b0a946ee01e07daa37abb760e912bd69cc165b"},
		// cassbench -collector G1 -duration 10m -json
		{args: []string{"cassandra", "-collector", "G1", "-duration", "10m", "-json"},
			stdout: "6ff431b5e526e716996492d104965fd29ab570974635a49070a9326cdd16d9d4"},
		// gcsim -collector CMS -heap 4g -young 1g -alloc 800m -duration 60s -v
		{args: []string{"-collector", "CMS", "-heap", "4g", "-young", "1g", "-alloc", "800m", "-duration", "60s", "-v"},
			stdout: "f29b6c0e1171e935679fa60eacf98507cbcb3c3475c7a4e0e9ed72916a1fda8e"},
		// gctrace -bench xalan -gc g1
		{args: []string{"dacapo", "-bench", "xalan", "-collector", "g1"},
			files: map[string]string{
				"-trace-out":   "cd31bf2f8556d3316cb0704df45eed3a94532d2e8e429cc24d089b4a98ae079b",
				"-metrics-out": "7d1277bb6754df5fecb293818506a7937f811858819221c20540d1c3719a63c0",
				"-gclog-out":   "6da4e3a7c4d325860a5910d184d3936112f7b824a72bd9aafad0895bc68678e9",
			}},
		// gctrace -bench h2 -gc CMS -heap 8g -young 2g
		{args: []string{"dacapo", "-bench", "h2", "-collector", "CMS", "-heap", "8g", "-young", "2g"},
			files: map[string]string{
				"-trace-out":   "85515c3fb2fab21639579473b84498eac80e966c9dff887e7749b57576a6e13a",
				"-metrics-out": "a49f51c9d136769cfaec32e34e4c7c1711c032802d2e48cc9bb15ac8136f4f3d",
				"-gclog-out":   "57a47c4e695df87de726d37fcd2bead241911e3de62851313b9fb96dc144ffd5",
			}},
	}
	for _, c := range cases {
		args := append([]string{}, c.args...)
		dir := t.TempDir()
		for flag := range c.files {
			args = append(args, flag, filepath.Join(dir, flag[1:]))
		}
		stdout := runOK(t, args...)
		if c.stdout != "" {
			if got := digest(stdout); got != c.stdout {
				t.Errorf("gcsim %q: stdout sha256 %s, want %s", c.args, got, c.stdout)
			}
		}
		for flag, want := range c.files {
			b, err := os.ReadFile(filepath.Join(dir, flag[1:]))
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(b); got != want {
				t.Errorf("gcsim %q %s: sha256 %s, want %s", c.args, flag, got, want)
			}
		}
	}
}

// TestGCLogOut: -gclog-out writes the run's own GC log and attaches no
// flight recorder. In bare mode the file is the log -v prints, without
// its '# ' summary lines; in dacapo mode gclog.Parse reads back the
// pause count, full-GC count and total pause the mode prints, the total
// to the log's 0.1 ms rounding of each pause.
func TestGCLogOut(t *testing.T) {
	dir := t.TempDir()
	flags := newModeFlags("gcsim", io.Discard)
	flags.jvm("ergonomics")
	if !flags.parse([]string{"-gclog-out", filepath.Join(dir, "unused.gclog")}) || flags.recorder() != nil {
		t.Error("-gclog-out alone attaches a flight recorder")
	}
	for _, gc := range []string{"CMS", "G1"} {
		path := filepath.Join(dir, gc+".gclog")
		args := []string{"-collector", gc, "-heap", "4g", "-young", "1g", "-alloc", "800m", "-duration", "60s"}
		verbose := runOK(t, append(args, "-v")...)
		runOK(t, append(args, "-gclog-out", path)...)
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, line := range bytes.SplitAfter(verbose, []byte("\n")) {
			if !bytes.HasPrefix(line, []byte("# ")) {
				want = append(want, line...)
			}
		}
		if len(file) == 0 || !bytes.Equal(file, want) {
			t.Errorf("gcsim -collector %s: -gclog-out wrote %d bytes that differ from the %d bytes of -v's log", gc, len(file), len(want))
		}
	}

	for _, gc := range []string{"CMS", "G1", "ParallelOld"} {
		path := filepath.Join(dir, "h2-"+gc+".gclog")
		stdout := runOK(t, "dacapo", "-bench", "h2", "-collector", gc, "-gclog-out", path)
		printed := map[string]string{}
		for _, field := range strings.Fields(string(bytes.SplitN(stdout, []byte("\n"), 2)[0])) {
			if k, v, ok := strings.Cut(field, "="); ok {
				printed[k] = v
			}
		}
		totalPause, err := time.ParseDuration(printed["totalPause"])
		if err != nil {
			t.Fatalf("gcsim dacapo -collector %s: totalPause: %v", gc, err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		log, err := gclog.Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("gcsim dacapo -collector %s: gclog.Parse: %v", gc, err)
		}
		pauses, full := log.CountPauses()
		if pauses == 0 || fmt.Sprint(pauses) != printed["pauses"] || fmt.Sprint(full) != printed["full"] {
			t.Errorf("gcsim dacapo -collector %s: the log reads pauses/full %d/%d, stdout %s/%s", gc, pauses, full, printed["pauses"], printed["full"])
		}
		tol := time.Duration(pauses) * 50 * time.Microsecond
		if d := log.TotalPause().Std() - totalPause; d < -tol || d > tol {
			t.Errorf("gcsim dacapo -collector %s: the log's total pause %v, stdout %v (±%v)", gc, log.TotalPause().Std(), totalPause, tol)
		}
	}
}

// TestEquivalentSpellings: spellings of the same run print the same
// bytes. Every mode takes a collector name in any case, an empty -young
// selects ergonomics as leaving it out does, and the size defaults are
// the sizes their help text names.
func TestEquivalentSpellings(t *testing.T) {
	for _, c := range []struct{ a, b []string }{
		{[]string{"-heap", "16g", "-alloc", "200m", "-duration", "10s"}, []string{"-duration", "10s"}},
		{[]string{"dacapo", "-heap", "16g", "-iterations", "2"}, []string{"dacapo", "-iterations", "2"}},
		{[]string{"-collector", "g1", "-duration", "10s"}, []string{"-collector", "G1", "-duration", "10s"}},
		{[]string{"dacapo", "-collector", "g1", "-iterations", "2"}, []string{"dacapo", "-collector", "G1", "-iterations", "2"}},
		{[]string{"cassandra", "-collector", "g1", "-duration", "5m"}, []string{"cassandra", "-collector", "G1", "-duration", "5m"}},
		{[]string{"-young", "", "-duration", "10s"}, []string{"-duration", "10s"}},
	} {
		if a, b := runOK(t, c.a...), runOK(t, c.b...); !bytes.Equal(a, b) {
			t.Errorf("gcsim %q and gcsim %q differ:\n%s\n---\n%s", c.a, c.b, a, b)
		}
	}
}

// TestUsageErrors: flags that cannot mean a run exit 2 and print nothing
// on stdout: sizes that are NaN, infinite, negative or beyond int64, a
// zero heap or allocation rate, exports with -all-collectors, a mode name
// after flags and an unknown flag.
func TestUsageErrors(t *testing.T) {
	unused := filepath.Join(t.TempDir(), "unused.gclog")
	for _, args := range [][]string{
		{"-heap", "nan"},
		{"-heap", "inf"},
		{"-heap", "-4g"},
		{"-heap", "1e30g"},
		{"-heap", "0"},
		{"-alloc", "-1g"},
		{"-alloc", "nan"},
		{"-alloc", "0"},
		{"-young", "-1g"},
		{"dacapo", "-heap", "0"},
		{"dacapo", "-all-collectors", "-gclog-out", unused},
		{"-collector", "G1", "dacapo"},
		{"cassandra", "-bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("gcsim %q: exit %d with %d bytes of stdout, want exit 2 and none", args, code, stdout.Len())
		}
	}
}

func TestSizeFormat(t *testing.T) {
	cases := map[int64]string{
		512:      "512B",
		3 << 20:  "3.00MB",
		16 << 30: "16.00GB",
		5 << 29:  "2.50GB",
	}
	for in, want := range cases {
		if got := size(in); got != want {
			t.Errorf("size(%d) = %q, want %q", in, got, want)
		}
	}
}
