// Command perfbench is the repository benchmark.  It runs one workload
// many times in one process, one simulation at a time on the serial
// engine, in rounds over the inputs the seed stands for, reports the
// end-to-end metrics with their median and quartiles over the rounds,
// and checks every run's output.  With -trace 1 it adds one
// traced run (telemetry and the CPU profiler on) and a cache-hierarchy
// replay, and reports the per-layer metrics instead.
//
// Build and run it from the repository root with perfbench/run.sh; the
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  README.md in this directory
// explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"redcache/internal/hbm"
)

// spanDir receives the span log of every invocation, relative to the
// working directory (the checkout root under run.sh).
const spanDir = ".bench_build/spans"

// workload is one benchmark input: a generator from the workloads
// catalog run on one cache architecture.
type workload struct {
	name  string
	label string // workloads.Catalog label
	arch  hbm.Arch
	// seeded records whether the generator draws from the trace seed.
	// LU's generator ignores it, so a held-out-seed check re-tests only
	// the seeded workloads.
	seeded bool
}

// benchWorkloads are the benchmark's workloads; README.md gives the
// reason for each.
var benchWorkloads = []workload{
	{"lu-redcache", "LU", hbm.ArchRedCache, false},
	{"is-redcache", "IS", hbm.ArchRedCache, true},
	{"hist-alloy", "HIST", hbm.ArchAlloy, true},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: lu-redcache, is-redcache or hist-alloy")
	seed := fs.Int64("seed", 1, "trace generator seed")
	seconds := fs.Int("seconds", 10, "fill this many seconds with timed rounds")
	traced := fs.Int("trace", 0, "1: add the traced run and report the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: usage: -workload {lu-redcache|is-redcache|hist-alloy} -seed N -seconds S -trace {0|1}")
		return 2
	}

	b, err := newBench(w, *seed, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	b.timedRounds(time.Duration(*seconds) * time.Second)
	if len(b.rounds) == 0 {
		fmt.Fprintf(stderr, "perfbench: no round of %s passed its checks\n", w.name)
		return 1
	}
	e2e := b.endToEnd()
	printEndToEnd(stdout, b, e2e)
	metrics := metricValues(endToEndDefs, func(name string) float64 { return e2e[name].Median })
	if *traced == 1 {
		rep, err := b.tracedRun()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: traced run: %v\n", err)
			return 1
		}
		printLayers(stdout, rep)
		metrics = metricValues(perLayerDefs, func(name string) float64 { return rep.metrics[name] })
	}
	base := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *traced))
	if err := b.spans.write(base+".json", b.profile, base+".pprof"); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
