package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"time"

	"redcache/internal/cache"
	"redcache/internal/config"
	"redcache/internal/obs"
	"redcache/internal/sim"
	"redcache/internal/trace"
	"redcache/internal/workloads"
)

const (
	// inputsPerSeed is how many traces one seed stands for.  Host time
	// depends strongly on the input: two HIST traces from different
	// seeds take 1.18 s and 1.79 s to simulate, run alternately in one
	// process, because the DRAM queues fill differently.  Averaging
	// over eight inputs keeps most of that out of the comparison of one
	// invocation with another.
	inputsPerSeed = 8
	// setupReps is how many set-ups one invocation times, cycling over
	// the inputs; setup_s is their median, since one set-up takes only
	// 5-40 ms.  It must be at least inputsPerSeed.
	setupReps = 25
	// epochCycles is the traced run's telemetry sampling period.
	epochCycles = 10000
	// replayReps is how many times the traced invocation replays the
	// trace through a fresh cache hierarchy; the median is reported.
	replayReps = 5
)

// input is one generated trace and what every run of it must match.
type input struct {
	seed int64
	tr   *trace.Trace
	// wantInstr is Σ(gap+1) over the trace: the instructions a correct
	// run retires.
	wantInstr int64
	ref       *sim.Result // first passing run: every later run must equal it
	secs      []float64   // host seconds of each passing untraced run
}

// bench holds one invocation's inputs and measurements.
type bench struct {
	w      workload
	seed   int64
	cfg    *config.System
	inputs []input
	log    io.Writer // failure diagnostics

	setupS    []float64
	attempted int
	failed    int
	rounds    []round // rounds whose runs all passed
	spans     *spanLog
	profile   []byte // the traced run's CPU profile, gzipped pprof
}

// round is one pass of untraced runs over every input, reduced to the
// mean per run.
type round struct {
	seconds, allocMB, cycles, energyMJ float64
}

// inputSeed derives the generator seed of input j from the invocation
// seed, so that different invocation seeds never share an input.
func inputSeed(seed int64, j int) int64 { return seed*inputsPerSeed + int64(j) }

// newBench sets up setupReps times, each timed on its own: the
// configuration is built and validated and one input's trace
// generated, cycling over the inputs.  Each input keeps its last trace.
func newBench(w workload, seed int64, log io.Writer) (*bench, error) {
	spec, err := workloads.ByLabel(w.label)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, seed: seed, log: log, spans: newSpanLog(), inputs: make([]input, inputsPerSeed)}
	for i := 0; i < setupReps; i++ {
		in := &b.inputs[i%inputsPerSeed]
		in.seed = inputSeed(seed, i%inputsPerSeed)
		runtime.GC()
		sp := b.spans.begin("setup")
		cfg := config.Default()
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		tr := spec.Gen(cfg.CPU.Cores, workloads.Small, in.seed)
		b.setupS = append(b.setupS, b.spans.end(sp))
		b.cfg, in.tr = cfg, tr
	}
	for i := range b.inputs {
		b.inputs[i].wantInstr = traceInstructions(b.inputs[i].tr)
	}
	return b, nil
}

// traceInstructions is the instruction count a trace encodes: each
// record retires its gap and then the access itself.
func traceInstructions(t *trace.Trace) int64 {
	var n int64
	for _, s := range t.Streams {
		for _, r := range s {
			n += int64(r.Gap) + 1
		}
	}
	return n
}

// timedRounds runs rounds of untraced runs, one run per input, checking
// each run.  It starts another round only while that round, taking as
// long as the last one, would end within d; at least one round runs.
func (b *bench) timedRounds(d time.Duration) {
	start := time.Now()
	var last time.Duration
	for first := true; first || time.Since(start)+last <= d; first = false {
		roundStart := time.Now()
		var sum round
		passed := 0
		for j := range b.inputs {
			res, secs, allocMB, err := b.simulate(j, nil)
			if err == nil {
				err = b.check(j, res, false)
			}
			if err != nil {
				b.failed++
				fmt.Fprintf(b.log, "perfbench: %s input %d run failed: %v\n", b.w.name, j, err)
				continue
			}
			passed++
			b.inputs[j].secs = append(b.inputs[j].secs, secs)
			sum.seconds += secs
			sum.allocMB += allocMB
			sum.cycles += float64(res.Cycles)
			sum.energyMJ += res.Energy.System() * 1e3
		}
		if passed == len(b.inputs) {
			n := float64(passed)
			b.rounds = append(b.rounds, round{sum.seconds / n, sum.allocMB / n, sum.cycles / n, sum.energyMJ / n})
		}
		last = time.Since(roundStart)
	}
}

// simulate makes one sim.Run on input j from a freshly collected heap,
// timing it and measuring the heap bytes it allocates.  Each call is
// one attempted operation.
func (b *bench) simulate(j int, opts *sim.Options) (res *sim.Result, secs, allocMB float64, err error) {
	b.attempted++
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sp := b.spans.begin("run")
	res, err = sim.Run(b.cfg, b.w.arch, b.inputs[j].tr, opts)
	secs = b.spans.end(sp)
	runtime.ReadMemStats(&after)
	return res, secs, float64(after.TotalAlloc-before.TotalAlloc) / 1e6, err
}

// check applies the output checks to one run of input j and requires
// its simulated outcome to equal the input's first passing run's.  A
// traced run may differ in EventsFired alone: telemetry's sampling
// ticks are engine events.
func (b *bench) check(j int, res *sim.Result, traced bool) error {
	in := &b.inputs[j]
	if err := checkRun(b.cfg, res, in.wantInstr); err != nil {
		return err
	}
	if in.ref == nil {
		in.ref = res
		return nil
	}
	return sameOutcome(in.ref, res, !traced)
}

// endToEnd summarizes the end-to-end metrics: setup_s over the set-ups,
// the others over the rounds that passed, each round contributing its
// mean over the inputs.
func (b *bench) endToEnd() map[string]summary {
	var secs, alloc, cycles, energy []float64
	for _, r := range b.rounds {
		secs = append(secs, r.seconds)
		alloc = append(alloc, r.allocMB)
		cycles = append(cycles, r.cycles)
		energy = append(energy, r.energyMJ)
	}
	return map[string]summary{
		"run_s":      summarize(secs),
		"setup_s":    summarize(b.setupS),
		"alloc_mb":   summarize(alloc),
		"sim_cycles": summarize(cycles),
		"energy_mj":  summarize(energy),
	}
}

// layerReport is what the traced run measures.
type layerReport struct {
	metrics  map[string]float64
	shares   map[string]float64 // self-time share of every attribution bucket
	samples  int64              // CPU-profile samples behind the shares
	secs     float64            // the traced run's host seconds
	overhead float64            // secs minus the input's untraced median
}

// tracedRun makes the one traced run, on the first input: telemetry and
// the CPU profiler on around the same sim.Run, then the cache-hierarchy
// replay of the same trace.  It is one more attempted operation,
// subject to the same checks; a failed check counts against it but
// still reports the per-layer metrics.
func (b *bench) tracedRun() (*layerReport, error) {
	in := &b.inputs[0]
	if in.ref == nil {
		return nil, fmt.Errorf("no untraced run of the first input passed")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	res, secs, _, err := b.simulate(0, &sim.Options{Telemetry: &obs.Options{EpochCycles: epochCycles}})
	pprof.StopCPUProfile()
	if err != nil {
		b.failed++
		return nil, err
	}
	if err := b.check(0, res, true); err != nil {
		b.failed++
		fmt.Fprintf(b.log, "perfbench: %s traced run failed: %v\n", b.w.name, err)
	}
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	b.profile = buf.Bytes()
	series, err := readSeries(res.Telemetry)
	if err != nil {
		return nil, err
	}
	var replayNS []float64
	for i := 0; i < replayReps; i++ {
		replayNS = append(replayNS, b.replay(in.tr))
	}
	overhead := secs - summarize(in.secs).Median
	b.spans.note("tracing_overhead_s", overhead)
	return &layerReport{
		metrics:  layerMetrics(b.cfg, in.ref, res, prof, series, summarize(replayNS).Median),
		shares:   prof.shares(),
		samples:  prof.samples(),
		secs:     secs,
		overhead: overhead,
	}, nil
}

// replay runs a trace through a fresh cache hierarchy with
// cache.Hierarchy.Access, one record per core in turn, and returns the
// host nanoseconds per access.  With no memory below it, this times the
// cache layer alone.
func (b *bench) replay(tr *trace.Trace) float64 {
	h := cache.NewHierarchy(b.cfg.CPU.Cores, b.cfg.L1, b.cfg.L2, b.cfg.L3)
	longest := 0
	for _, s := range tr.Streams {
		longest = max(longest, len(s))
	}
	runtime.GC()
	sp := b.spans.begin("cache.replay")
	for i := 0; i < longest; i++ {
		for core, s := range tr.Streams {
			if i < len(s) {
				h.Access(core, s[i].Addr, s[i].Write)
			}
		}
	}
	return b.spans.end(sp) * 1e9 / float64(tr.Records())
}
