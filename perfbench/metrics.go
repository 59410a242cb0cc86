package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"redcache/internal/config"
	"redcache/internal/obs"
	"redcache/internal/sim"
)

// metricDef names one reported metric and its unit.  The lists below
// must match BENCHMARK.json, which a test checks.
type metricDef struct{ name, unit string }

// endToEndDefs are reported with -trace 0, each as its median over the
// invocation's rounds (set-ups, for setup_s); a round contributes its
// mean over the inputs.
var endToEndDefs = []metricDef{
	{"run_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"sim_cycles", "cycles"},
	{"energy_mj", "mJ"},
}

// perLayerDefs are reported with -trace 1.  Self shares come from the
// traced run's CPU profile, occupancy from its telemetry series, and
// counters from the runs' sim.Result.
var perLayerDefs = []metricDef{
	{"engine.self_share", "frac"},
	{"engine.events", "count"},
	{"engine.ns_per_event", "ns"},
	{"engine.pending_mean", "events"},
	{"dram.self_share", "frac"},
	{"dram.hbm.queue_depth_mean", "entries"},
	{"dram.ddr.queue_depth_mean", "entries"},
	{"dram.hbm.row_hit_rate", "frac"},
	{"dram.ddr.row_hit_rate", "frac"},
	{"dram.hbm.busy_frac", "frac"},
	{"dram.ddr.busy_frac", "frac"},
	{"dram.hbm.requests", "count"},
	{"dram.ddr.requests", "count"},
	{"hbm.self_share", "frac"},
	{"hbm.hit_rate", "frac"},
	{"hbm.tag_probes_per_req", "probes/req"},
	{"hbm.direct_frac", "frac"},
	{"hbm.rcu_free_share", "frac"},
	{"cache.self_share", "frac"},
	{"cache.replay_ns_per_access", "ns"},
	{"cache.l3_miss_rate", "frac"},
	{"cache.writebacks_per_kinst", "1/kinst"},
	{"cpu.self_share", "frac"},
	{"cpu.ipc", "inst/cycle"},
	{"cpu.load_stall_frac", "frac"},
	{"runtime.self_share", "frac"},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricValues builds the result line's metrics object for defs.
func metricValues(defs []metricDef, value func(name string) float64) map[string]metricValue {
	out := map[string]metricValue{}
	for _, d := range defs {
		out[d.name] = metricValue{value(d.name), d.unit}
	}
	return out
}

// summary is a sample's median and quartiles.
type summary struct {
	Q1, Median, Q3 float64
	N              int
}

// summarize computes the quartiles the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method),
// so the printed spread matches what a reader computes from the values.
func summarize(xs []float64) summary {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	s := summary{N: n}
	switch n {
	case 0:
		return s
	case 1:
		s.Q1, s.Median, s.Q3 = d[0], d[0], d[0]
		return s
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	s.Q1, s.Median, s.Q3 = q(1), q(2), q(3)
	return s
}

// seriesMeans holds the telemetry figures the per-layer metrics use.
type seriesMeans struct {
	pending, hbmQueue, ddrQueue float64 // means over epochs
	loadStall                   float64 // total cycles
}

// readSeries reduces the traced run's telemetry series: the gauges to
// their mean over sampled epochs, the load-stall counter to its total.
func readSeries(tel *obs.Telemetry) (seriesMeans, error) {
	var m seriesMeans
	if tel == nil || tel.Series() == nil {
		return m, fmt.Errorf("telemetry missing from the traced run")
	}
	s := tel.Series()
	if s.Rows() == 0 || s.DroppedRows > 0 {
		return m, fmt.Errorf("telemetry kept %d rows and dropped %d", s.Rows(), s.DroppedRows)
	}
	for _, c := range []struct {
		name string
		dst  *float64
		mean bool
	}{
		{"engine.pending", &m.pending, true},
		{"hbm.queue_depth", &m.hbmQueue, true},
		{"ddr.queue_depth", &m.ddrQueue, true},
		{"cpu.load_stall_cycles", &m.loadStall, false},
	} {
		for row := 0; row < s.Rows(); row++ {
			v, ok := s.Value(row, c.name)
			if !ok {
				return m, fmt.Errorf("telemetry has no %s series", c.name)
			}
			*c.dst += v
		}
		if c.mean {
			*c.dst /= float64(s.Rows())
		}
	}
	return m, nil
}

// layerMetrics computes the per-layer metrics of the traced input:
// counters from its untraced reference run, host time from the traced
// run's profile, occupancy from its telemetry, and the cache replay's
// time per access.
func layerMetrics(cfg *config.System, ref, traced *sim.Result, p *profile, ser seriesMeans, replayNS float64) map[string]float64 {
	shares := p.shares()
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ctlReqs := float64(ref.Ctl.Reads + ref.Ctl.Writes)
	cycles := float64(ref.Cycles)
	m := map[string]float64{
		"engine.events":       float64(ref.EventsFired),
		"engine.ns_per_event": ratio(float64(p.selfNS("engine")), float64(traced.EventsFired)),
		"engine.pending_mean": ser.pending,

		"dram.hbm.queue_depth_mean": ser.hbmQueue,
		"dram.ddr.queue_depth_mean": ser.ddrQueue,
		"dram.hbm.row_hit_rate":     ref.HBMIface.RowHitRate(),
		"dram.ddr.row_hit_rate":     ref.DDRIface.RowHitRate(),
		"dram.hbm.busy_frac":        busyFrac(&ref.HBMIface, ref.Cycles, cfg.HBM.Geometry.Channels),
		"dram.ddr.busy_frac":        busyFrac(&ref.DDRIface, ref.Cycles, cfg.MainMem.Geometry.Channels),
		"dram.hbm.requests":         float64(ref.HBMIface.Requests),
		"dram.ddr.requests":         float64(ref.DDRIface.Requests),

		"hbm.hit_rate":           ref.Ctl.Demand.HitRate(),
		"hbm.tag_probes_per_req": ratio(float64(ref.Ctl.TagProbes), ctlReqs),
		"hbm.direct_frac":        ratio(float64(ref.Ctl.DirectToMem), ctlReqs),
		"hbm.rcu_free_share":     ref.Ctl.RCU.FreeShare(),

		"cache.replay_ns_per_access": replayNS,
		"cache.l3_miss_rate":         ratio(float64(ref.L3.Misses), float64(ref.L3.Accesses())),
		"cache.writebacks_per_kinst": ratio(float64(ref.L3.DirtyEvicts)*1000, float64(ref.Instructions)),

		"cpu.ipc":             ref.IPC(),
		"cpu.load_stall_frac": ratio(ser.loadStall, cycles*float64(cfg.CPU.Cores)),
	}
	for _, l := range append(append([]string{}, layers...), "runtime") {
		m[l+".self_share"] = shares[l]
	}
	return m
}

// printEndToEnd writes the human-readable end-to-end report.
func printEndToEnd(w io.Writer, b *bench, e2e map[string]summary) {
	fmt.Fprintf(w, "workload %s: %s on %s, config.Default (%d cores), workloads.Small, seed %d, serial engine\n",
		b.w.name, b.w.label, b.w.arch, b.cfg.CPU.Cores, b.seed)
	if b.w.seeded {
		fmt.Fprintf(w, "inputs: %d %s traces, generator seeds %d..%d\n", len(b.inputs), b.w.label, b.inputs[0].seed, b.inputs[len(b.inputs)-1].seed)
	} else {
		fmt.Fprintf(w, "inputs: %d %s traces; the %s generator ignores the seed, so they are identical for every seed\n", len(b.inputs), b.w.label, b.w.label)
	}
	fmt.Fprintf(w, "runs: %d attempted, %d failed, %d complete rounds\n", b.attempted, b.failed, len(b.rounds))
	for _, d := range endToEndDefs {
		s := e2e[d.name]
		fmt.Fprintf(w, "  %-11s median %-14.6g q1 %-14.6g q3 %-14.6g %-7s n=%d\n", d.name, s.Median, s.Q1, s.Q3, d.unit, s.N)
	}
}

// printLayers writes the human-readable per-layer report.
func printLayers(w io.Writer, rep *layerReport) {
	fmt.Fprintf(w, "traced run: %.4f s, tracing overhead %+.4f s over the untraced median, %d profile samples\n",
		rep.secs, rep.overhead, rep.samples)
	var split []string
	for _, b := range buckets {
		split = append(split, fmt.Sprintf("%s %.1f%%", b, 100*rep.shares[b]))
	}
	fmt.Fprintf(w, "self time: %s\n", strings.Join(split, ", "))
	for _, d := range perLayerDefs {
		fmt.Fprintf(w, "  %-28s %-14.6g %s\n", d.name, rep.metrics[d.name], d.unit)
	}
}
