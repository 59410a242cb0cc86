package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"redcache/internal/config"
	"redcache/internal/hbm"
	"redcache/internal/sim"
	"redcache/internal/workloads"
)

// tinyRun simulates LU on the tiny configuration: a real Result for the
// checks to accept or reject.
func tinyRun(t *testing.T) (*config.System, *sim.Result, int64) {
	t.Helper()
	cfg := config.Tiny()
	tr := workloads.LU(cfg.CPU.Cores, workloads.Tiny, 1)
	res, err := sim.Run(cfg, hbm.ArchRedCache, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, res, traceInstructions(tr)
}

func TestCheckRunRejectsDoctoredResults(t *testing.T) {
	cfg, res, instr := tinyRun(t)
	if err := checkRun(cfg, res, instr); err != nil {
		t.Fatalf("untouched result rejected: %v", err)
	}
	for name, doctor := range map[string]func(r *sim.Result){
		"instructions":  func(r *sim.Result) { r.Instructions-- },
		"ctl reads":     func(r *sim.Result) { r.Ctl.Reads++ },
		"l3 misses":     func(r *sim.Result) { r.L3.Misses-- },
		"hbm busy > 1":  func(r *sim.Result) { r.HBMIface.BusyCycles = r.Cycles*int64(cfg.HBM.Geometry.Channels) + 1 },
		"ddr busy > 1":  func(r *sim.Result) { r.DDRIface.BusyCycles = r.Cycles*int64(cfg.MainMem.Geometry.Channels) + 1 },
		"ddr busy < 0":  func(r *sim.Result) { r.DDRIface.BusyCycles = -1 },
		"zero cycles":   func(r *sim.Result) { r.Cycles = 0 },
		"negative busy": func(r *sim.Result) { r.HBMIface.BusyCycles = -5 },
	} {
		r := *res
		doctor(&r)
		if err := checkRun(cfg, &r, instr); err == nil {
			t.Errorf("%s: doctored result accepted", name)
		}
	}
}

func TestSameOutcomeRejectsEveryField(t *testing.T) {
	_, res, _ := tinyRun(t)
	if err := sameOutcome(res, res, true); err != nil {
		t.Fatalf("identical results differ: %v", err)
	}
	for name, doctor := range map[string]func(r *sim.Result){
		"Cycles":       func(r *sim.Result) { r.Cycles++ },
		"Instructions": func(r *sim.Result) { r.Instructions++ },
		"Ctl":          func(r *sim.Result) { r.Ctl.RCU.Piggyback++ },
		"L3":           func(r *sim.Result) { r.L3.DirtyEvicts++ },
		"HBMIface":     func(r *sim.Result) { r.HBMIface.RowHits++ },
		"DDRIface":     func(r *sim.Result) { r.DDRIface.Activates++ },
		"Energy":       func(r *sim.Result) { r.Energy.CPU = math.Nextafter(r.Energy.CPU, 1e9) },
		"EventsFired":  func(r *sim.Result) { r.EventsFired++ },
	} {
		r := *res
		doctor(&r)
		err := sameOutcome(res, &r, true)
		if err == nil || !strings.HasPrefix(err.Error(), name+" ") {
			t.Errorf("%s: got %v, want a difference in %s", name, err, name)
		}
	}
	r := *res
	r.EventsFired += 300
	if err := sameOutcome(res, &r, false); err != nil {
		t.Errorf("traced comparison must ignore EventsFired: %v", err)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"redcache/internal/dram.(*Controller).pickFrom":                            "dram",
		"redcache/internal/dram.(*txnQueue).at":                                    "dram",
		"redcache/internal/engine.(*Engine).pop":                                   "engine",
		"redcache/internal/engine.before":                                          "engine",
		"redcache/internal/cache.(*Hierarchy).Access":                              "cache",
		"redcache/internal/hbm.(*rcuManager).find":                                 "hbm",
		"redcache/internal/hbm.(*red).Submit.func1":                                "hbm",
		"redcache/internal/cpu.(*Core).newSlot.func1":                              "cpu",
		"redcache/internal/engine.push[go.shape.*redcache/internal/mem.Request]":   "engine",
		"redcache/internal/dram.(*queue[go.shape.struct { redcache/internal/x }])": "dram",
		// Closures the simulator wires up in sim belong to no layer.
		"redcache/internal/sim.buildMachine.func3": "other",
		"redcache/internal/sim.submitFunc.Submit":  "other",
		"redcache/internal/obs.(*Series).sample":   "other",
		"redcache/internal/obs/prof.(*P).Start":    "other",
		"redcache/internal/dramx.f":                "other",
		"runtime.mallocgc":                         "runtime",
		"runtime.gcBgMarkWorker":                   "runtime",
		"runtime._ExternalCode":                    "runtime",
		"runtime/internal/atomic.Load":             "runtime",
		"internal/runtime/maps.(*Map).getWithKey":  "runtime",
		"sort.Slice": "other",
		"main.main":  "other",
		"":           "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(num int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(num int, vs ...uint64) {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	p.bytes(num, body)
}

func TestParseProfileAttributesInnermostInlinedFrame(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"redcache/internal/engine.before",               // 5: inlined into pickFrom
		"redcache/internal/dram.(*Controller).pickFrom", // 6
		"redcache/internal/sim.buildMachine.func3",      // 7
		"runtime.mallocgc",                              // 8
	}
	var prof pb
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pb
		m.varint(valueTypeType, vt[0])
		m.varint(2, vt[1])
		prof.bytes(profSampleType, m.b)
	}
	for id, name := range map[uint64]uint64{1: 5, 2: 6, 3: 7, 4: 8} {
		var f pb
		f.varint(functionID, id)
		f.varint(functionName, name)
		prof.bytes(profFunction, f.b)
	}
	location := func(id uint64, funcs ...uint64) {
		var l pb
		l.varint(locationID, id)
		for _, fn := range funcs {
			var line pb
			line.varint(lineFunctionID, fn)
			l.bytes(locationLine, line.b)
		}
		prof.bytes(profLocation, l.b)
	}
	location(10, 1, 2) // engine.before inlined into dram.pickFrom
	location(11, 2)
	location(12, 3)
	location(13, 4)
	sample := func(count uint64, locs ...uint64) {
		var s pb
		s.packed(sampleLocationID, locs...)
		s.packed(sampleValue, count, count*10_000_000)
		prof.bytes(profSample, s.b)
	}
	sample(3, 10, 12) // leaf is the inlined engine frame
	sample(5, 11, 12)
	sample(1, 12)     // sim closure itself
	sample(1, 13, 11) // malloc called from dram
	for _, s := range strs {
		prof.bytes(profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	p, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.samples(); got != 10 {
		t.Errorf("samples = %d, want 10", got)
	}
	want := map[string]float64{"engine": 0.3, "dram": 0.5, "other": 0.1, "runtime": 0.1, "cpu": 0, "cache": 0, "hbm": 0}
	got := p.shares()
	for b, w := range want {
		if math.Abs(got[b]-w) > 1e-12 {
			t.Errorf("share of %s = %g, want %g", b, got[b], w)
		}
	}
	if ns := p.selfNS("engine"); ns != 30_000_000 {
		t.Errorf("engine self time = %d ns, want 30000000", ns)
	}
}

//go:noinline
func spin(d time.Duration) int {
	x := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 10000; i++ {
			x += i ^ x
		}
	}
	return x
}

func TestParseProfileReadsRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.samples() == 0 {
		t.Fatal("no samples in a 300 ms busy loop")
	}
	found := false
	for _, fn := range p.leaf {
		found = found || fn == "redcache/perfbench.spin"
	}
	if !found {
		t.Errorf("spin missing from sample leaves %v", p.leaf)
	}
	var sum float64
	for _, s := range p.shares() {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestNamesMatchContractAndBenchmarkFile(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks [A-Za-z0-9_.-]+", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	var workloadNames []string
	for _, w := range benchWorkloads {
		use(w.name)
		workloadNames = append(workloadNames, w.name)
	}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		use(d.name)
		if !unitRE.MatchString(d.unit) {
			t.Errorf("unit %q of %s is not a valid unit", d.unit, d.name)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	var fileWorkloads []string
	for _, w := range f.Workloads {
		fileWorkloads = append(fileWorkloads, w.Name)
	}
	if !reflect.DeepEqual(fileWorkloads, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", fileWorkloads, workloadNames)
	}
	for _, c := range []struct {
		kind string
		file []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", f.EndToEnd, endToEndDefs}, {"per_layer", f.PerLayer, perLayerDefs}} {
		var got, want []string
		for _, m := range c.file {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, d := range c.defs {
			want = append(want, d.name+" "+d.unit)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json %s %v, program has %v", c.kind, got, want)
		}
	}
}

func TestSeededRecordsWhichGeneratorsUseTheSeed(t *testing.T) {
	for _, w := range benchWorkloads {
		spec, err := workloads.ByLabel(w.label)
		if err != nil {
			t.Fatal(err)
		}
		a := spec.Gen(4, workloads.Tiny, 1)
		b := spec.Gen(4, workloads.Tiny, 2)
		if differs := !reflect.DeepEqual(a, b); differs != w.seeded {
			t.Errorf("%s: seed changes the trace = %v, but seeded = %v", w.name, differs, w.seeded)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want summary
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, summary{2.75, 5.5, 8.25, 10}},
		// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
		{[]float64{5, 1, 4, 2, 3}, summary{1.5, 3, 4.5, 5}},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{2, 1}, summary{0.75, 1.5, 2.25, 2}},
		{[]float64{7}, summary{7, 7, 7, 1}},
	} {
		if got := summarize(c.xs); got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "lu-alloy"},
		{"-workload", "hist-alloy", "-trace", "2"},
		{"-workload", "hist-alloy", "-seconds", "0"},
		{"-workload", "hist-alloy", "extra"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and no output", args, code, out.String())
		}
	}
}

func TestRunTracedInvocation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates hist-alloy nine times")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "hist-alloy", "-seed", "3", "-seconds", "1", "-trace", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metricValue
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != inputsPerSeed+1 {
		t.Errorf("result %+v, want correct with %d attempted", res, inputsPerSeed+1)
	}
	var got, want []string
	for name := range res.Metrics {
		got = append(got, name)
	}
	for _, d := range perLayerDefs {
		want = append(want, d.name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("metrics %v, want %v", got, want)
	}
	for _, name := range []string{".bench_build/spans/hist-alloy-seed3-trace1.json", ".bench_build/spans/hist-alloy-seed3-trace1.pprof"} {
		if _, err := os.Stat(name); err != nil {
			t.Error(err)
		}
	}
}
