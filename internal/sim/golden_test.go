package sim

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"redcache/internal/config"
	"redcache/internal/hbm"
	"redcache/internal/workloads"
)

// goldenPairs are the (workload, arch) pairs pinned byte-for-byte
// against the seed implementation.  One bandwidth-bound kernel on the
// full RedCache controller and one streaming kernel on the no-cache
// baseline cover both extremes of the event-scheduling load.
var goldenPairs = []struct {
	workload string
	arch     hbm.Arch
	scale    workloads.Scale
	name     string
}{
	{"LU", hbm.ArchRedCache, workloads.Tiny, "LU_RedCache"},
	{"HIST", hbm.ArchNoHBM, workloads.Tiny, "HIST_NoHBM"},
	// The small-scale pair is the load-bearing one: at tiny scale alpha
	// bypasses everything, while at small scale the run drives ~220k RCU
	// updates, piggyback/idle flushes, refresh bypass, and both DRAM
	// devices — every hot path this PR's optimizations touch.
	{"LU", hbm.ArchRedCache, workloads.Small, "LU_RedCache_small"},
}

// goldenString renders every counter the seed-era Result carried.  The
// fields are enumerated explicitly (rather than %+v on the whole
// struct) so that *adding* diagnostics to Result later cannot silently
// relax the byte-identity contract on the seed counters.
func goldenString(r *Result) string {
	return fmt.Sprintf(
		"Arch:%s Workload:%s\nCycles:%d Instructions:%d\nHBMIface:%+v\nDDRIface:%+v\nCtl:%+v\nL3:%+v\nEnergy:%+v\n",
		r.Arch, r.Workload, r.Cycles, r.Instructions,
		r.HBMIface, r.DDRIface, r.Ctl, r.L3, r.Energy)
}

func goldenRun(t *testing.T, workload string, arch hbm.Arch, sc workloads.Scale) *Result {
	t.Helper()
	sys := config.Default()
	sys.CPU.Cores = 4
	spec, err := workloads.ByLabel(workload)
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Gen(sys.CPU.Cores, sc, 1)
	res, err := Run(sys, arch, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenResultMatchesSeed asserts that the full Result of each
// golden pair is byte-identical to the dump captured from the seed
// implementation (pre performance-overhaul).  Any engine, DRAM, cache,
// or controller change that perturbs a single counter fails here.
//
// Regenerate (only when a behaviour change is *intended* and reviewed):
//
//	REDCACHE_UPDATE_GOLDEN=1 go test ./internal/sim -run Golden
func TestGoldenResultMatchesSeed(t *testing.T) {
	for _, p := range goldenPairs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			got := goldenString(goldenRun(t, p.workload, p.arch, p.scale))
			checkGolden(t, fmt.Sprintf("golden_%s.txt", p.name), got)
		})
	}
}

// TestGoldenEveryArch pins every architecture on two workloads at tiny
// scale with the full observer set (default faults, telemetry with
// events, invariants).  Between them LU and BRN reach every controller
// policy path except refresh bypass, which golden_LU_RedCache_small
// pins: dirty victims, BEAR's fill bypass and presence-filter writes,
// α admissions, γ invalidations and in-situ updates, every RCU
// disposition, RCU block hits and the dirty-victim keep.  Each file
// holds goldenString verbatim, the fault counters, and the sha256 of
// fullString (telemetry series and event trace included).
//
// Regenerate (only when a behaviour change is *intended* and reviewed):
//
//	REDCACHE_UPDATE_GOLDEN=1 go test ./internal/sim -run Golden
func TestGoldenEveryArch(t *testing.T) {
	for _, wl := range []string{"LU", "BRN"} {
		for _, arch := range hbm.All() {
			wl, arch := wl, arch
			t.Run(wl+"_"+string(arch), func(t *testing.T) {
				t.Parallel()
				cfg := config.Tiny()
				res, err := Run(cfg, arch, ckptTrace(t, cfg, wl), ckptOpts(true))
				if err != nil {
					t.Fatal(err)
				}
				got := goldenString(res) +
					fmt.Sprintf("Faults:%+v\n", *res.FaultStats) +
					fmt.Sprintf("sha256:%x\n", sha256.Sum256([]byte(fullString(t, res))))
				checkGolden(t, fmt.Sprintf("golden_arch_%s_%s.txt", wl, arch), got)
			})
		}
	}
}

// checkGolden compares got against testdata/name, or rewrites the file
// when REDCACHE_UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("REDCACHE_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with REDCACHE_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("Result diverged from the pinned implementation.\n--- want\n%s\n--- got\n%s", want, got)
	}
}
