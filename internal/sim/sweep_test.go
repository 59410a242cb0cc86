package sim

import (
	"fmt"
	"sync"
	"testing"

	"redcache/internal/config"
	"redcache/internal/hbm"
	"redcache/internal/workloads"
)

// matrixArchs rotates the architecture across workloads so the matrix
// covers every device arrangement: NoHBM (DDR only), Alloy, Bear and
// Red-InSitu (HBM as a hardware cache), and RedCache (HBM driven by the
// RCU hooks).
var matrixArchs = []hbm.Arch{
	hbm.ArchNoHBM, hbm.ArchAlloy, hbm.ArchBear, hbm.ArchRedInSitu, hbm.ArchRedCache,
}

// sweepWorkers is how many goroutines the concurrent sweep shards the
// matrix over.
const sweepWorkers = 4

type matrixCase struct {
	name     string
	workload string
	arch     hbm.Arch
	faults   bool
}

// matrixRun makes one matrix run with the full-coverage option set
// (telemetry series and event trace, invariants, optional faults) on a
// freshly generated trace.
func matrixRun(c matrixCase) (*Result, error) {
	cfg := config.Tiny()
	spec, err := workloads.ByLabel(c.workload)
	if err != nil {
		return nil, err
	}
	tr := spec.Gen(cfg.CPU.Cores, workloads.Tiny, 1)
	return Run(cfg, c.arch, tr, ckptOpts(c.faults))
}

// TestShardedByteIdentityMatrix pins run isolation under a sharded
// sweep.  A sweep spreads its configurations over worker goroutines, so
// every run must own all of its mutable state: nothing may leak between
// runs through package-level caches, pools or registries.  For every
// workload, with faults off and on, the run made while the whole matrix
// is sharded over concurrent workers must be byte-identical to the same
// run made alone — Result bytes, telemetry series and event trace,
// fault counters, and invariant verdicts.
func TestShardedByteIdentityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is long; run without -short")
	}
	var cases []matrixCase
	for i, spec := range workloads.Catalog() {
		arch := matrixArchs[i%len(matrixArchs)]
		for _, faults := range []bool{false, true} {
			cases = append(cases, matrixCase{
				name:     fmt.Sprintf("%s_%s_faults=%v", spec.Label, arch, faults),
				workload: spec.Label,
				arch:     arch,
				faults:   faults,
			})
		}
	}

	swept := make([]*Result, len(cases))
	errs := make([]error, len(cases))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < sweepWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				swept[i], errs[i] = matrixRun(cases[i])
			}
		}()
	}
	for i := range cases {
		next <- i
	}
	close(next)
	wg.Wait()

	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if errs[i] != nil {
				t.Fatalf("swept run: %v", errs[i])
			}
			alone, err := matrixRun(c)
			if err != nil {
				t.Fatal(err)
			}
			if alone.InvariantChecks == 0 {
				t.Fatal("run completed no invariant sweeps")
			}
			if c.faults && alone.FaultStats == nil {
				t.Fatal("faulted run carries no fault counters")
			}
			want, got := fullString(t, alone), fullString(t, swept[i])
			if got != want {
				t.Fatalf("swept run diverged from the run made alone:\n--- alone\n%s\n--- swept\n%s",
					want, got)
			}
		})
	}
}
