package sim

import (
	"redcache/internal/dram"
	"redcache/internal/hbm"
	"redcache/internal/stats"
)

// invariantRunner bundles one run's online invariant sweep: engine heap
// order, FR-FCFS queue state on both channel models, tag-store/RCU CAM
// consistency, and interface-counter sanity.  It runs as a periodic
// engine event and converts the first failure into a panic the run
// loop's recovery turns into a structured *Error — the checker fires
// *inside* the simulation, so the reported cycle is exact.
type invariantRunner struct {
	checks []func() error
	// sweeps counts completed full passes (reported as Result.InvariantChecks).
	sweeps int64
}

func newInvariantRunner(heapCheck func() error, hbmCtl, ddrCtl *dram.Controller,
	ctl *hbm.Controller, hbmIface, ddrIface *stats.Interface) *invariantRunner {
	r := &invariantRunner{}
	r.checks = append(r.checks, heapCheck, ddrCtl.CheckInvariants,
		ddrIface.Check, hbmIface.Check)
	if hbmCtl != nil {
		r.checks = append(r.checks, hbmCtl.CheckInvariants)
	}
	r.checks = append(r.checks, ctl.CheckInvariants)
	return r
}

// tick is the periodic callback: run every check, panic on the first
// violation.
func (r *invariantRunner) tick(int64) {
	for _, check := range r.checks {
		if err := check(); err != nil {
			panic(invariantViolation{err: err})
		}
	}
	r.sweeps++
}
