package main

import (
	"errors"
	"fmt"
	"reflect"

	"redcache/internal/config"
	"redcache/internal/energy"
	"redcache/internal/hbm"
	"redcache/internal/sim"
	"redcache/internal/stats"
)

// checkRun applies the checks that hold for any correct run of the
// trace, whatever the cache policy: every traced instruction retires,
// every L3 miss reaches the cache controller as one read, and no
// channel's data bus is busy for more than the run's cycles.  It
// deliberately pins no golden values, so a change of behaviour moves
// sim_cycles and energy_mj instead of failing runs.
func checkRun(cfg *config.System, r *sim.Result, wantInstr int64) error {
	var errs []error
	if r.Instructions != wantInstr {
		errs = append(errs, fmt.Errorf("retired %d instructions, trace holds %d", r.Instructions, wantInstr))
	}
	if r.Ctl.Reads != r.L3.Misses {
		errs = append(errs, fmt.Errorf("controller saw %d reads for %d L3 misses", r.Ctl.Reads, r.L3.Misses))
	}
	for _, f := range []struct {
		iface    *stats.Interface
		channels int
	}{{&r.HBMIface, cfg.HBM.Geometry.Channels}, {&r.DDRIface, cfg.MainMem.Geometry.Channels}} {
		// Written so that NaN (zero cycles) fails too.
		if frac := busyFrac(f.iface, r.Cycles, f.channels); !(frac >= 0 && frac <= 1) {
			errs = append(errs, fmt.Errorf("%s per-channel busy fraction %g outside [0, 1]", f.iface.Name, frac))
		}
	}
	return errors.Join(errs...)
}

// busyFrac is the mean per-channel share of cycles a data bus was busy.
// stats.Interface.BandwidthUtil divides the busy cycles summed over all
// channels by the elapsed cycles, which exceeds 1 on multi-channel
// interfaces, so the benchmark divides by the channel count itself.
func busyFrac(i *stats.Interface, cycles int64, channels int) float64 {
	return float64(i.BusyCycles) / (float64(cycles) * float64(channels))
}

// outcome is the simulated result of a run: everything in sim.Result
// that the simulated machine determines.
type outcome struct {
	Cycles       int64
	Instructions int64
	Ctl          hbm.Stats
	L3           stats.CacheStats
	HBMIface     stats.Interface
	DDRIface     stats.Interface
	Energy       energy.Breakdown
	EventsFired  uint64
}

func outcomeOf(r *sim.Result) outcome {
	return outcome{r.Cycles, r.Instructions, r.Ctl, r.L3, r.HBMIface, r.DDRIface, r.Energy, r.EventsFired}
}

// sameOutcome reports the first field of the simulated outcome in which
// got differs from want; EventsFired is compared only when withEvents.
func sameOutcome(want, got *sim.Result, withEvents bool) error {
	w, g := outcomeOf(want), outcomeOf(got)
	if !withEvents {
		g.EventsFired = w.EventsFired
	}
	wv, gv := reflect.ValueOf(w), reflect.ValueOf(g)
	for i := 0; i < wv.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			return fmt.Errorf("%s differs from the first run: %+v, want %+v",
				wv.Type().Field(i).Name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
	return nil
}
