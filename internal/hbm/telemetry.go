package hbm

import "redcache/internal/obs"

// registerCtlProbes registers the ctl.* probe set every architecture
// exports.  Counters mirror the Stats fields the paper's
// figures aggregate; the epoch sampler turns them into per-epoch rates.
func registerCtlProbes(r *obs.Registry, s *Stats) {
	r.Counter("ctl.reads", func() int64 { return s.Reads })
	r.Counter("ctl.writes", func() int64 { return s.Writes })
	r.Counter("ctl.demand_hits", func() int64 { return s.Demand.Hits })
	r.Counter("ctl.demand_misses", func() int64 { return s.Demand.Misses })
	r.Counter("ctl.fills", func() int64 { return s.Fills })
	r.Counter("ctl.fill_bypass", func() int64 { return s.FillBypass })
	r.Counter("ctl.victim_wb", func() int64 { return s.VictimWB })
	r.Counter("ctl.direct_to_mem", func() int64 { return s.DirectToMem })
	r.Counter("ctl.refresh_bypass", func() int64 { return s.RefreshByp })
	r.Counter("ctl.sram_access", func() int64 { return s.SRAMAccess })
	r.Ratio("ctl.demand_hit_rate",
		func() int64 { return s.Demand.Hits },
		func() int64 { return s.Demand.Accesses() })
}

// RegisterTelemetry registers the controller probe set every
// architecture exports, plus the probes of the mechanisms its row
// enables — the two adaptive thresholds, the α buffer, and the RCU
// dispositions that Figs 7-8 and §III-C track over time — so each
// architecture's telemetry schema names exactly what it simulates.  It
// also wires the event tracer into the instrumented paths.  Called at
// wire-up, before the first Submit.
func (c *controller) RegisterTelemetry(tel *obs.Telemetry) {
	registerCtlProbes(&tel.Reg, &c.s)
	c.tr = tel.Tracer
	r := &tel.Reg
	if c.at != nil {
		r.Gauge("red.alpha", func() int64 { return int64(c.at.Alpha()) })
		r.Ratio("red.alpha_buffer_hit_rate",
			func() int64 { return c.s.Alpha.BufferHits },
			func() int64 { return c.s.Alpha.BufferHits + c.s.Alpha.BufferMiss })
		r.Counter("red.bypassed", func() int64 { return c.s.Alpha.Bypassed })
		r.Counter("red.admissions", func() int64 { return c.s.Alpha.Admissions })
		r.Counter("red.alpha_adaptations", func() int64 { return c.s.Alpha.Adaptations })
		c.at.tr = tel.Tracer
	}
	if c.p.gamma {
		r.Gauge("red.gamma", func() int64 { return int64(c.gamma) })
		r.Counter("red.invalidations", func() int64 { return c.s.Gamma.Invalidations })
		r.Counter("red.rcount_updates", func() int64 { return c.s.Gamma.RCountUpdates })
		r.Counter("red.zero_reuse_evict", func() int64 { return c.s.Gamma.ZeroReuseEvict })
	}
	if c.rcu != nil {
		r.Gauge("red.rcu_occupancy", func() int64 { return int64(c.rcu.Len()) })
		r.Counter("red.rcu_enqueued", func() int64 { return c.s.RCU.Enqueued })
		r.Counter("red.rcu_piggyback", func() int64 { return c.s.RCU.Piggyback })
		r.Counter("red.rcu_idle_flush", func() int64 { return c.s.RCU.IdleFlush })
		r.Counter("red.rcu_dropped", func() int64 { return c.s.RCU.Dropped })
		r.Counter("red.rcu_block_hits", func() int64 { return c.s.RCU.BlockHits })
		r.Counter("red.rcu_merged", func() int64 { return c.s.RCU.Merged })
		c.rcu.tr = tel.Tracer
	}
}
