package dram

import "fmt"

// CheckInvariants validates the controller's internal state: ring-queue
// integrity, FR-FCFS occupancy bounds, the write-drain budget, bus
// timeline consistency, and the summed busy-cycle bound.  It is the
// dram leg of the opt-in online invariant checker (`redsim
// -invariants`); it allocates freely and must never run on the
// steady-state path.
func (c *Controller) CheckInvariants() error {
	for i := range c.chans {
		ch := &c.chans[i]
		if err := ch.rdq.check(); err != nil {
			return fmt.Errorf("dram: channel %d read queue: %w", i, err)
		}
		if err := ch.wrq.check(); err != nil {
			return fmt.Errorf("dram: channel %d write queue: %w", i, err)
		}
		if total := ch.rdq.len() + ch.wrq.len(); total > c.MaxQueue {
			return fmt.Errorf("dram: channel %d holds %d transactions, above MaxQueue %d",
				i, total, c.MaxQueue)
		}
		// drainBudget may go negative (the rdq-empty path serves writes
		// during a drain without consuming budget), but it can never
		// exceed one burst grant.
		if ch.drainBudget > wrBurst {
			return fmt.Errorf("dram: channel %d drain budget %d exceeds burst bound %d",
				i, ch.drainBudget, wrBurst)
		}
		if ch.busFreeAt < ch.lastDataEnd {
			return fmt.Errorf("dram: channel %d bus free at %d before last data end %d",
				i, ch.busFreeAt, ch.lastDataEnd)
		}
		for qi, q := range [2]*txnQueue{&ch.rdq, &ch.wrq} {
			prev := int64(-1 << 62)
			for j := 0; j < q.len(); j++ {
				t := q.at(j)
				if t.Loc.Channel != i {
					return fmt.Errorf("dram: channel %d queue %d holds transaction for channel %d",
						i, qi, t.Loc.Channel)
				}
				// Pushes happen in time order and removeAt preserves
				// relative order, so arrival times are non-decreasing.
				if t.Arrive < prev {
					return fmt.Errorf("dram: channel %d queue %d FIFO order broken at index %d (%d < %d)",
						i, qi, j, t.Arrive, prev)
				}
				prev = t.Arrive
			}
		}
	}
	// Bursts on one channel never overlap and each is charged when it
	// is scheduled, so the interface's busy cycles, summed over all
	// channels, fit within channels × the bus horizon (the current
	// cycle or the latest scheduled burst end, whichever is later).
	horizon := c.eng.Now()
	for i := range c.chans {
		horizon = max(horizon, c.chans[i].busFreeAt)
	}
	if limit := horizon * int64(len(c.chans)); c.iface.BusyCycles > limit {
		return fmt.Errorf("dram: %s busy cycles %d exceed %d channels x %d-cycle horizon",
			c.cfg.Name, c.iface.BusyCycles, len(c.chans), horizon)
	}
	return nil
}

// check validates the ring-buffer representation itself.
func (q *txnQueue) check() error {
	if q.n < 0 || q.n > len(q.buf) {
		return fmt.Errorf("ring count %d outside [0, %d]", q.n, len(q.buf))
	}
	if len(q.buf) > 0 && len(q.buf)&(len(q.buf)-1) != 0 {
		return fmt.Errorf("ring capacity %d is not a power of two", len(q.buf))
	}
	for i := 0; i < q.n; i++ {
		if q.at(i) == nil {
			return fmt.Errorf("live ring slot %d is nil", i)
		}
	}
	return nil
}
