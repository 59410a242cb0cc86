package dram

import "fmt"

// CheckInvariants validates the controller's internal state: queue and
// bank-index integrity, FR-FCFS occupancy bounds, the write-drain
// budget, bus timeline consistency, and the summed busy-cycle bound.
// It is the dram leg of the opt-in online invariant checker (`redsim
// -invariants`); it allocates freely and must never run on the
// steady-state path.
func (c *Controller) CheckInvariants() error {
	for i := range c.chans {
		ch := &c.chans[i]
		if err := c.checkQueue(&ch.rdq); err != nil {
			return fmt.Errorf("dram: channel %d read queue: %w", i, err)
		}
		if err := c.checkQueue(&ch.wrq); err != nil {
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
			j := 0
			for t := q.head; t != nil; t, j = t.next, j+1 {
				if t.Loc.Channel != i {
					return fmt.Errorf("dram: channel %d queue %d holds transaction for channel %d",
						i, qi, t.Loc.Channel)
				}
				// Pushes happen in time order and removal preserves
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

// checkQueue validates a queue's own structure: the list's links and
// length, strictly increasing sequence numbers, bank sub-lists that
// partition the list in sequence order with every transaction on its
// own Loc's sub-list, and each sub-list's cached row hit and its
// sequence number.
func (c *Controller) checkQueue(q *txnQueue) error {
	if len(q.banks) != c.banksPerChan {
		return fmt.Errorf("%d bank sub-lists, channel has %d banks", len(q.banks), c.banksPerChan)
	}
	onList := make(map[*Txn]bool, q.n)
	var prev *Txn
	for t := q.head; t != nil; prev, t = t, t.next {
		if onList[t] || len(onList) == q.n {
			return fmt.Errorf("list is longer than its count %d", q.n)
		}
		onList[t] = true
		if t.prev != prev {
			return fmt.Errorf("transaction %d's prev link does not point at its predecessor", len(onList)-1)
		}
		if prev != nil && t.seq <= prev.seq {
			return fmt.Errorf("sequence numbers not increasing at transaction %d (%d after %d)",
				len(onList)-1, t.seq, prev.seq)
		}
		if t.seq >= q.seq {
			return fmt.Errorf("transaction %d has sequence number %d, counter is at %d",
				len(onList)-1, t.seq, q.seq)
		}
	}
	if len(onList) != q.n || q.tail != prev {
		return fmt.Errorf("list holds %d transactions ending at %p, count is %d and tail %p",
			len(onList), prev, q.n, q.tail)
	}
	seen := 0
	for b := range q.banks {
		bq := &q.banks[b]
		var bprev, first *Txn
		for t := bq.head; t != nil; bprev, t = t, t.bnext {
			if !onList[t] {
				return fmt.Errorf("bank %d sub-list holds a transaction that is not on the list once", b)
			}
			onList[t] = false
			seen++
			if t.bprev != bprev {
				return fmt.Errorf("bank %d sub-list's prev link does not point at its predecessor", b)
			}
			if bprev != nil && t.seq <= bprev.seq {
				return fmt.Errorf("bank %d sub-list out of sequence order (%d after %d)", b, t.seq, bprev.seq)
			}
			if int(t.bank) != b || int(c.bankIndex(t.Loc)) != b {
				return fmt.Errorf("bank %d sub-list holds a transaction for bank %d (index %d)",
					b, c.bankIndex(t.Loc), t.bank)
			}
			if first == nil && t.Loc.Row == bq.hitRow {
				first = t
			}
		}
		if bq.tail != bprev {
			return fmt.Errorf("bank %d sub-list's tail is not its last transaction", b)
		}
		if bq.hit != first {
			return fmt.Errorf("bank %d cached row-%d hit is not the sub-list's oldest transaction for that row",
				b, bq.hitRow)
		}
		wantSeq := uint32(noSeq)
		if first != nil {
			wantSeq = first.seq
		}
		if bq.hitSeq != wantSeq {
			return fmt.Errorf("bank %d cached hit sequence number %d, want %d", b, bq.hitSeq, wantSeq)
		}
	}
	if seen != q.n {
		return fmt.Errorf("bank sub-lists hold %d transactions, list holds %d", seen, q.n)
	}
	return nil
}
