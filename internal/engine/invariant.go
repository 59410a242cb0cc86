package engine

import "fmt"

// CheckHeap validates the event queue's structural invariants: the
// 4-ary heap order over (at, seq), no queued event before the current
// cycle or beyond the sequence allocator, and the timing wheel's
// layout (see checkWheel).  It is the engine leg of the opt-in online
// invariant checker; O(n) over the queue, never called on the
// steady-state path.
func (e *Engine) CheckHeap() error {
	h := e.events
	if len(h) > 0 && h[0].at < e.now {
		return fmt.Errorf("engine: earliest queued event at cycle %d is in the past (now %d)",
			h[0].at, e.now)
	}
	for i := range h {
		if i > 0 {
			p := (i - 1) >> 2
			if before(h[i].at, h[i].seq, h[p].at, h[p].seq) {
				return fmt.Errorf("engine: heap order violated at index %d: (%d, %d) sorts before parent %d's (%d, %d)",
					i, h[i].at, h[i].seq, p, h[p].at, h[p].seq)
			}
		}
		if h[i].seq > e.seq {
			return fmt.Errorf("engine: event %d carries sequence %d beyond the allocator's %d",
				i, h[i].seq, e.seq)
		}
	}
	return e.checkWheel()
}

// checkWheel validates the timing wheel: every slot's FIFO holds events
// of one cycle within [now, now+wheelSize) congruent to the slot, in
// strictly increasing seq no later than the allocator's, ending at the
// slot's tail; a slot's occupancy bit is set exactly when it is
// non-empty; the wheel count equals the events linked into slots; and
// the remaining cells are free and zero.
// Links are followed at most len(slab) times per slot, so a cycle in a
// corrupted FIFO is reported rather than looped on.
func (e *Engine) checkWheel() error {
	linked := 0
	for s := range e.head {
		occupied := e.occ[s>>6]&(1<<(uint(s)&63)) != 0
		if occupied != (e.head[s] != 0) {
			return fmt.Errorf("engine: wheel slot %d occupancy bit %v disagrees with its FIFO (head %d)",
				s, occupied, e.head[s])
		}
		var last int32
		steps := 0
		for i := e.head[s]; i != 0; i = e.slab[i].next {
			if i < 0 || int(i) >= len(e.slab) || steps == len(e.slab) {
				return fmt.Errorf("engine: wheel slot %d FIFO is corrupt at cell %d (a slab of %d cells)", s, i, len(e.slab))
			}
			ev := &e.slab[i].ev
			if ev.at < e.now || ev.at-e.now >= wheelSize || uint64(ev.at)&wheelMask != uint64(s) {
				return fmt.Errorf("engine: wheel slot %d holds an event for cycle %d, outside its one cycle in [%d, %d)",
					s, ev.at, e.now, e.now+wheelSize)
			}
			if last != 0 {
				prev := &e.slab[last].ev
				if ev.at != prev.at || ev.seq <= prev.seq {
					return fmt.Errorf("engine: wheel slot %d FIFO out of order: (%d, %d) follows (%d, %d)",
						s, ev.at, ev.seq, prev.at, prev.seq)
				}
			}
			if ev.seq > e.seq {
				return fmt.Errorf("engine: wheel slot %d event carries sequence %d beyond the allocator's %d",
					s, ev.seq, e.seq)
			}
			last = i
			steps++
		}
		if last != 0 && e.tail[s] != last {
			return fmt.Errorf("engine: wheel slot %d tail %d is not its last cell %d", s, e.tail[s], last)
		}
		linked += steps
	}
	if linked != e.wheelN {
		return fmt.Errorf("engine: wheel count %d disagrees with the %d events linked into slots", e.wheelN, linked)
	}
	// Every other cell but the reserved cell 0 is on the free list and
	// holds a zero event: reserving a cell stores only at and seq, so a
	// stale callback there would fire in place of the scheduled one.
	free := 0
	for i := e.free; i != 0; i = e.slab[i].next {
		if i < 0 || int(i) >= len(e.slab) || free == len(e.slab) {
			return fmt.Errorf("engine: wheel free list is corrupt at cell %d (a slab of %d cells)", i, len(e.slab))
		}
		if ev := &e.slab[i].ev; ev.at != 0 || ev.seq != 0 || ev.fn != nil || ev.fnTimed != nil || ev.fnArg != nil || ev.arg != 0 {
			return fmt.Errorf("engine: free wheel cell %d holds an event (at %d, seq %d)", i, ev.at, ev.seq)
		}
		free++
	}
	if len(e.slab) > 0 && linked+free != len(e.slab)-1 {
		return fmt.Errorf("engine: %d linked and %d free wheel cells do not account for a slab of %d", linked, free, len(e.slab))
	}
	return nil
}
