// Package engine provides a deterministic discrete-event simulation
// kernel used by every timed component in the simulator (cores, cache
// controllers, DRAM channels).
//
// Time is measured in integer CPU cycles.  Events scheduled for the same
// cycle fire in schedule order (a monotonically increasing sequence
// number breaks ties), which makes whole-system runs bit-reproducible.
//
// The event queue has two parts.  A timing wheel of wheelSize one-cycle
// slots takes every event due fewer than wheelSize cycles after the
// clock when it is scheduled (about 99% of the simulator's events):
// push appends to the slot's FIFO and pop takes the head of the
// earliest occupied slot, both O(1).  Later events go to a value-typed
// 4-ary min-heap.  Pop takes whichever of the wheel's head and the
// heap's root orders first by (at, seq), so the firing order is exactly
// that of a single heap.  Events are stored by value in two slices (the
// heap and the wheel's slab): no per-event heap allocation, no
// interface boxing, and the sift loops are written out by hand so the
// comparator inlines.  On the steady-state path (queue capacity warmed
// up, callbacks created once) Schedule followed by Step performs zero
// allocations — a contract pinned by AllocsPerRun guard tests and
// relied on by every hot path in internal/dram, internal/cpu, and
// internal/hbm.
package engine

import (
	"math"
	"math/bits"
)

// Event is a callback bound to a firing time.  Exactly one of the
// three callback fields is set, matching the scheduling variant used:
// fn (Schedule), fnTimed (ScheduleTimed), or fnArg+arg (ScheduleArg).
// Events are stored by value inside the heap slice or the wheel's slab.
type Event struct {
	at      int64
	seq     uint64
	fn      func()
	fnTimed func(now int64)
	fnArg   func(arg uint64)
	arg     uint64
}

// wheelSize is the timing wheel's span in cycles: an event due fewer
// than wheelSize cycles after the clock goes to the wheel, any other to
// the heap.  Measured on the perfbench workloads, 99% of events are due
// within 256 cycles, and a 1024-slot wheel ran no faster.
const (
	wheelSize  = 256
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// Queue locations that peek reports besides a wheel slot (0..wheelSize-1).
const (
	srcHeap  = wheelSize     // the earliest event is the heap's root
	srcEmpty = wheelSize + 1 // nothing is queued
)

// wheelCell is one cell of the wheel's slab: an event and the index of
// the next cell in its slot's FIFO, or in the free list.  Index 0 is
// never used for an event, so a zero link means "none".
type wheelCell struct {
	ev   Event
	next int32
}

// Engine is a discrete-event scheduler.  The zero value is ready to use.
type Engine struct {
	now int64
	seq uint64
	// events is a 4-ary min-heap ordered by (at, seq) holding the events
	// that were due wheelSize or more cycles ahead when scheduled.
	// 4-ary beats binary here: sift-down does 2x fewer levels (and
	// therefore 2x fewer cache-missing element moves) at the cost of up
	// to three extra comparisons per level, which stay within one cache
	// line of 48 B events.
	events []Event

	// The timing wheel.  Slot s holds the events due at the one cycle
	// in [now, now+wheelSize) that is congruent to s, as a FIFO of slab
	// cells from head[s] to tail[s].  An event for cycle c+wheelSize
	// can enter slot c's FIFO only once the clock has passed c, and
	// sequence numbers only grow, so appending keeps each FIFO in seq
	// order.  occ has bit s set exactly when slot s is non-empty.
	slab   []wheelCell        //redvet:foldexempt — derived queue storage; checkpoints save the queued events themselves as (at, seq) tuples
	free   int32              //redvet:foldexempt — derived free-list head over slab, rebuilt on restore
	head   [wheelSize]int32   //redvet:foldexempt — derived slot FIFO heads, rebuilt on restore by re-queuing the saved events
	tail   [wheelSize]int32   //redvet:foldexempt — derived slot FIFO tails, rebuilt on restore by re-queuing the saved events
	occ    [wheelWords]uint64 //redvet:foldexempt — derived slot occupancy bitmap, rebuilt on restore by re-queuing the saved events
	wheelN int                //redvet:foldexempt — derived count of events linked into slots, rebuilt on restore

	// Fired counts events executed; useful for run-away detection in tests.
	Fired uint64
	// Limit, when nonzero, aborts Run after this many events.
	Limit uint64
	// periodicTicks counts currently-queued Periodic tick events, so a
	// periodic can tell "only other periodics remain" apart from "real
	// work is still pending" when deciding whether to auto-stop.
	periodicTicks int
	// periodics records every Periodic created on this engine in
	// creation order, and reg (when attached before any
	// SchedulePeriodic call) keys their tick callbacks for
	// checkpointing.  Both are nil/empty outside checkpointable runs.
	periodics []*Periodic
	reg       *FnRegistry
}

// AttachRegistry wires the callback registry for checkpointable runs.
// Must be called before any SchedulePeriodic so tick ordinals match
// between the saving and the restoring machine.
func (e *Engine) AttachRegistry(reg *FnRegistry) {
	if len(e.periodics) > 0 {
		panic("engine: AttachRegistry after SchedulePeriodic")
	}
	e.reg = reg
}

// New returns an empty engine at cycle 0.
func New() *Engine { return &Engine{} }

// Now reports the current simulation time in cycles.
//
//redvet:hotpath
func (e *Engine) Now() int64 { return e.now }

// before reports whether (at1, seq1) orders before (at2, seq2).  The
// pair is unique per event, so this is a strict total order and every
// correct queue pops the exact same sequence — the determinism contract
// does not depend on heap arity, the wheel, or sift implementation.
//
//redvet:hotpath
func before(at1 int64, seq1 uint64, at2 int64, seq2 uint64) bool {
	return at1 < at2 || (at1 == at2 && seq1 < seq2)
}

// reserve queues a new event due at `at` with sequence number seq — on
// the wheel when it is due within wheelSize cycles, on the heap
// otherwise — and returns it with at and seq set and every callback
// field zero, for the caller to fill in.  The pointer is valid until
// the next reserve.  Reserving the slot and filling it in place, rather
// than passing a whole Event down, keeps the 48 B value from being
// spilled and reloaded on its way into the queue.
//
//redvet:hotpath
func (e *Engine) reserve(at int64, seq uint64) *Event {
	if uint64(at-e.now) < wheelSize {
		return e.wheelReserve(at, seq)
	}
	return e.heapReserve(at, seq)
}

// wheelReserve appends a cell to its cycle's slot FIFO.  Free cells
// hold zero events, so only at and seq need storing.  Growth is split
// into growSlab so the steady-state body is statically allocation-free.
//
//redvet:hotpath
func (e *Engine) wheelReserve(at int64, seq uint64) *Event {
	if e.free == 0 {
		e.growSlab()
	}
	i := e.free
	c := &e.slab[i]
	e.free = c.next
	c.next = 0
	c.ev.at = at
	c.ev.seq = seq
	s := uint64(at) & wheelMask
	if e.head[s] == 0 {
		e.head[s] = i
		e.occ[s>>6] |= 1 << (s & 63)
	} else {
		e.slab[e.tail[s]].next = i
	}
	e.tail[s] = i
	e.wheelN++
	return &c.ev
}

// growSlab doubles the slab (64 cells minimum) and threads the new
// cells onto the free list, which must be empty.  Like the heap, the
// slab reaches the run's high-water mark during warm-up and never grows
// again.
//
//redvet:coldstart — amortized slab growth; reached only until the run's high-water mark
func (e *Engine) growSlab() {
	n := len(e.slab)
	ns := make([]wheelCell, max(64, 2*n))
	copy(ns, e.slab)
	for i := int32(len(ns) - 1); i >= int32(max(n, 1)); i-- {
		ns[i].next = e.free
		e.free = i
	}
	e.slab = ns
}

// wheelFirst returns the slot holding the wheel's earliest events; the
// wheel must be non-empty.  Slots are scanned in cycle order starting
// from the clock's slot: the rest of its bitmap word, the other words,
// then the wrapped-around low bits of the first word.
//
//redvet:hotpath
func (e *Engine) wheelFirst() uint64 {
	s := uint64(e.now) & wheelMask
	w := s >> 6
	if m := e.occ[w] >> (s & 63); m != 0 {
		return s + uint64(bits.TrailingZeros64(m))
	}
	for k := uint64(1); k <= wheelWords; k++ {
		wk := (w + k) & (wheelWords - 1)
		if m := e.occ[wk]; m != 0 {
			return wk<<6 + uint64(bits.TrailingZeros64(m))
		}
	}
	panic("engine: timing wheel count and occupancy bitmap disagree")
}

// wheelPop unlinks the head of slot s, which must be non-empty, into
// *ev.  The vacated cell is zeroed before it joins the free list so
// stale callback values cannot pin memory.
//
//redvet:hotpath
func (e *Engine) wheelPop(s uint64, ev *Event) {
	i := e.head[s]
	c := &e.slab[i]
	*ev = c.ev
	e.head[s] = c.next
	if c.next == 0 {
		e.occ[s>>6] &^= 1 << (s & 63)
	}
	*c = wheelCell{next: e.free}
	e.free = i
	e.wheelN--
}

// heapReserve opens a heap slot for (at, seq) with a hand-written
// sift-up: the hole index chases up the parent chain and the new event
// is stored exactly once.  Growth is split into grow so the
// steady-state body is statically allocation-free.
//
//redvet:hotpath
func (e *Engine) heapReserve(at int64, seq uint64) *Event {
	if len(e.events) == cap(e.events) {
		e.grow()
	}
	h := e.events
	i := len(h)
	h = h[:i+1]
	for i > 0 {
		p := (i - 1) >> 2
		if before(h[p].at, h[p].seq, at, seq) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = Event{at: at, seq: seq}
	e.events = h
	return &h[i]
}

// grow doubles the heap's capacity (16 minimum).  Amortized over a
// run the queue reaches its high-water mark during warm-up and never
// grows again, which is exactly the contract the AllocsPerRun guards
// measure after warming the engine.
//
//redvet:coldstart — amortized queue growth; reached only until the run's high-water mark
func (e *Engine) grow() {
	h := e.events
	nh := make([]Event, len(h), max(16, 2*cap(h)))
	copy(nh, h)
	e.events = nh
}

// heapPop removes the heap's minimum event into *ev, sifting the last
// element down from the root by hand.  The vacated tail slot is zeroed
// so stale callback values cannot pin memory.
//
//redvet:hotpath
func (e *Engine) heapPop(ev *Event) {
	h := e.events
	*ev = h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = Event{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if before(h[j].at, h[j].seq, h[m].at, h[m].seq) {
					m = j
				}
			}
			if !before(h[m].at, h[m].seq, last.at, last.seq) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	e.events = h
}

// peek locates the earliest queued event without removing it: src is
// the wheel slot whose head it is, srcHeap for the heap's root, or
// srcEmpty (with at 0) when nothing is queued.  Every run loop peeks,
// checks its own stop conditions, then hands src to take.
//
//redvet:hotpath
func (e *Engine) peek() (at int64, src uint64) {
	if e.wheelN == 0 {
		if len(e.events) == 0 {
			return 0, srcEmpty
		}
		return e.events[0].at, srcHeap
	}
	s := e.wheelFirst()
	c := &e.slab[e.head[s]]
	if len(e.events) > 0 && before(e.events[0].at, e.events[0].seq, c.ev.at, c.ev.seq) {
		return e.events[0].at, srcHeap
	}
	return c.ev.at, s
}

// take removes the event peek located at src into *ev.
//
//redvet:hotpath
func (e *Engine) take(src uint64, ev *Event) {
	if src == srcHeap {
		e.heapPop(ev)
		return
	}
	e.wheelPop(src, ev)
}

// fire invokes ev's callback.
//
//redvet:hotpath
func (e *Engine) fire(ev *Event) {
	switch {
	case ev.fn != nil:
		ev.fn()
	case ev.fnTimed != nil:
		ev.fnTimed(ev.at)
	default:
		ev.fnArg(ev.arg)
	}
}

// checkTime panics on scheduling in the past, which would silently
// reorder time.
//
//redvet:hotpath
func (e *Engine) checkTime(at int64) {
	if at < e.now {
		panic("engine: scheduling event in the past")
	}
}

// add validates the firing time, allocates the tie-break sequence
// number and reserves the event's queue slot — the prologue shared by
// every scheduling variant, hoisted so Schedule/ScheduleTimed/
// ScheduleArg stay three trivially inlinable wrappers that store their
// callback.
//
//redvet:hotpath
func (e *Engine) add(at int64) *Event {
	e.checkTime(at)
	e.seq++
	return e.reserve(at, e.seq)
}

// Schedule enqueues fn to run at cycle `at`.  For zero-allocation
// steady-state scheduling the callback should be created once (per
// component) and reused; a closure literal at the call site allocates
// on every call.
//
//redvet:hotpath
func (e *Engine) Schedule(at int64, fn func()) {
	e.add(at).fn = fn
}

// ScheduleTimed enqueues fn to run at cycle `at`, passing the firing
// cycle to the callback.  This is the allocation-free form of the
// common completion pattern `Schedule(at, func() { done(at) })`: the
// existing func value is stored in the event verbatim instead of being
// wrapped in a fresh closure.
//
//redvet:hotpath
func (e *Engine) ScheduleTimed(at int64, fn func(now int64)) {
	e.add(at).fnTimed = fn
}

// ScheduleArg enqueues fn to run at cycle `at` with a fixed argument.
// Components that wake many sub-units (e.g. one DRAM channel out of
// eight) register a single func once and encode the sub-unit index in
// arg, so the per-wake closure allocation disappears.
//
//redvet:hotpath
func (e *Engine) ScheduleArg(at int64, fn func(arg uint64), arg uint64) {
	ev := e.add(at)
	ev.fnArg = fn
	ev.arg = arg
}

// After enqueues fn to run delay cycles from now.
//
//redvet:hotpath
func (e *Engine) After(delay int64, fn func()) { e.Schedule(e.now+delay, fn) }

// Pending reports the number of queued events, on the wheel and the
// heap together.
//
//redvet:hotpath
func (e *Engine) Pending() int { return len(e.events) + e.wheelN }

// Step executes the single earliest event and returns true, or returns
// false when the queue is empty.
//
//redvet:hotpath
func (e *Engine) Step() bool {
	_, src := e.peek()
	if src == srcEmpty {
		return false
	}
	var ev Event
	e.take(src, &ev)
	e.now = ev.at
	e.Fired++
	e.fire(&ev)
	return true
}

// Run executes events until the queue drains (or Limit is hit) and
// returns the final simulation time: RunWithin without a deadline.
//
//redvet:hotpath
func (e *Engine) Run() int64 {
	e.RunWithin(math.MaxInt64)
	return e.now
}

// RunWithin executes events until the queue drains or the earliest
// queued event would fire after deadline, reporting whether the queue
// drained.  Unlike RunUntil the clock is left at the last fired event,
// never forced to the deadline — a run that finishes inside its budget
// is indistinguishable from an unbounded Run, which is what makes a
// generous watchdog budget observationally free.
//
// The Limit check fires *before* an event executes, so the panic
// triggers at exactly Limit fired events (a run that completes in
// exactly Limit events does not panic).  It is the backstop for
// same-cycle scheduling loops, which never advance past the deadline on
// their own.
//
// Once only Periodic ticks remain queued, the clock freezes: each
// trailing tick fires observing the time of the last real event rather
// than dragging the clock up to one partial period past it.  This is
// what makes periodic instrumentation observationally free — the
// engine ends a run at the same cycle with or without periodics, so
// anything the caller does at Now() afterwards (e.g. the writeback
// drain) is unperturbed.
//
//redvet:hotpath
func (e *Engine) RunWithin(deadline int64) bool {
	var ev Event
	for {
		at, src := e.peek()
		if src == srcEmpty {
			return true
		}
		if at > deadline {
			return false
		}
		if e.Limit != 0 && e.Fired >= e.Limit {
			panic("engine: event limit exceeded (likely a scheduling loop)")
		}
		e.take(src, &ev)
		if e.Pending() < e.periodicTicks {
			// This pop took a trailing periodic tick (pre-pop the queue
			// held nothing but ticks): fire it at the frozen clock.
			ev.at = e.now
		} else {
			e.now = ev.at
		}
		e.Fired++
		e.fire(&ev)
	}
}

// RunUntil executes events with firing time <= deadline, advancing the
// clock to the deadline if the queue drains earlier.
//
//redvet:hotpath
func (e *Engine) RunUntil(deadline int64) {
	var ev Event
	for {
		at, src := e.peek()
		if src == srcEmpty || at > deadline {
			break
		}
		e.take(src, &ev)
		e.now = ev.at
		e.Fired++
		e.fire(&ev)
	}
	if e.now < deadline {
		e.now = deadline
	}
}
