package engine

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"redcache/internal/ckpt"
)

// testDelay maps one script byte to a scheduling delay with the mix the
// queue must get right: same-cycle and next-cycle bursts (the seq
// tie-break and merges within one slot), short and long wheel delays,
// both sides of the wheel/heap boundary, and heap delays beyond two
// wheel spans (slot wrap-around before the event is due).
func testDelay(a byte) int64 {
	switch {
	case a < 96:
		return int64(a & 1)
	case a < 160:
		return int64(a - 96)
	case a < 224:
		return int64(a-160) * 4
	case a < 240:
		return wheelSize - 8 + int64(a-224)
	default:
		return 2*wheelSize - 8 + int64(a-240)*3
	}
}

// TestHeapPopOrderMatchesReferenceSort is the property test backing the
// queue: for any schedule (including same-cycle bursts and delays on
// both sides of the wheel/heap boundary), events pop in exactly
// (at, seq) order — the order a stable sort by firing time produces over
// the schedule sequence.
func TestHeapPopOrderMatchesReferenceSort(t *testing.T) {
	f := func(raw []byte) bool {
		e := New()
		delays := make([]int64, len(raw))
		var fired []int
		for id, b := range raw {
			id := id
			delays[id] = testDelay(b)
			e.Schedule(delays[id], func() { fired = append(fired, id) })
		}
		e.Run()

		want := make([]int, len(delays))
		for i := range want {
			want[i] = i
		}
		// Reference: stable sort by firing time keeps schedule order
		// within a cycle — exactly the (at, seq) contract.
		sort.SliceStable(want, func(i, j int) bool {
			return delays[want[i]] < delays[want[j]]
		})
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHeapInterleavedScheduleStep drives the queue through an arbitrary
// interleaving of Schedule, Step, RunUntil/RunWithin deadlines,
// callbacks that schedule more events, a periodic tick and checkpoint
// round trips, checking every fired event, the clock and the queue
// length against a reference model (see orderRig).
func TestHeapInterleavedScheduleStep(t *testing.T) {
	f := func(script []byte) bool {
		newOrderRig(t).run(script)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Long scripts keep dozens of events in flight across many wheel
	// revolutions, which quick's short slices rarely do.
	for seed := int64(1); seed <= 8; seed++ {
		newOrderRig(t).run(orderScript(rand.New(rand.NewSource(seed)), 2000))
	}
}

// FuzzEngineOrder runs the reference-model rig on arbitrary scripts.
func FuzzEngineOrder(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(orderScript(rand.New(rand.NewSource(seed)), 200))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip("script longer than the queue bound needs")
		}
		newOrderRig(t).run(script)
	})
}

// orderScript returns a random script of n two-byte operations.
func orderScript(rng *rand.Rand, n int) []byte {
	s := make([]byte, 1+2*n)
	rng.Read(s)
	return s
}

// Labels of the events the rig schedules.  ScheduleArg events carry
// their own id in arg; the other variants use fixed callbacks.
const (
	labelFn    = 1 << 40
	labelTimed = 2 << 40
	labelTick  = 3 << 40
	labelChild = 4 << 40
	// argChain in a ScheduleArg event's arg makes its callback schedule
	// a child event arg&argDelay cycles after it fires; the id then sits
	// above argShift.
	argChain = 1 << 39
	argDelay = 1<<16 - 1
	argShift = 16
)

// refEvent is one event of the reference model's queue.
type refEvent struct {
	at    int64
	seq   uint64
	label uint64
	tick  bool
}

// firing is one observed callback: its label and the clock it saw.
type firing struct {
	label uint64
	now   int64
}

// orderRig runs a script against the engine and a reference model: a
// flat list scanned linearly for the (at, seq) minimum that restates
// the engine's run-loop rules (deadlines, the frozen clock for trailing
// periodic ticks, periodic auto-stop) without any of its queue code.
type orderRig struct {
	t   *testing.T
	e   *Engine
	reg *FnRegistry
	got []firing

	plain   func()
	timedFn func(int64)
	argFn   func(uint64)
	tickFn  func(int64)

	period int64 // 0: no periodic

	// The reference model.
	ref           []refEvent
	now           int64
	seq           uint64
	firedN        uint64
	periodicTicks int
	stopped       bool
	want          []firing
	checked       int // want[:checked] already matched got
}

func newOrderRig(t *testing.T) *orderRig {
	r := &orderRig{t: t}
	r.plain = func() { r.got = append(r.got, firing{labelFn, r.e.Now()}) }
	r.timedFn = func(now int64) { r.got = append(r.got, firing{labelTimed, now}) }
	r.tickFn = func(now int64) { r.got = append(r.got, firing{labelTick, now}) }
	r.argFn = func(arg uint64) {
		r.got = append(r.got, firing{arg &^ argChain, r.e.Now()})
		if arg&argChain != 0 {
			id := (arg &^ argChain) >> argShift
			r.e.ScheduleArg(r.e.Now()+int64(arg&argDelay), r.argFn, labelChild|id)
		}
	}
	return r
}

// wire builds a fresh engine with every rig callback registered, as
// a machine's wire-up does before a restore.
func (r *orderRig) wire() {
	r.e = New()
	r.reg = NewFnRegistry()
	r.e.AttachRegistry(r.reg)
	r.reg.RegisterFn(Key(KeyCPUCore, 0, 0), r.plain)
	r.reg.RegisterTimed(Key(KeyCPUCore, 1, 0), r.timedFn)
	r.reg.RegisterArg(Key(KeyCPUCore, 2, 0), r.argFn)
	if r.period > 0 {
		r.e.SchedulePeriodic(r.period, r.tickFn)
	}
}

// run interprets script: the first byte picks the periodic's period
// (none when even), then each two-byte pair is one operation.  The
// period is at least 8 cycles so that ticks, which fire as long as any
// other event is queued, stay a minority of a script's firings.
func (r *orderRig) run(script []byte) {
	if len(script) > 0 && script[0]&1 == 1 {
		r.period = 8 + testDelay(script[0])
	}
	r.wire()
	if r.period > 0 {
		r.periodicTicks = 1
		r.push(r.period, 0, true)
	}
	for i := 1; i+1 < len(script) && !r.t.Failed(); i += 2 {
		op, a := script[i]%8, script[i+1]
		d := testDelay(a)
		switch op {
		case 0, 1:
			id := uint64(i)
			r.e.ScheduleArg(r.e.Now()+d, r.argFn, id)
			r.push(r.now+d, id, false)
		case 2:
			id := uint64(i)
			cd := testDelay(a ^ 0x5a)
			r.e.ScheduleArg(r.e.Now()+d, r.argFn, id<<argShift|argChain|uint64(cd))
			r.push(r.now+d, id<<argShift|uint64(cd), false)
		case 3:
			if a&1 == 0 {
				r.e.Schedule(r.e.Now()+d, r.plain)
				r.push(r.now+d, labelFn, false)
			} else {
				r.e.ScheduleTimed(r.e.Now()+d, r.timedFn)
				r.push(r.now+d, labelTimed, false)
			}
		case 4:
			ok := r.e.Step()
			if want := len(r.ref) > 0; ok != want {
				r.t.Fatalf("op %d: Step() = %v, want %v", i, ok, want)
			}
			if ok {
				ev := r.pop()
				r.now = ev.at
				r.fire(ev)
			}
		case 5:
			deadline := r.now + d
			r.e.RunUntil(deadline)
			r.refRunUntil(deadline)
		case 6:
			deadline := r.now + d
			drained := r.e.RunWithin(deadline)
			if want := r.refRunWithin(deadline); drained != want {
				r.t.Fatalf("op %d: RunWithin(%d) = %v, want %v", i, deadline, drained, want)
			}
		case 7:
			r.roundTrip()
		}
		r.check(i)
	}
	r.e.Run()
	r.refRunWithin(math.MaxInt64)
	r.check(len(script))
}

// push queues a reference event.  Only ScheduleArg events carry an
// id-bearing label, so their ids are unique; the shared labels of the
// other variants still pin the position of every firing.
func (r *orderRig) push(at int64, label uint64, tick bool) {
	r.seq++
	r.ref = append(r.ref, refEvent{at: at, seq: r.seq, label: label, tick: tick})
}

// pop removes the reference queue's (at, seq) minimum.
func (r *orderRig) pop() refEvent {
	m := 0
	for i := 1; i < len(r.ref); i++ {
		if before(r.ref[i].at, r.ref[i].seq, r.ref[m].at, r.ref[m].seq) {
			m = i
		}
	}
	ev := r.ref[m]
	r.ref = append(r.ref[:m], r.ref[m+1:]...)
	return ev
}

// fire runs a reference event's callback at ev.at.
func (r *orderRig) fire(ev refEvent) {
	r.firedN++
	if ev.tick {
		r.periodicTicks--
		if r.stopped {
			return
		}
		r.want = append(r.want, firing{labelTick, ev.at})
		if len(r.ref) == r.periodicTicks {
			r.stopped = true
			return
		}
		r.periodicTicks++
		r.push(ev.at+r.period, 0, true)
		return
	}
	r.want = append(r.want, firing{ev.label, ev.at})
	if ev.label < labelFn && ev.label>>argShift != 0 {
		// A chaining ScheduleArg event, labelled id<<argShift|childDelay.
		r.push(ev.at+int64(ev.label&argDelay), labelChild|ev.label>>argShift, false)
	}
}

func (r *orderRig) refRunUntil(deadline int64) {
	for len(r.ref) > 0 {
		m := r.min()
		if m.at > deadline {
			break
		}
		ev := r.pop()
		r.now = ev.at
		r.fire(ev)
	}
	if r.now < deadline {
		r.now = deadline
	}
}

func (r *orderRig) refRunWithin(deadline int64) bool {
	for len(r.ref) > 0 {
		if r.min().at > deadline {
			return false
		}
		ev := r.pop()
		if len(r.ref) < r.periodicTicks {
			ev.at = r.now
		} else {
			r.now = ev.at
		}
		r.fire(ev)
	}
	return true
}

// min returns the reference queue's (at, seq) minimum without removing it.
func (r *orderRig) min() refEvent {
	m := r.ref[0]
	for _, ev := range r.ref[1:] {
		if before(ev.at, ev.seq, m.at, m.seq) {
			m = ev
		}
	}
	return m
}

// roundTrip saves the engine, wires a fresh one and restores into it;
// the script then continues on the restored engine.
func (r *orderRig) roundTrip() {
	var w ckpt.Writer
	if err := r.e.SaveState(&w, r.reg); err != nil {
		r.t.Fatalf("SaveState: %v", err)
	}
	fired, pending := r.e.Fired, r.e.Pending()
	r.wire()
	if err := r.e.LoadState(ckpt.NewReader(w.Bytes()), r.reg); err != nil {
		r.t.Fatalf("LoadState: %v", err)
	}
	if r.e.Fired != fired || r.e.Pending() != pending {
		r.t.Fatalf("restore: Fired %d Pending %d, want %d and %d", r.e.Fired, r.e.Pending(), fired, pending)
	}
	if r.period > 0 {
		// The restored periodic's stopped flag comes from the checkpoint.
		if got := r.e.periodics[0].Stopped(); got != r.stopped {
			r.t.Fatalf("restore: periodic stopped = %v, want %v", got, r.stopped)
		}
	}
}

// check compares the engine with the reference after operation i.
func (r *orderRig) check(i int) {
	r.t.Helper()
	if err := r.e.CheckHeap(); err != nil {
		r.t.Fatalf("op %d: %v", i, err)
	}
	if r.e.Now() != r.now || r.e.Pending() != len(r.ref) || r.e.Fired != r.firedN {
		r.t.Fatalf("op %d: Now %d Pending %d Fired %d, want %d, %d and %d",
			i, r.e.Now(), r.e.Pending(), r.e.Fired, r.now, len(r.ref), r.firedN)
	}
	if len(r.got) != len(r.want) {
		r.t.Fatalf("op %d: fired %d callbacks, want %d", i, len(r.got), len(r.want))
	}
	for j := r.checked; j < len(r.want); j++ {
		if r.got[j] != r.want[j] {
			r.t.Fatalf("op %d: callback %d fired %+v, want %+v", i, j, r.got[j], r.want[j])
		}
	}
	r.checked = len(r.want)
}

// TestPopClearsVacatedSlot guards the memory-hygiene detail on both
// halves of the queue: the slab cell a wheel pop frees and the heap
// slot a heap pop vacates must be zeroed, so a completed event's
// callback does not stay reachable through spare capacity.
func TestPopClearsVacatedSlot(t *testing.T) {
	e := New()
	e.Schedule(1, func() {})           // wheel
	e.Schedule(wheelSize+1, func() {}) // heap
	e.Schedule(wheelSize+2, func() {}) // heap
	cell := e.head[1]
	e.Step()
	if c := e.slab[cell]; c.ev.fn != nil || c.ev.fnTimed != nil || c.ev.fnArg != nil {
		t.Fatal("wheel pop left a stale callback in the freed slab cell")
	}
	e.Step()
	tail := e.events[:2][1] // vacated slot within capacity
	if tail.fn != nil || tail.fnTimed != nil || tail.fnArg != nil {
		t.Fatal("heap pop left a stale callback in the vacated heap slot")
	}
}

// TestScheduleVariants checks ScheduleTimed and ScheduleArg fire with
// the right values and honor the shared (at, seq) ordering.
func TestScheduleVariants(t *testing.T) {
	e := New()
	var got []int64
	e.ScheduleTimed(7, func(now int64) { got = append(got, now) })
	e.ScheduleArg(7, func(arg uint64) { got = append(got, int64(arg)) }, 42)
	e.Schedule(7, func() { got = append(got, e.Now()) })
	e.ScheduleTimed(3, func(now int64) { got = append(got, -now) })
	if end := e.Run(); end != 7 {
		t.Fatalf("final time = %d, want 7", end)
	}
	want := []int64{-3, 7, 42, 7}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestScheduleVariantsPastPanics pins the past-scheduling panic on the
// new variants too.
func TestScheduleVariantsPastPanics(t *testing.T) {
	for name, schedule := range map[string]func(*Engine){
		"ScheduleTimed": func(e *Engine) { e.ScheduleTimed(5, func(int64) {}) },
		"ScheduleArg":   func(e *Engine) { e.ScheduleArg(5, func(uint64) {}, 0) },
	} {
		e := New()
		e.Schedule(10, func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic scheduling in the past", name)
				}
			}()
			schedule(e)
		})
		e.Run()
	}
}

// TestRunPanicsAtExactlyLimit pins the satellite fix: with Limit = N
// and more than N events pending, exactly N events execute before the
// panic; a run of exactly N events completes without panicking.
func TestRunPanicsAtExactlyLimit(t *testing.T) {
	e := New()
	e.Limit = 10
	fired := 0
	var chain func()
	chain = func() { fired++; e.After(1, chain) }
	e.Schedule(0, chain)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on event limit")
			}
		}()
		e.Run()
	}()
	if fired != 10 {
		t.Fatalf("fired %d events before the limit panic, want exactly 10", fired)
	}

	e2 := New()
	e2.Limit = 5
	for i := 0; i < 5; i++ {
		e2.Schedule(int64(i), func() {})
	}
	e2.Run() // exactly Limit events: must not panic
	if e2.Fired != 5 {
		t.Fatalf("Fired = %d, want 5", e2.Fired)
	}
}
