//go:build !race

package engine

import "testing"

// Zero-allocation guards: these pin the steady-state contract that the
// performance work of this repo is built on.  If a future change makes
// Schedule/Step allocate again, the benchmark numbers in EXPERIMENTS.md
// silently rot — so the contract is a test, not a convention.  (Race
// instrumentation perturbs allocation accounting; the guards are
// compiled out under -race.)

// warmQueue schedules n events spread over cycles [0, n) and runs them,
// so both the wheel's slab and the heap have grown past the capacity
// the guards below need.
func warmQueue(e *Engine, n int) {
	arged := func(uint64) {}
	for i := 0; i < n; i++ {
		e.ScheduleArg(int64(i), arged, uint64(i))
	}
	e.Run()
}

// TestScheduleStepZeroAlloc pins Schedule→Step at 0 allocs/op once the
// queue capacity is warm and the callback is pre-created, with one
// event on the wheel and one on the heap per iteration.
func TestScheduleStepZeroAlloc(t *testing.T) {
	e := New()
	fn := func() {}
	warmQueue(e, 1024)
	if allocs := testing.AllocsPerRun(200, func() {
		e.After(1, fn)
		e.After(wheelSize+3, fn)
		e.Step()
		e.Step()
	}); allocs != 0 {
		t.Fatalf("Schedule+Step allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestScheduleVariantsZeroAlloc pins the fixed-argument and timed
// variants at 0 allocs/op — the whole point of their existence — on
// both the wheel and the heap.
func TestScheduleVariantsZeroAlloc(t *testing.T) {
	e := New()
	timed := func(int64) {}
	arged := func(uint64) {}
	warmQueue(e, 1024)
	if allocs := testing.AllocsPerRun(200, func() {
		e.ScheduleTimed(e.Now()+1, timed)
		e.ScheduleArg(e.Now()+1, arged, 7)
		e.ScheduleTimed(e.Now()+wheelSize+1, timed)
		e.ScheduleArg(e.Now()+2*wheelSize, arged, 7)
		e.Step()
		e.Step()
		e.Step()
		e.Step()
	}); allocs != 0 {
		t.Fatalf("ScheduleTimed/ScheduleArg+Step allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestRunSteadyStateZeroAlloc pins the inlined Run pop loop at 0
// allocs once warm.
func TestRunSteadyStateZeroAlloc(t *testing.T) {
	e := New()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count%64 != 0 {
			e.After(1, chain)
		}
	}
	e.Schedule(0, chain)
	e.Run()
	if allocs := testing.AllocsPerRun(100, func() {
		e.Schedule(e.Now(), chain)
		e.Run()
	}); allocs != 0 {
		t.Fatalf("steady-state Run allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestStepWithRegistryZeroAlloc pins the hot loop with the checkpoint
// callback registry attached: registration happens at build/restore
// time, so steady-state scheduling and stepping must stay at 0
// allocs/op exactly as without a registry.
func TestStepWithRegistryZeroAlloc(t *testing.T) {
	e := New()
	reg := NewFnRegistry()
	e.AttachRegistry(reg)
	fn := func() {}
	timed := func(int64) {}
	arged := func(uint64) {}
	reg.RegisterFn(Key(1, 0, 0), fn)
	reg.RegisterTimed(Key(1, 0, 1), timed)
	reg.RegisterArg(Key(1, 0, 2), arged)
	warmQueue(e, 1024)
	if allocs := testing.AllocsPerRun(200, func() {
		e.After(1, fn)
		e.ScheduleTimed(e.Now()+1, timed)
		e.ScheduleArg(e.Now()+wheelSize, arged, 7)
		e.Step()
		e.Step()
		e.Step()
	}); allocs != 0 {
		t.Fatalf("registry-attached Schedule+Step allocated %.1f allocs/op, want 0", allocs)
	}
}
