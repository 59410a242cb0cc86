package engine

import (
	"math/rand"
	"testing"
)

// BenchmarkEngineScheduleFire measures steady-state scheduler throughput:
// 64 self-rescheduling "components" (closures created once, outside the
// timed region) keep the heap at a realistic working depth while every
// iteration pays one Schedule plus one Step — the exact cost profile of
// the simulator's hot loop.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := New()
	const comps = 64
	fns := make([]func(), comps)
	for i := range fns {
		i := i
		delta := int64(i%13 + 1)
		fns[i] = func() { e.After(delta, fns[i]) }
	}
	for i, fn := range fns {
		e.Schedule(int64(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineEndToEnd drains a full schedule per iteration — the
// Run() path (pop loop, clock advance, limit check) rather than the
// per-event Step path.
func BenchmarkEngineEndToEnd(b *testing.B) {
	const comps = 64
	const eventsPerRun = 16384
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New()
		fired := 0
		fns := make([]func(), comps)
		for j := range fns {
			j := j
			delta := int64(j%17 + 1)
			fns[j] = func() {
				fired++
				if fired < eventsPerRun {
					e.After(delta, fns[j])
				}
			}
		}
		for j, fn := range fns {
			e.Schedule(int64(j%5), fn)
		}
		e.Run()
	}
	b.ReportMetric(float64(b.N)*eventsPerRun/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineMixedDelays measures the Step path on the delay mix
// the simulator schedules (perfbench's three workloads, seed 1): about
// half of all events due 0–1 cycles ahead, 40% due in 2–63, 10% in
// 64–255, and 1% beyond the timing wheel's span, so both the wheel and
// the heap run.  64 components reschedule themselves through a fixed
// table of delays drawn once outside the timed region.
func BenchmarkEngineMixedDelays(b *testing.B) {
	const comps = 64
	delays := make([]int64, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range delays {
		switch p := rng.Intn(100); {
		case p < 50:
			delays[i] = int64(rng.Intn(2))
		case p < 89:
			delays[i] = 2 + int64(rng.Intn(62))
		case p < 99:
			delays[i] = 64 + int64(rng.Intn(192))
		default:
			delays[i] = wheelSize + int64(rng.Intn(4*wheelSize))
		}
	}
	e := New()
	next := 0
	var fn func()
	fn = func() {
		e.After(delays[next], fn)
		next = (next + 1) & (len(delays) - 1)
	}
	for i := 0; i < comps; i++ {
		e.Schedule(int64(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
