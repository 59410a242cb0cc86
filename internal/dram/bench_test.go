package dram

import (
	"testing"

	"redcache/internal/engine"
	"redcache/internal/mem"
	"redcache/internal/stats"
)

// BenchmarkDRAMRowHitStream measures the FR-FCFS fast path: a stream of
// reads hitting one open row, enqueued in batches and drained by the
// engine.  One op is one transaction end to end (enqueue, schedule,
// issue, completion callback).
func BenchmarkDRAMRowHitStream(b *testing.B) {
	eng := engine.New()
	iface := &stats.Interface{Name: "bench"}
	c := NewController(eng, testDRAM(4), iface)
	noop := func(int64) {}
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 256
	for n := 0; n < b.N; {
		m := batch
		if rem := b.N - n; rem < m {
			m = rem
		}
		for j := 0; j < m; j++ {
			c.Read(rowAddr(c, 0, 0, int64(j%32)), 64, noop)
		}
		eng.Run()
		n += m
	}
}

// BenchmarkDRAMMixedStream stresses the scheduler's decision path:
// reads and posted writes across banks, exercising write-drain
// watermarks, bus turnaround, and both FR-FCFS branches (row hit and
// the fallback scan of the oldest pickScan entries).
func BenchmarkDRAMMixedStream(b *testing.B) {
	eng := engine.New()
	iface := &stats.Interface{Name: "bench"}
	c := NewController(eng, testDRAM(8), iface)
	noop := func(int64) {}
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 256
	for n := 0; n < b.N; {
		m := batch
		if rem := b.N - n; rem < m {
			m = rem
		}
		for j := 0; j < m; j++ {
			addr := rowAddr(c, int64(j%8), int64(j%4), int64(j%32))
			if j%3 == 0 {
				c.Write(addr, mem.BlockSize, nil)
			} else {
				c.Read(addr, mem.BlockSize, noop)
			}
		}
		eng.Run()
		n += m
	}
}

// deepBurst enqueues n reads and posted writes (one in three) over 16
// banks with rows drawn from a small pseudo-random cycle, so each bank's
// sub-list mixes rows and the queues run hundreds to thousands deep.
func deepBurst(c *Controller, n int, onDone func(int64)) {
	for j := 0; j < n; j++ {
		addr := rowAddr(c, int64(j%16), int64((j*7+j/16)%13), int64(j%32))
		if j%3 == 0 {
			c.Write(addr, mem.BlockSize, nil)
		} else {
			c.Read(addr, mem.BlockSize, onDone)
		}
	}
}

// BenchmarkDRAMDeepQueue is the streaming regime of HIST on Alloy: 2,048
// mixed-row reads and writes over 16 banks enqueued at once, then
// drained, so every scheduling decision picks from a queue hundreds to
// thousands deep.  One op is one transaction end to end.
func BenchmarkDRAMDeepQueue(b *testing.B) {
	eng := engine.New()
	iface := &stats.Interface{Name: "bench"}
	c := NewController(eng, testDRAM(16), iface)
	noop := func(int64) {}
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 2048
	for n := 0; n < b.N; n += batch {
		deepBurst(c, min(batch, b.N-n), noop)
		eng.Run()
	}
}
