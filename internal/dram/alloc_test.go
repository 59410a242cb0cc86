//go:build !race

package dram

import (
	"testing"
	"unsafe"

	"redcache/internal/engine"
	"redcache/internal/stats"
)

// TestEnqueueDrainZeroAlloc pins the DRAM hot path — Read enqueue,
// FR-FCFS scheduling, issue, completion — at 0 allocs/op once the Txn
// pool and engine heap are warm, both for short same-bank bursts and
// for a deep mixed-row burst over 16 banks.  (Race instrumentation
// perturbs allocation accounting; compiled out under -race.)
func TestEnqueueDrainZeroAlloc(t *testing.T) {
	eng := engine.New()
	iface := &stats.Interface{Name: "test"}
	c := NewController(eng, testDRAM(4), iface)
	noop := func(int64) {}
	// Warm up: a mixed burst grows the pool and heap past any capacity
	// the measured loop needs.
	for i := 0; i < 256; i++ {
		c.Read(rowAddr(c, int64(i%4), int64(i%2), int64(i%32)), 64, noop)
	}
	eng.Run()
	if allocs := testing.AllocsPerRun(100, func() {
		for j := 0; j < 32; j++ {
			c.Read(rowAddr(c, 0, 0, int64(j)), 64, noop)
		}
		eng.Run()
	}); allocs != 0 {
		t.Fatalf("enqueue+drain allocated %.1f allocs/op, want 0", allocs)
	}

	deep := NewController(eng, testDRAM(16), iface)
	deepBurst(deep, 2048, noop)
	eng.Run()
	if allocs := testing.AllocsPerRun(10, func() {
		deepBurst(deep, 2048, noop)
		eng.Run()
	}); allocs != 0 {
		t.Fatalf("deep enqueue+drain allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestTxnSizeClass pins Txn, queue links included, inside the 112 B
// allocation size class: the pool holds one Txn per transaction in
// flight, so a larger Txn shows directly in a run's allocated bytes.
func TestTxnSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Txn{}); size > 112 {
		t.Fatalf("Txn is %d B, want at most 112", size)
	}
}
