package stats

import "testing"

func TestInterfaceSnapshotDelta(t *testing.T) {
	i := &Interface{Name: "x", ReadBytes: 100, WriteBytes: 50,
		BusyCycles: 20, Requests: 4, RowHits: 3, RowMisses: 1,
		Activates: 2, Refreshes: 1}
	prev := i.Snapshot()
	if prev != *i {
		t.Fatal("snapshot should copy the current counters")
	}

	i.ReadBytes += 60
	i.WriteBytes += 40
	i.BusyCycles += 30
	i.Requests += 2
	i.RowHits += 1
	i.RowMisses += 3
	i.Activates += 5
	i.Refreshes += 1

	d := i.Delta(prev)
	want := Interface{Name: "x", ReadBytes: 60, WriteBytes: 40,
		BusyCycles: 30, Requests: 2, RowHits: 1, RowMisses: 3,
		Activates: 5, Refreshes: 1}
	if d != want {
		t.Fatalf("delta = %+v, want %+v", d, want)
	}
	// The interval supports the same derived metrics as the cumulative
	// view: 30 busy cycles over a 100-cycle epoch, 1 hit in 4 accesses.
	if got := d.BandwidthUtil(100, 1); got != 0.30 {
		t.Errorf("interval util = %f, want 0.30", got)
	}
	if got := d.RowHitRate(); got != 0.25 {
		t.Errorf("interval row hit rate = %f, want 0.25", got)
	}
	// A delta against the live value is all zeros.
	if z := i.Delta(i.Snapshot()); z.TotalBytes() != 0 || z.Requests != 0 {
		t.Errorf("self-delta nonzero: %+v", z)
	}
}

func TestCacheStatsSnapshotDelta(t *testing.T) {
	c := &CacheStats{Hits: 10, Misses: 10, Evictions: 3, DirtyEvicts: 1}
	prev := c.Snapshot()
	c.Hits += 9
	c.Misses += 3
	c.Evictions += 2
	c.DirtyEvicts += 2

	d := c.Delta(prev)
	want := CacheStats{Hits: 9, Misses: 3, Evictions: 2, DirtyEvicts: 2}
	if d != want {
		t.Fatalf("delta = %+v, want %+v", d, want)
	}
	if got := d.HitRate(); got != 0.75 {
		t.Errorf("interval hit rate = %f, want 0.75 (cumulative would be %f)",
			got, c.HitRate())
	}
}

func TestReuseHistogramSnapshotDelta(t *testing.T) {
	h := NewReuseHistogram()
	h.Observe(1, 10)
	h.Observe(1, 5)
	h.Observe(2, 7)
	prev := h.Snapshot()
	if prev.Blocks != 2 || prev.Accesses != 3 || prev.Cost != 22 {
		t.Fatalf("snapshot = %+v", prev)
	}
	if h.TotalCost() != 22 {
		t.Fatalf("TotalCost = %d, want 22", h.TotalCost())
	}

	h.Observe(2, 4)
	h.Observe(3, 9)
	d := h.Delta(prev)
	if d.Blocks != 1 || d.Accesses != 2 || d.Cost != 13 {
		t.Fatalf("delta = %+v, want {1 2 13}", d)
	}
	if z := h.Delta(h.Snapshot()); z != (ReuseSnapshot{}) {
		t.Fatalf("self-delta nonzero: %+v", z)
	}
}
