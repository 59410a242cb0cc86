package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("value = %d, want 5", c.Value())
	}
}

func TestInterfaceMetrics(t *testing.T) {
	i := &Interface{Name: "x", ReadBytes: 100, WriteBytes: 50,
		BusyCycles: 25, RowHits: 3, RowMisses: 1}
	if i.TotalBytes() != 150 {
		t.Fatalf("total = %d", i.TotalBytes())
	}
	if got := i.RowHitRate(); got != 0.75 {
		t.Fatalf("row hit rate = %f", got)
	}
	if got := i.BandwidthUtil(100, 1); got != 0.25 {
		t.Fatalf("util = %f", got)
	}
	// BusyCycles sums over channels: 25 busy cycles spread over 5
	// channels in 10 cycles is half of each channel's time.
	if got := i.BandwidthUtil(10, 5); got != 0.5 {
		t.Fatalf("per-channel util = %f, want 0.5", got)
	}
	if (&Interface{}).RowHitRate() != 0 || (&Interface{}).BandwidthUtil(0, 1) != 0 ||
		i.BandwidthUtil(100, 0) != 0 {
		t.Error("empty interface should report zeros")
	}
}

func TestCacheStats(t *testing.T) {
	c := &CacheStats{Hits: 3, Misses: 1}
	if c.Accesses() != 4 || c.HitRate() != 0.75 {
		t.Fatalf("accesses/hitrate = %d/%f", c.Accesses(), c.HitRate())
	}
	if (&CacheStats{}).HitRate() != 0 {
		t.Error("empty cache stats hit rate should be 0")
	}
}

func TestReuseHistogramGroups(t *testing.T) {
	h := NewReuseHistogram()
	// Block 1: 3 accesses (2 reuses); blocks 2,3: 1 access (0 reuses).
	h.Observe(1, 10)
	h.Observe(1, 10)
	h.Observe(1, 10)
	h.Observe(2, 5)
	h.Observe(3, 7)
	if h.Blocks() != 3 || h.TotalAccesses() != 5 {
		t.Fatalf("blocks/accesses = %d/%d", h.Blocks(), h.TotalAccesses())
	}
	gs := h.Groups()
	if len(gs) != 2 {
		t.Fatalf("groups = %d, want 2", len(gs))
	}
	if gs[0].Reuses != 0 || gs[0].BlockCount != 2 || gs[0].Cost != 12 {
		t.Fatalf("group0 = %+v", gs[0])
	}
	if gs[1].Reuses != 2 || gs[1].BlockCount != 1 || gs[1].Cost != 30 {
		t.Fatalf("group1 = %+v", gs[1])
	}
	if share := h.CostShareAbove(1, 10); share != 30.0/42 {
		t.Fatalf("share = %f", share)
	}
}

// TestHistogramConservation: group sums equal totals for random input.
func TestHistogramConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewReuseHistogram()
		var totalCost int64
		n := 50 + rng.Intn(500)
		for i := 0; i < n; i++ {
			c := int64(rng.Intn(20))
			h.Observe(uint64(rng.Intn(40)), c)
			totalCost += c
		}
		var gc, gb, ga int64
		for _, g := range h.Groups() {
			gc += g.Cost
			gb += g.BlockCount
			ga += g.BlockCount * (g.Reuses + 1)
		}
		return gc == totalCost && gb == int64(h.Blocks()) && ga == h.TotalAccesses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLastAccess(t *testing.T) {
	l := NewLastAccess()
	l.Observe(1, false)
	l.Observe(1, true) // last touch is a write
	l.Observe(2, false)
	if l.Blocks() != 2 {
		t.Fatalf("blocks = %d", l.Blocks())
	}
	if got := l.WriteShare(); got != 0.5 {
		t.Fatalf("write share = %f", got)
	}
	if NewLastAccess().WriteShare() != 0 {
		t.Error("empty tracker should report 0")
	}
}

func TestFmt(t *testing.T) {
	if Fmt(0.825) != "82.5%" {
		t.Fatalf("Fmt = %q", Fmt(0.825))
	}
}
