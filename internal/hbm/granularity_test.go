package hbm

import (
	"testing"

	"redcache/internal/config"
	"redcache/internal/mem"
)

// TestAlloyCoarseGranularityFill: at 256 B transfer granularity a read
// miss fetches a whole 256 B frame from DDR4 and fills it into HBM, and
// the three sibling blocks then hit.
func TestAlloyCoarseGranularityFill(t *testing.T) {
	r := newRig(t, ArchAlloy, func(cfg *config.System) { cfg.Granularity = 256 })
	r.access(0, mem.Read)
	if r.ddrIface.ReadBytes != 256 {
		t.Fatalf("DDR fetch = %d bytes, want 256", r.ddrIface.ReadBytes)
	}
	s := r.ctl.Stats()
	for _, sibling := range []mem.Addr{64, 128, 192} {
		hits := s.Demand.Hits
		r.access(sibling, mem.Read)
		if s.Demand.Hits != hits+1 {
			t.Fatalf("sibling %#x should hit after a 256B fill", uint64(sibling))
		}
	}
	// A block in the next frame misses.
	misses := s.Demand.Misses
	r.access(256, mem.Read)
	if s.Demand.Misses != misses+1 {
		t.Fatal("next frame should miss")
	}
}

// TestAlloyCoarseWriteMissFetchesRemainder: write-allocating a 64 B
// writeback into a 256 B frame needs the other 192 B from DDR4.
func TestAlloyCoarseWriteMissFetchesRemainder(t *testing.T) {
	r := newRig(t, ArchAlloy, func(cfg *config.System) { cfg.Granularity = 256 })
	r.access(0, mem.Write)
	if r.ddrIface.ReadBytes != 256 {
		t.Fatalf("DDR remainder fetch = %d bytes, want 256", r.ddrIface.ReadBytes)
	}
	e, hit := r.ctl.tags.lookup(0)
	if !hit || !e.dirty {
		t.Fatal("frame must be resident and dirty after write-allocate")
	}
}

// TestCoarseVictimWritebackIsWholeFrame: a dirty 256 B frame's eviction
// writes all 256 B back to DDR4.
func TestCoarseVictimWritebackIsWholeFrame(t *testing.T) {
	r := newRig(t, ArchAlloy, func(cfg *config.System) { cfg.Granularity = 256 })
	r.access(0, mem.Write) // dirty frame 0
	frames := r.cfg.HBMCacheB / 256
	before := r.ddrIface.WriteBytes
	r.access(mem.Addr(frames*256), mem.Read) // conflict
	if got := r.ddrIface.WriteBytes - before; got != 256 {
		t.Fatalf("victim writeback = %d bytes, want 256", got)
	}
}

// TestGranularityHitRateImproves mirrors the Fig 2(b) premise on a
// spatially-local stream: coarser transfer granularity raises hit rate.
func TestGranularityHitRateImproves(t *testing.T) {
	run := func(g int) float64 {
		r := newRig(t, ArchAlloy, func(cfg *config.System) { cfg.Granularity = g })
		// Strided walk touching every other block twice.
		for pass := 0; pass < 2; pass++ {
			for i := int64(0); i < 512; i++ {
				r.access(mem.Addr(i*128), mem.Read)
			}
		}
		return r.ctl.Stats().Demand.HitRate()
	}
	fine, coarse := run(64), run(256)
	if coarse <= fine {
		t.Fatalf("256B hit rate %.2f not above 64B %.2f on a local stream", coarse, fine)
	}
}
