package hbm

import (
	"math/rand"

	"redcache/internal/fault"
	"redcache/internal/mem"
	"redcache/internal/obs"
)

// Controller is the DRAM-cache controller New returns.  The struct
// itself stays unexported so the checkpoint codec's field coverage is
// proven like every other component-internal struct.
type Controller = controller

// controller runs every architecture's flow, steered by its policy
// row.  The TAD flow (Fig 7 premise, Alloy Cache: Qureshi & Loh,
// MICRO'12) stores tag-and-data together in a direct-mapped HBM cache,
// so one HBM stream both checks the tag and returns the data:
//
//	read  hit : 1 HBM read (TAD)                          -> data to L3
//	read  miss: 1 HBM read + DDR4 fetch + HBM fill write;
//	            dirty victims travel to DDR4 (their data arrived with
//	            the TAD probe, so no extra HBM read is needed)
//	write hit : 1 HBM read (probe) + 1 HBM write (turnaround)
//	write miss: 1 HBM read + write-allocate (+ dirty victim to DDR4)
//
// The transfer granularity between DDR4 and HBM follows cfg.Granularity
// (64/128/256 B, swept by Fig 2b); demand traffic to the CPU stays 64 B.
//
// BEAR (Chou, Jaleel, Qureshi, ISCA'15) adds two bandwidth-bloat
// mitigations, approximated per DESIGN.md §5: bandwidth-aware bypass
// (BAB) installs a miss fill only with a probability steered by a
// sampled hit-rate monitor, and the DRAM-Cache-Presence filter sends
// writebacks of absent blocks straight to DDR4 and updates present ones
// without a probe read.  Read misses still pay the TAD probe, as in
// BEAR itself: the probe doubles as the data fetch on a hit, and BEAR
// has no affordable structure to prove a read absent.  The presence
// filter is exact in simulation (real BEAR keeps presence bits next to
// L3 lines, with small error).
type controller struct {
	arch Arch
	p    policy
	d    deps
	s    Stats
	// tags is the functional tag store; nil without a TAD cache.
	tags *tagStore
	ops  *opPool
	// tr is the event tracer (nil unless telemetry is wired — Emit on
	// nil is a no-op).
	tr *obs.Tracer
	// inj models tag/r-count/data corruption in the ECC-less TAD layout;
	// nil (the default) keeps every probe a plain tag-store lookup.
	inj *fault.Injector

	at  *alphaTable // nil unless p.alpha
	rcu *rcuManager // nil unless p.rcount == rcRCU

	gamma int
	// gammaDown counts below-γ observations so γ descends eight times
	// slower than it ascends (see updateGamma).
	gammaDown int
	// regret tracks recently γ-invalidated blocks; a demand miss to one
	// means the "last write" call was premature and γ rises.  Nil
	// unless p.gamma.
	regret     map[mem.Addr]struct{}
	regretRing []mem.Addr
	regretHead int

	// The BAB sampler (rng nil unless p.bab).  draws counts Float64
	// calls on rng: rand.Rand's state is opaque, so a checkpoint restore
	// re-seeds and replays this many draws.  hitEWMA tracks the recent
	// demand hit rate in [0,1]; sampleCtr dedicates 1/32 of misses to
	// always-fill sampling so the monitor keeps observing the cache's
	// potential.
	rng       *rand.Rand
	draws     uint64
	hitEWMA   float64
	sampleCtr uint64
}

// rcuHitLatency is the SRAM access latency, in CPU cycles, of serving a
// demand read out of the RCU RAM block cache.
const rcuHitLatency = 8

// regretCap bounds the invalidation-regret tracker (a small SRAM in
// hardware terms: 4096 block addresses).
const regretCap = 4096

const bearEWMAWeight = 0.002

// bearSeedMix decorrelates the BAB sampler from every other consumer of
// the run seed.
const bearSeedMix = 0xbea7

// Name reports the architecture.
func (c *controller) Name() Arch { return c.arch }

// Stats exposes the controller-level statistics.
func (c *controller) Stats() *Stats { return &c.s }

// SetFaultInjector installs the fault source (nil disables injection).
// Only the TAD paths draw from it.
func (c *controller) SetFaultInjector(inj *fault.Injector) { c.inj = inj }

// Drain flushes the RCU queue at end of run and records the final
// adaptive thresholds.
func (c *controller) Drain() {
	if c.rcu != nil {
		c.rcu.drain()
	}
	if c.at != nil {
		c.s.Alpha.FinalAlpha = c.at.Alpha()
	}
	c.s.Gamma.FinalGamma = c.gamma
}

// Submit hands over an L3 miss (read) or L3 dirty eviction (write).
func (c *controller) Submit(req *mem.Request) {
	isWrite := req.Type == mem.Write
	if isWrite {
		c.s.Writes++
	} else {
		c.s.Reads++
	}
	switch c.p.topo {
	case noCache:
		c.direct(req)
		return
	case perfectCache:
		c.s.TagProbes++
		c.s.Demand.Hits++
		if isWrite {
			// Tag-check read, then the data write.
			c.d.hbm.Read(req.Addr, mem.BlockSize,
				c.ops.get(opCheckedWrite, req.Addr, req.Addr, false, req))
			return
		}
		c.d.hbm.Read(req.Addr, mem.BlockSize, req.TakeDone())
		return
	}

	// Alpha counting (Fig 7, left): pages below the admission threshold
	// bypass the HBM cache entirely.
	if c.at != nil {
		admitted := c.at.observe(req.Addr.Page(), &c.s)
		c.at.maybeAdapt(&c.s, adaptSignals{
			now:     c.d.eng.Now(),
			hbmBusy: c.d.hbm.Interface().BusyCycles,
			ddrBusy: c.d.ddr.Interface().BusyCycles,
		})
		if !admitted {
			c.s.Alpha.Bypassed++
			c.tr.Emit(obs.EvBypass, uint64(req.Addr), int64(c.at.Alpha()), 0)
			c.direct(req)
			return
		}
	}

	// Refresh bypass: a request that is guaranteed to miss need not wait
	// for a refreshing HBM channel; DDR4 has the only copy anyway.  The
	// diversion only pays off while DDR4 has slack — redirecting a burst
	// into a loaded off-chip channel queues longer than tRFC.
	if c.p.refreshBypass && c.d.hbm.Refreshing(req.Addr) &&
		c.d.ddr.QueueLen(req.Addr) < 4 && !c.tags.present(req.Addr) {
		c.s.RefreshByp++
		c.direct(req)
		return
	}

	// RCU RAM doubles as a tiny block cache for recently read blocks.
	if c.rcu != nil {
		c.s.SRAMAccess++ // CAM search on every request
		if !isWrite {
			if cnt, ok := c.rcu.lookup(req.Addr); ok {
				if e, hit := c.tags.lookup(req.Addr); hit && c.p.gamma {
					fresh := satInc(cnt)
					c.rcu.put(req.Addr, fresh)
					c.updateGamma(fresh)
					e.lastWrite = false
				}
				c.s.RCU.BlockHits++
				c.s.Demand.Hits++
				finish := c.d.eng.Now() + rcuHitLatency
				if done := req.TakeDone(); done != nil {
					c.d.eng.ScheduleTimed(finish, done)
				}
				return
			}
		}
	}

	if isWrite {
		c.handleWrite(req)
	} else {
		c.handleRead(req)
	}
}

// direct routes a request straight to DDR4.
//
//redvet:hotpath
func (c *controller) direct(req *mem.Request) {
	c.s.DirectToMem++
	if req.Type == mem.Write {
		c.d.ddr.Write(req.Addr, mem.BlockSize, req.TakeDone())
		return
	}
	c.d.ddr.Read(req.Addr, mem.BlockSize, req.TakeDone())
}

func (c *controller) handleRead(req *mem.Request) {
	e, hit := c.lookupFaulty(req.Addr)
	c.s.TagProbes++
	if c.p.bab {
		c.observe(hit)
	}
	if hit {
		c.s.Demand.Hits++
		e.lastWrite = false
		if c.p.rcount == rcFree {
			e.rcount = satInc(e.rcount)
		}
		c.d.hbm.Read(req.Addr, mem.BlockSize, req.TakeDone())
		c.inj.DataRead(uint64(req.Addr)) // served from the no-ECC data region
		if c.p.gamma {
			fresh := satInc(c.visibleCountFaulty(e, req.Addr))
			c.updateGamma(fresh)
			c.persistRCount(e, req.Addr, fresh)
		}
		return
	}
	c.s.Demand.Misses++
	if c.p.gamma {
		c.checkRegret(req.Addr)
	}
	c.d.hbm.Read(req.Addr, mem.BlockSize, nil) // TAD probe (returns victim)
	if c.keepDirtyVictim(e) {
		// Dirty-victim fill elimination (§IV-D): the resident is young
		// and likely mid-life, so serve the newcomer from DDR4 and skip
		// the writeback + install round trip.
		c.s.FillBypass++
		c.d.ddr.Read(req.Addr, mem.BlockSize, req.TakeDone())
		return
	}
	// The BAB verdict is drawn now and travels with the op.
	fill := !c.p.bab || c.shouldFill()
	base := c.frameBase(req.Addr.Align())
	c.d.ddr.Read(base, c.tags.granularity(), c.ops.get(opReadFill, req.Addr, base, fill, req))
}

func (c *controller) handleWrite(req *mem.Request) {
	var e *tagEntry
	var hit bool
	if c.p.presence {
		// The presence filter is an ECC-protected SRAM: an exact lookup
		// that replaces the probe read.
		e, hit = c.tags.lookup(req.Addr)
		c.s.SRAMAccess++
	} else {
		e, hit = c.lookupFaulty(req.Addr)
		c.s.TagProbes++
		c.d.hbm.Read(req.Addr, mem.BlockSize, nil) // probe
	}
	if hit {
		c.s.Demand.Hits++
		if c.invalidatedOnWrite(e, req) {
			return
		}
		e.dirty = true
		e.lastWrite = true
		c.d.hbm.Write(req.Addr, mem.BlockSize, req.TakeDone())
		return
	}
	c.s.Demand.Misses++
	if c.p.presence {
		// Writeback-probe elimination: absent blocks go straight to DDR4
		// with no allocation (BEAR does not write-allocate bypassed lines).
		c.s.DirectToMem++
		c.d.ddr.Write(req.Addr, mem.BlockSize, req.TakeDone())
		return
	}
	if c.p.gamma {
		c.checkRegret(req.Addr)
	}
	if c.keepDirtyVictim(e) {
		// §IV-D: keep the young dirty victim, send the writeback to DDR4.
		c.s.FillBypass++
		c.d.ddr.Write(req.Addr, mem.BlockSize, req.TakeDone())
		return
	}
	// Write-allocate: a 64 B L3 writeback covers a whole 64 B frame; for
	// coarser granularity the remainder is fetched from DDR4 first.
	g := c.tags.granularity()
	base := c.frameBase(req.Addr.Align())
	if g > mem.BlockSize {
		c.d.ddr.Read(base, g, c.ops.get(opWriteInstall, req.Addr, base, false, req))
	} else {
		c.installWrite(req, req.Addr, base)
	}
}

// invalidatedOnWrite applies the row's r-count policy to a write hit
// and reports whether γ ended the block's life, in which case the write
// has already been routed to DDR4.
func (c *controller) invalidatedOnWrite(e *tagEntry, req *mem.Request) bool {
	if c.p.rcount == rcFree {
		e.rcount = satInc(e.rcount)
		return false
	}
	vis := c.inj.ReadRCount(uint64(req.Addr), e.rcount)
	if c.rcu != nil {
		// The demand write persists any pending count for free.
		if cnt, ok := c.rcu.dropBlock(req.Addr); ok {
			vis = cnt
		}
	}
	if !c.p.gamma {
		return false
	}
	fresh := satInc(vis)
	e.rcount = fresh // the write rewrites the whole TAD anyway
	c.updateGamma(fresh)
	if int(fresh) <= c.gamma {
		return false
	}
	// Last-write invalidation (Fig 7 right): the block's lifetime is
	// over; route the write to main memory and free the frame without
	// touching HBM again.
	c.s.Gamma.Invalidations++
	c.tr.Emit(obs.EvInvalidate, uint64(req.Addr.Align()), int64(fresh), int64(c.gamma))
	e.lastWrite = true
	c.retire(e, false) // data goes to DDR4 below, no victim WB
	e.valid = false
	c.noteInvalidation(req.Addr)
	c.d.ddr.Write(req.Addr, mem.BlockSize, req.TakeDone())
	return true
}

// fireOp dispatches a pooled continuation (see op.go).  Tag entries are
// positional — the store is direct-mapped and never reallocates — so
// the entry the submit-time probe returned is recomputed from the
// address.
//
//redvet:hotpath
func (c *controller) fireOp(o *op, f int64) {
	switch o.kind {
	case opReadFill:
		o.req.Complete(f)
		if !o.fill {
			c.s.FillBypass++
			return
		}
		c.allocate(o.addr)
		c.d.hbm.Write(o.base, c.tags.granularity(), nil)
	case opWriteInstall:
		c.installWrite(o.req, o.addr, o.base)
	case opCheckedWrite:
		c.d.hbm.Write(o.addr, mem.BlockSize, o.req.TakeDone())
	}
}

// installWrite write-allocates addr's frame once any coarse-granularity
// remainder has arrived from DDR4.
//
//redvet:hotpath
func (c *controller) installWrite(req *mem.Request, addr, base mem.Addr) {
	e := c.allocate(addr)
	e.dirty = true
	e.lastWrite = true
	c.d.hbm.Write(base, c.tags.granularity(), req.TakeDone())
}

// allocate fills addr's frame: any valid resident is retired (dirty
// victims write back, clean ones are replaced silently) and the frame
// becomes a fresh clean resident.
//
//redvet:hotpath
func (c *controller) allocate(addr mem.Addr) *tagEntry {
	c.s.Fills++
	e, _ := c.tags.lookup(addr)
	if e.valid {
		c.dropFromRCU(e, c.tags.base(e))
		c.retire(e, true)
	}
	_, tag := c.tags.frame(addr)
	*e = tagEntry{tag: tag, valid: true}
	return e
}

// lookupFaulty probes the tag store through the fault model: the tag
// field physically lives in the spare ECC bits, so a probe can read it
// corrupted.  A parity-detected corruption makes the frame's metadata
// untrustworthy — the controller drops the frame (losing dirty data,
// which the injector counts) and reports a conservative miss.  An
// escaped corruption keeps the probe's verdict but is counted as a
// silent fault.  Invalid frames carry no metadata to corrupt.
//
//redvet:hotpath
func (c *controller) lookupFaulty(addr mem.Addr) (e *tagEntry, hit bool) {
	e, hit = c.tags.lookup(addr)
	if c.inj == nil || !e.valid {
		return e, hit
	}
	if c.inj.TagProbe(uint64(addr), e.dirty) == fault.TagDetected {
		*e = tagEntry{}
		return e, false
	}
	return e, hit
}

// retire accounts a block leaving HBM (eviction or invalidation): the
// last-access-type statistic (§II-C), the zero-reuse counter used by α
// adaptation, and the dirty writeback to DDR4 when requested.
//
//redvet:hotpath
func (c *controller) retire(e *tagEntry, writebackDirty bool) {
	c.s.LastEvictTotal++
	if e.lastWrite {
		c.s.LastEvictWrite++
	}
	if e.rcount == 0 {
		c.s.Gamma.ZeroReuseEvict++
	}
	if e.dirty && writebackDirty {
		c.s.VictimWB++
		c.d.ddr.Write(c.tags.base(e), c.tags.granularity(), nil)
	}
}

// frameBase aligns addr down to its transfer-granularity frame.
//
//redvet:hotpath
func (c *controller) frameBase(addr mem.Addr) mem.Addr {
	return addr &^ mem.Addr(c.tags.granularity()-1)
}

// observe feeds BAB's hit-rate monitor.
func (c *controller) observe(hit bool) {
	v := 0.0
	if hit {
		v = 1.0
	}
	c.hitEWMA += bearEWMAWeight * (v - c.hitEWMA)
}

// shouldFill implements BAB: sample misses always fill; an uncontended
// cache always fills (bypassing exists to relieve bandwidth pressure,
// not to shrink the cache); otherwise the fill probability rises with
// the observed usefulness of the cache.
func (c *controller) shouldFill() bool {
	c.sampleCtr++
	if c.sampleCtr%32 == 0 {
		return true
	}
	if now := c.d.eng.Now(); now > 0 {
		if util := float64(c.d.hbm.Interface().BusyCycles) / float64(now); util < 0.4 {
			return true
		}
	}
	p := 0.1 + 0.9*c.hitEWMA
	c.draws++
	return c.rng.Float64() < p
}

// updateGamma moves γ linearly toward the observed r-count (§III-A-2).
// The descent is deliberately eight times slower than the ascent: γ
// stands in for the *expected lifetime* of a block, so it should settle
// near the upper range of observed reuse counts — invalidating at the
// median lifetime would cut half of all blocks off mid-life and turn
// their next access into a miss.
//
//redvet:hotpath
func (c *controller) updateGamma(rcount uint8) {
	r := int(rcount)
	old := c.gamma
	switch {
	case r > c.gamma && c.gamma < c.d.cfg.Red.GammaMax:
		c.gamma++
		c.gammaDown = 0
	case r < c.gamma && c.gamma > c.d.cfg.Red.GammaMin:
		c.gammaDown++
		if c.gammaDown >= 8 {
			c.gamma--
			c.gammaDown = 0
		}
	}
	if c.gamma != old {
		c.tr.Emit(obs.EvGammaMove, 0, int64(old), int64(c.gamma))
	}
}

// noteInvalidation records an invalidated block for regret tracking.
func (c *controller) noteInvalidation(addr mem.Addr) {
	addr = addr.Align()
	if len(c.regretRing) < regretCap {
		c.regretRing = append(c.regretRing, addr)
	} else {
		delete(c.regret, c.regretRing[c.regretHead])
		c.regretRing[c.regretHead] = addr
		c.regretHead = (c.regretHead + 1) % regretCap
	}
	c.regret[addr] = struct{}{}
}

// checkRegret raises γ when a demand miss lands on a block that gamma
// invalidated: the invalidation evidently fired before the true last
// write, so the expected-lifetime estimate was too short.
func (c *controller) checkRegret(addr mem.Addr) {
	addr = addr.Align()
	if _, ok := c.regret[addr]; !ok {
		return
	}
	delete(c.regret, addr)
	if c.gamma+2 <= c.d.cfg.Red.GammaMax {
		c.tr.Emit(obs.EvGammaMove, uint64(addr), int64(c.gamma), int64(c.gamma+2))
		c.gamma += 2
	}
}

// visibleCount returns the freshest r-count the controller can see for a
// resident block: the RCU CAM if an update is pending, else the value
// the TAD probe returned (which may be stale when updates were dropped).
//
//redvet:hotpath
func (c *controller) visibleCount(e *tagEntry, addr mem.Addr) uint8 {
	if c.rcu != nil {
		if cnt, ok := c.rcu.lookup(addr); ok {
			return cnt
		}
	}
	return e.rcount
}

// visibleCountFaulty is visibleCount through the fault model: a count
// held in the RCU CAM is an SRAM copy and stays intact, but one read
// out of the TAD's spare ECC bits can come back corrupted, in which
// case it is clamped to zero (perturbing γ adaptation, never crashing).
//
//redvet:hotpath
func (c *controller) visibleCountFaulty(e *tagEntry, addr mem.Addr) uint8 {
	if c.rcu != nil {
		if cnt, ok := c.rcu.lookup(addr); ok {
			return cnt
		}
	}
	return c.inj.ReadRCount(uint64(addr), e.rcount)
}

// persistRCount pays whatever the row charges for keeping the fresh
// r-count after a read hit.
//
//redvet:hotpath
func (c *controller) persistRCount(e *tagEntry, addr mem.Addr, fresh uint8) {
	c.s.Gamma.RCountUpdates++
	switch c.p.rcount {
	case rcInSitu:
		// Processed by logic in the DRAM die: no bus traffic, extra
		// per-update energy accounted by internal/energy.
		e.rcount = fresh
		c.s.InSitu++
	case rcRCU:
		// Deferred: the CAM holds the fresh value; DRAM stays stale
		// until a flush condition persists it (or it ages out).
		c.rcu.put(addr, fresh)
	default:
		// Red-Basic: every read hit issues its own masked write into the
		// tag+ECC bytes.  Without the RCU there is no dedup, merging or
		// same-row piggybacking, so each update costs a full column-
		// command slot plus its share of bus turnarounds.
		e.rcount = fresh
		c.d.hbm.Write(addr.Align(), rcUpdateBytes, nil)
	}
}

// keepDirtyVictim decides whether a miss should leave a dirty resident
// in place instead of evicting it for the newcomer (§IV-D).  The paper's
// block taxonomy (Fig 4) marks high-count X-type blocks as the first
// eviction candidates, so the resident is kept only while its reuse
// count says it is still mid-life (below γ); without gamma counting
// there is no lifetime evidence and the controller evicts like Alloy.
//
//redvet:hotpath
func (c *controller) keepDirtyVictim(e *tagEntry) bool {
	if !e.valid || !e.dirty || !c.p.gamma {
		return false
	}
	return int(c.visibleCount(e, c.tags.base(e))) < c.gamma
}

// dropFromRCU removes any pending update for a departing frame so it
// cannot clobber the new resident's TAD, and folds the fresh count into
// the tag entry so eviction statistics (and through them the α
// adaptation) see the block's true reuse rather than a stale zero.
//
//redvet:hotpath
func (c *controller) dropFromRCU(e *tagEntry, addr mem.Addr) {
	if c.rcu == nil {
		return
	}
	if cnt, ok := c.rcu.dropBlock(addr); ok {
		e.rcount = cnt
	}
}

//redvet:hotpath
func satInc(x uint8) uint8 {
	if x == 255 {
		return x
	}
	return x + 1
}
