package hbm

// Checkpoint save/load for the DRAM-cache controller: counters, and
// then the state of each component its policy row enables (tag store,
// BAB sampler, alpha table, RCU CAM, gamma/regret tracker), and the
// in-flight pooled ops.

import (
	"fmt"
	"math/rand"
	"sort"
	"unsafe"

	"redcache/internal/ckpt"
	"redcache/internal/engine"
	"redcache/internal/mem"
)

const tagHBM = 0x48424d31 // "HBM1"

// maxTrackedPages bounds alpha-table map sizes at load: far above any
// real trace's page count, far below an allocation bomb.
const maxTrackedPages = 1 << 26

// RegisterFns attaches the callback registry to the op pool.
func (c *controller) RegisterFns(reg *engine.FnRegistry) { c.ops.attach(reg) }

// saveState serializes the op pool: every record's armed state in id
// order, then the free-list membership.  A request pointer is written
// as its registered key when it has a stable home (a CPU slot's
// embedded request) and copied inline otherwise (a writeback).
func (p *opPool) saveState(w *ckpt.Writer, reg *engine.FnRegistry) error {
	_, _ = p.reg, p.run // wiring: attached at build, rebuilt on restore
	w.Count(len(p.ops))
	for _, o := range p.ops {
		_ = o.id   // identity: the save order here
		_ = o.fire // once-bound at creation, re-bound by restore's newOp
		w.U8(uint8(o.kind))
		w.U64(uint64(o.addr))
		w.U64(uint64(o.base))
		w.Bool(o.fill)
		switch {
		case o.req == nil:
			w.U8(0)
		default:
			if key, ok := reg.PtrKeyOf(unsafe.Pointer(o.req)); ok {
				w.U8(1)
				w.U64(key)
				break
			}
			w.U8(2)
			w.U64(uint64(o.req.Addr))
			w.U8(uint8(o.req.Type))
			w.Int(o.req.Core)
			w.I64(o.req.Issued)
			if o.req.Done == nil {
				w.U64(0)
			} else {
				key, ok := reg.TimedKeyOf(o.req.Done)
				if !ok {
					return fmt.Errorf("hbm: in-flight op %d holds a request with an unregistered completion", o.id)
				}
				w.U64(key)
			}
		}
		_ = o.inlineReq // serialized above when it is the live body
	}
	ids := p.freeIDs()
	w.Count(len(ids))
	for _, id := range ids {
		w.Int(id)
	}
	return nil
}

// freeIDs lists the free-list membership in stack order; the records
// themselves are serialized with the pool body above.
func (p *opPool) freeIDs() []int {
	ids := make([]int, len(p.free))
	for i, o := range p.free {
		ids[i] = o.id
	}
	return ids
}

// loadState restores the pool, pre-creating records to the saved
// high-water mark (the registry must already be attached).
func (p *opPool) loadState(r *ckpt.Reader, reg *engine.FnRegistry) error {
	n := r.Count(1 << 24)
	if err := r.Err(); err != nil {
		return err
	}
	if n < len(p.ops) {
		return fmt.Errorf("hbm: checkpoint has %d ops, pool already made %d: %w",
			n, len(p.ops), ckpt.ErrCorrupt)
	}
	for len(p.ops) < n {
		p.newOp()
	}
	for _, o := range p.ops {
		_ = o.id
		_ = o.fire
		o.kind = opKind(r.U8())
		o.addr = mem.Addr(r.U64())
		o.base = mem.Addr(r.U64())
		o.fill = r.Bool()
		mode := r.U8()
		if err := r.Err(); err != nil {
			return err
		}
		switch mode {
		case 0:
			o.req = nil
			o.inlineReq = mem.Request{}
		case 1:
			key := r.U64()
			if err := r.Err(); err != nil {
				return err
			}
			ptr, ok := reg.PtrByKey(key)
			if !ok {
				return fmt.Errorf("hbm: op %d references unknown request key %#x: %w",
					o.id, key, ckpt.ErrCorrupt)
			}
			o.req = (*mem.Request)(ptr)
		case 2:
			o.inlineReq = mem.Request{
				Addr:   mem.Addr(r.U64()),
				Type:   mem.AccessType(r.U8()),
				Core:   r.Int(),
				Issued: r.I64(),
			}
			key := r.U64()
			if err := r.Err(); err != nil {
				return err
			}
			if key != 0 {
				fn, ok := reg.TimedByKey(key)
				if !ok {
					return fmt.Errorf("hbm: op %d references unknown completion key %#x: %w",
						o.id, key, ckpt.ErrCorrupt)
				}
				o.inlineReq.Done = fn
			}
			o.req = &o.inlineReq
		default:
			return fmt.Errorf("hbm: op %d request mode %d: %w", o.id, mode, ckpt.ErrCorrupt)
		}
	}
	nf := r.Count(len(p.ops))
	if err := r.Err(); err != nil {
		return err
	}
	p.free = p.free[:0]
	for i := 0; i < nf; i++ {
		id := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if id < 0 || id >= len(p.ops) {
			return fmt.Errorf("hbm: free-list op id %d out of range [0,%d): %w",
				id, len(p.ops), ckpt.ErrCorrupt)
		}
		p.free = append(p.free, p.ops[id])
	}
	return r.Err()
}

// saveState serializes one tag entry.
func (e *tagEntry) saveState(w *ckpt.Writer) {
	w.U64(e.tag)
	w.Bool(e.valid)
	w.Bool(e.dirty)
	w.U8(e.rcount)
	w.Bool(e.lastWrite)
}

// loadState restores one tag entry.
func (e *tagEntry) loadState(r *ckpt.Reader) {
	e.tag = r.U64()
	e.valid = r.Bool()
	e.dirty = r.Bool()
	e.rcount = r.U8()
	e.lastWrite = r.Bool()
}

// saveState serializes the tag store.  mask/gShift are geometry, pinned
// by the manifest's config hash.
func (t *tagStore) saveState(w *ckpt.Writer) {
	_, _ = t.mask, t.gShift // geometry, derived from config
	w.Count(len(t.entries))
	for i := range t.entries {
		t.entries[i].saveState(w)
	}
}

// loadState restores the tag store.
func (t *tagStore) loadState(r *ckpt.Reader) error {
	_, _ = t.mask, t.gShift // geometry, derived from config
	n := r.Count(1 << 28)
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(t.entries) {
		return fmt.Errorf("hbm: checkpoint has %d frames, geometry has %d: %w",
			n, len(t.entries), ckpt.ErrCorrupt)
	}
	for i := range t.entries {
		t.entries[i].loadState(r)
	}
	return r.Err()
}

// SaveState serializes the controller-level counters.
func (s *Stats) SaveState(w *ckpt.Writer) {
	s.Demand.SaveState(w)
	w.I64(s.Reads)
	w.I64(s.Writes)
	w.I64(s.TagProbes)
	w.I64(s.Fills)
	w.I64(s.FillBypass)
	w.I64(s.VictimWB)
	w.I64(s.DirectToMem)
	w.I64(s.RefreshByp)
	w.I64(s.SRAMAccess)
	w.I64(s.InSitu)
	s.Alpha.saveState(w)
	s.Gamma.saveState(w)
	s.RCU.saveState(w)
	w.I64(s.LastEvictWrite)
	w.I64(s.LastEvictTotal)
}

// LoadState restores the controller-level counters.
func (s *Stats) LoadState(r *ckpt.Reader) {
	s.Demand.LoadState(r)
	s.Reads = r.I64()
	s.Writes = r.I64()
	s.TagProbes = r.I64()
	s.Fills = r.I64()
	s.FillBypass = r.I64()
	s.VictimWB = r.I64()
	s.DirectToMem = r.I64()
	s.RefreshByp = r.I64()
	s.SRAMAccess = r.I64()
	s.InSitu = r.I64()
	s.Alpha.loadState(r)
	s.Gamma.loadState(r)
	s.RCU.loadState(r)
	s.LastEvictWrite = r.I64()
	s.LastEvictTotal = r.I64()
}

func (a *AlphaStats) saveState(w *ckpt.Writer) {
	w.I64(a.Bypassed)
	w.I64(a.Admissions)
	w.I64(a.BufferHits)
	w.I64(a.BufferMiss)
	w.Int(a.FinalAlpha)
	w.I64(a.Adaptations)
}

func (a *AlphaStats) loadState(r *ckpt.Reader) {
	a.Bypassed = r.I64()
	a.Admissions = r.I64()
	a.BufferHits = r.I64()
	a.BufferMiss = r.I64()
	a.FinalAlpha = r.Int()
	a.Adaptations = r.I64()
}

func (g *GammaStats) saveState(w *ckpt.Writer) {
	w.I64(g.Invalidations)
	w.I64(g.RCountUpdates)
	w.Int(g.FinalGamma)
	w.I64(g.ZeroReuseEvict)
}

func (g *GammaStats) loadState(r *ckpt.Reader) {
	g.Invalidations = r.I64()
	g.RCountUpdates = r.I64()
	g.FinalGamma = r.Int()
	g.ZeroReuseEvict = r.I64()
}

func (u *RCUStats) saveState(w *ckpt.Writer) {
	w.I64(u.Enqueued)
	w.I64(u.Piggyback)
	w.I64(u.IdleFlush)
	w.I64(u.Dropped)
	w.I64(u.DrainFlush)
	w.I64(u.BlockHits)
	w.I64(u.Merged)
}

func (u *RCUStats) loadState(r *ckpt.Reader) {
	u.Enqueued = r.I64()
	u.Piggyback = r.I64()
	u.IdleFlush = r.I64()
	u.Dropped = r.I64()
	u.DrainFlush = r.I64()
	u.BlockHits = r.I64()
	u.Merged = r.I64()
}

// saveState serializes the alpha table: the authoritative and buffered
// page sets (map keys sorted, so identical state always produces an
// identical payload) and the adaptation baselines.
func (a *alphaTable) saveState(w *ckpt.Writer) {
	_, _ = a.p, a.tr // configuration and wiring

	counts := make([]mem.PageID, 0, len(a.counts))
	for p := range a.counts {
		counts = append(counts, p)
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })
	w.Count(len(counts))
	for _, p := range counts {
		w.U64(uint64(p))
		w.U32(uint32(a.counts[p]))
	}

	admitted := make([]mem.PageID, 0, len(a.admitted))
	for p := range a.admitted {
		if a.admitted[p] {
			admitted = append(admitted, p)
		}
	}
	sort.Slice(admitted, func(i, j int) bool { return admitted[i] < admitted[j] })
	w.Count(len(admitted))
	for _, p := range admitted {
		w.U64(uint64(p))
	}

	buffer := make([]mem.PageID, 0, len(a.buffer))
	for p := range a.buffer {
		buffer = append(buffer, p)
	}
	sort.Slice(buffer, func(i, j int) bool { return buffer[i] < buffer[j] })
	w.Count(len(buffer))
	for _, p := range buffer {
		w.U64(uint64(p))
	}

	w.Count(len(a.ring))
	for _, p := range a.ring {
		w.U64(uint64(p))
	}
	w.Int(a.ringHead)

	w.Int(a.alpha)
	w.I64(a.accesses)
	w.I64(a.lastAdapt)
	w.I64(a.lastCycle)
	w.I64(a.baseFills)
	w.I64(a.baseHits)
	w.I64(a.baseDemand)
	w.I64(a.baseBypassed)
	w.I64(a.baseTotal)
	w.I64(a.baseHBMBusy)
	w.I64(a.baseDDRBusy)
}

// loadState restores the alpha table.
func (a *alphaTable) loadState(r *ckpt.Reader) error {
	_, _ = a.p, a.tr // configuration and wiring

	n := r.Count(maxTrackedPages)
	if err := r.Err(); err != nil {
		return err
	}
	a.counts = make(map[mem.PageID]uint16, n)
	for i := 0; i < n; i++ {
		a.counts[mem.PageID(r.U64())] = uint16(r.U32())
	}

	n = r.Count(maxTrackedPages)
	if err := r.Err(); err != nil {
		return err
	}
	a.admitted = make(map[mem.PageID]bool, n)
	for i := 0; i < n; i++ {
		a.admitted[mem.PageID(r.U64())] = true
	}

	n = r.Count(maxTrackedPages)
	if err := r.Err(); err != nil {
		return err
	}
	a.buffer = make(map[mem.PageID]struct{}, n)
	for i := 0; i < n; i++ {
		a.buffer[mem.PageID(r.U64())] = struct{}{}
	}

	n = r.Count(a.p.AlphaBufferEnt)
	if err := r.Err(); err != nil {
		return err
	}
	a.ring = a.ring[:0]
	for i := 0; i < n; i++ {
		a.ring = append(a.ring, mem.PageID(r.U64()))
	}
	a.ringHead = r.Int()

	a.alpha = r.Int()
	a.accesses = r.I64()
	a.lastAdapt = r.I64()
	a.lastCycle = r.I64()
	a.baseFills = r.I64()
	a.baseHits = r.I64()
	a.baseDemand = r.I64()
	a.baseBypassed = r.I64()
	a.baseTotal = r.I64()
	a.baseHBMBusy = r.I64()
	a.baseDDRBusy = r.I64()
	return r.Err()
}

// saveState serializes the RCU CAM.  Locations are recomputed from the
// address at load, like DRAM queue entries.
func (u *rcuManager) saveState(w *ckpt.Writer) {
	_, _, _, _ = u.hbm, u.st, u.persist, u.tr // configuration and wiring
	_ = u.cap                                 // configuration
	w.Count(len(u.entries))
	for i := range u.entries {
		e := &u.entries[i]
		_ = e.loc // derived: recomputed from addr at load
		w.U64(uint64(e.addr))
		w.U8(e.count)
	}
}

// loadState restores the RCU CAM.
func (u *rcuManager) loadState(r *ckpt.Reader) error {
	_, _, _, _ = u.hbm, u.st, u.persist, u.tr
	n := r.Count(u.cap)
	if err := r.Err(); err != nil {
		return err
	}
	u.entries = u.entries[:0]
	for i := 0; i < n; i++ {
		addr := mem.Addr(r.U64())
		count := r.U8()
		if err := r.Err(); err != nil {
			return err
		}
		u.entries = append(u.entries, rcuEntry{addr: addr, loc: u.hbm.Map(addr), count: count})
	}
	return nil
}

// SaveState serializes the controller: the counters, then the state of
// each component the row enabled (New allocated it) in a fixed order,
// then the op pool.  The policy row is configuration, pinned by the
// manifest's arch.  rand.Rand's state is opaque, so the BAB sampler
// stream is saved as its draw count and replayed from the seed at load.
func (c *controller) SaveState(w *ckpt.Writer, reg *engine.FnRegistry) error {
	_, _, _, _, _ = c.arch, c.p, c.d, c.tr, c.inj // configuration and wiring
	w.Tag(tagHBM)
	c.s.SaveState(w)
	if c.tags != nil {
		c.tags.saveState(w)
	}
	if c.rng != nil {
		w.U64(c.draws)
		w.F64(c.hitEWMA)
		w.U64(c.sampleCtr)
	}
	if c.at != nil {
		c.at.saveState(w)
	}
	if c.rcu != nil {
		c.rcu.saveState(w)
	}
	if c.regret != nil {
		w.Int(c.gamma)
		w.Int(c.gammaDown)
		w.Count(len(c.regretRing))
		for _, a := range c.regretRing {
			w.U64(uint64(a))
		}
		w.Int(c.regretHead)
		// The regret map is a subset of the ring's address set
		// (checkRegret deletes map entries the ring still holds), so it
		// is saved in its own right, keys sorted.
		keys := make([]mem.Addr, 0, len(c.regret))
		for a := range c.regret {
			keys = append(keys, a)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		w.Count(len(keys))
		for _, a := range keys {
			w.U64(uint64(a))
		}
	}
	return c.ops.saveState(w, reg)
}

// LoadState restores the controller, mirroring SaveState.
func (c *controller) LoadState(r *ckpt.Reader, reg *engine.FnRegistry) error {
	_, _, _, _, _ = c.arch, c.p, c.d, c.tr, c.inj // configuration and wiring
	r.Tag(tagHBM)
	c.s.LoadState(r)
	if c.tags != nil {
		if err := c.tags.loadState(r); err != nil {
			return err
		}
	}
	if c.rng != nil {
		c.draws = r.U64()
		c.hitEWMA = r.F64()
		c.sampleCtr = r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		if c.draws > 1<<40 {
			return fmt.Errorf("hbm: implausible sampler draw count %d: %w", c.draws, ckpt.ErrCorrupt)
		}
		c.rng = rand.New(rand.NewSource(c.d.cfg.Seed ^ bearSeedMix))
		for i := uint64(0); i < c.draws; i++ {
			c.rng.Float64()
		}
	}
	if c.at != nil {
		if err := c.at.loadState(r); err != nil {
			return err
		}
	}
	if c.rcu != nil {
		if err := c.rcu.loadState(r); err != nil {
			return err
		}
	}
	if c.regret != nil {
		c.gamma = r.Int()
		c.gammaDown = r.Int()
		n := r.Count(regretCap)
		if err := r.Err(); err != nil {
			return err
		}
		c.regretRing = c.regretRing[:0]
		for i := 0; i < n; i++ {
			c.regretRing = append(c.regretRing, mem.Addr(r.U64()))
		}
		c.regretHead = r.Int()
		n = r.Count(regretCap)
		if err := r.Err(); err != nil {
			return err
		}
		c.regret = make(map[mem.Addr]struct{}, n)
		for i := 0; i < n; i++ {
			c.regret[mem.Addr(r.U64())] = struct{}{}
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	return c.ops.loadState(r, reg)
}
