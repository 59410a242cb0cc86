package cpu

// Checkpoint save/load for the core front end.  Slot identity is the
// per-core creation ordinal: a restore pre-creates slots up to the
// saved count (re-binding each slot's once-per-lifetime completion
// callback and registering it under the same structural key), then
// rebuilds the window, store buffer, and free list from saved ids.

import (
	"fmt"

	"redcache/internal/ckpt"
	"redcache/internal/engine"
	"redcache/internal/mem"
)

const tagCPU = 0x43505531 // "CPU1"

// RegisterFns attaches the registry to every core and registers each
// core's issue tick.  Slot callbacks register themselves at creation
// (newSlot), so attach before Start.
func (cx *Complex) RegisterFns(reg *engine.FnRegistry) {
	for _, c := range cx.Cores {
		c.reg = reg
		reg.RegisterFn(engine.Key(engine.KeyCPUCore, uint32(c.id), 0), c.tickFn)
	}
}

// saveRing serializes a slot ring as ids, oldest first.
func saveRing(w *ckpt.Writer, r *slotRing) {
	w.Count(r.n)
	for i := 0; i < r.n; i++ {
		w.Int(r.buf[(r.head+i)%len(r.buf)].id)
	}
}

// loadRing rebuilds a slot ring from saved ids.
func (c *Core) loadRing(r *ckpt.Reader, ring *slotRing) error {
	n := r.Count(len(ring.buf))
	if err := r.Err(); err != nil {
		return err
	}
	ring.head, ring.n = 0, 0
	for i := range ring.buf {
		ring.buf[i] = nil
	}
	for i := 0; i < n; i++ {
		s, err := c.slotByID(r.Int(), r.Err())
		if err != nil {
			return err
		}
		ring.push(s)
	}
	return nil
}

// slotByID resolves a saved slot id against the rebuilt slot table.
func (c *Core) slotByID(id int, err error) (*slot, error) {
	if err != nil {
		return nil, err
	}
	if id < 0 || id >= len(c.slots) {
		return nil, fmt.Errorf("cpu: core %d slot id %d out of range [0,%d): %w",
			c.id, id, len(c.slots), ckpt.ErrCorrupt)
	}
	return c.slots[id], nil
}

// SaveState serializes one core: issue state, every slot's contents in
// id order, and the ring/free-list membership by id.
func (c *Core) SaveState(w *ckpt.Writer) {
	w.Tag(tagCPU)
	// Wiring and configuration, rebuilt by NewCore: engine, hierarchy,
	// memory subsystem, trace stream, issue geometry, callbacks.
	_, _, _, _ = c.eng, c.hier, c.memsys, c.stream
	_, _, _ = c.width, c.maxOut, c.stCap
	_, _, _ = c.onFinish, c.tickFn, c.reg
	_ = c.id // identity
	w.Int(c.cursor)
	w.Bool(c.scheduled)
	w.Bool(c.stalled)
	w.I64(c.FinishedAt)
	w.I64(c.Instructions)
	w.I64(c.LoadStallCycles)
	w.I64(c.lastStall)

	w.Count(len(c.slots))
	for _, s := range c.slots {
		_ = s.id     // identity: the save order below
		_ = s.doneFn // once-bound at creation, re-bound by restore's newSlot
		w.I64(s.done)
		w.Bool(s.ready)
		w.U64(uint64(s.req.Addr))
		w.U8(uint8(s.req.Type))
		w.Int(s.req.Core)
		w.I64(s.req.Issued)
		w.Bool(s.req.Done != nil) // always the slot's own doneFn until taken
	}
	saveRing(w, &c.window)
	saveRing(w, &c.stores)
	w.Count(len(c.freeSlots))
	for i := range c.freeSlots {
		w.Int(c.freeSlots[i].id)
	}
}

// LoadState restores one core into a freshly built machine.  Any
// provisional events Start scheduled are discarded by the engine load;
// everything Start touched is overwritten here.
func (c *Core) LoadState(r *ckpt.Reader) error {
	r.Tag(tagCPU)
	_, _, _, _ = c.eng, c.hier, c.memsys, c.stream
	_, _, _ = c.width, c.maxOut, c.stCap
	_, _, _ = c.onFinish, c.tickFn, c.reg
	_ = c.id // identity
	c.cursor = r.Int()
	c.scheduled = r.Bool()
	c.stalled = r.Bool()
	c.FinishedAt = r.I64()
	c.Instructions = r.I64()
	c.LoadStallCycles = r.I64()
	c.lastStall = r.I64()

	n := r.Count(1 << 24)
	if err := r.Err(); err != nil {
		return err
	}
	if n < len(c.slots) {
		return fmt.Errorf("cpu: core %d checkpoint has %d slots, machine already made %d: %w",
			c.id, n, len(c.slots), ckpt.ErrCorrupt)
	}
	for len(c.slots) < n {
		c.newSlot()
	}
	for _, s := range c.slots {
		_ = s.id
		_ = s.doneFn
		s.done = r.I64()
		s.ready = r.Bool()
		s.req.Addr = mem.Addr(r.U64())
		s.req.Type = mem.AccessType(r.U8())
		s.req.Core = r.Int()
		s.req.Issued = r.I64()
		if r.Bool() {
			s.req.Done = s.doneFn
		} else {
			s.req.Done = nil
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	if err := c.loadRing(r, &c.window); err != nil {
		return err
	}
	if err := c.loadRing(r, &c.stores); err != nil {
		return err
	}
	nf := r.Count(len(c.slots))
	if err := r.Err(); err != nil {
		return err
	}
	c.freeSlots = c.freeSlots[:0]
	for i := 0; i < nf; i++ {
		s, err := c.slotByID(r.Int(), r.Err())
		if err != nil {
			return err
		}
		c.putSlot(s)
	}
	return r.Err()
}

// SaveState serializes the complex: every core, the finish tracking,
// and the shared hierarchy.
func (cx *Complex) SaveState(w *ckpt.Writer) {
	w.Count(len(cx.Cores))
	for _, c := range cx.Cores {
		c.SaveState(w)
	}
	w.Int(cx.remaining)
	w.I64(cx.AllDoneAt)
	cx.Hier.SaveState(w)
}

// LoadState restores the complex.
func (cx *Complex) LoadState(r *ckpt.Reader) error {
	n := r.Count(1 << 16)
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(cx.Cores) {
		return fmt.Errorf("cpu: checkpoint has %d cores, machine wired %d: %w",
			n, len(cx.Cores), ckpt.ErrCorrupt)
	}
	for _, c := range cx.Cores {
		if err := c.LoadState(r); err != nil {
			return err
		}
	}
	cx.remaining = r.Int()
	cx.AllDoneAt = r.I64()
	return cx.Hier.LoadState(r)
}
