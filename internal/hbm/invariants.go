package hbm

import "fmt"

// CheckInvariants is the hbm leg of the opt-in online invariant
// checker: every valid tag maps back to the frame that holds it, the
// adaptive α/γ thresholds sit in their configured ranges, the regret
// tracker is bounded, and the RCU CAM is consistent.  Each check runs
// only when the row has the component.  Never called on the
// steady-state path.
func (c *controller) CheckInvariants() error {
	if c.tags != nil {
		if err := c.tags.check(); err != nil {
			return err
		}
	}
	red := &c.d.cfg.Red
	if c.p.gamma && (c.gamma < red.GammaMin || c.gamma > red.GammaMax) {
		return fmt.Errorf("hbm: gamma %d outside configured range [%d, %d]",
			c.gamma, red.GammaMin, red.GammaMax)
	}
	if c.at != nil {
		if a := c.at.Alpha(); a < red.AlphaMin || a > red.AlphaMax {
			return fmt.Errorf("hbm: alpha %d outside configured range [%d, %d]",
				a, red.AlphaMin, red.AlphaMax)
		}
	}
	if len(c.regretRing) > regretCap || len(c.regret) > len(c.regretRing) {
		return fmt.Errorf("hbm: regret tracker holds %d map entries over a %d-slot ring (cap %d)",
			len(c.regret), len(c.regretRing), regretCap)
	}
	if c.rcu != nil {
		return c.rcu.check()
	}
	return nil
}

func (t *tagStore) check() error {
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			continue
		}
		if e.tag&t.mask != uint64(i) {
			return fmt.Errorf("hbm: frame %d holds tag %#x, which maps to frame %d",
				i, e.tag, e.tag&t.mask)
		}
	}
	return nil
}

// check validates the RCU CAM: bounded occupancy, block-aligned unique
// addresses, and location tags consistent with the address mapping.
// (A parity-detected tag fault can orphan a CAM entry — its frame was
// dropped without the eviction path's dropFromRCU — so residency in the
// tag store is deliberately not asserted; orphans age out harmlessly.)
func (r *rcuManager) check() error {
	if len(r.entries) > r.cap {
		return fmt.Errorf("hbm: RCU CAM holds %d entries, above capacity %d", len(r.entries), r.cap)
	}
	for i := range r.entries {
		e := &r.entries[i]
		if e.addr != e.addr.Align() {
			return fmt.Errorf("hbm: RCU entry %d address %#x not block-aligned", i, uint64(e.addr))
		}
		if e.loc != r.hbm.Map(e.addr) {
			return fmt.Errorf("hbm: RCU entry %d location tag inconsistent with mapping of %#x",
				i, uint64(e.addr))
		}
		for j := i + 1; j < len(r.entries); j++ {
			if r.entries[j].addr == e.addr {
				return fmt.Errorf("hbm: RCU CAM holds duplicate entries for %#x", uint64(e.addr))
			}
		}
	}
	return nil
}
