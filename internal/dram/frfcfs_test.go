package dram

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"redcache/internal/ckpt"
	"redcache/internal/engine"
	"redcache/internal/stats"
)

// refPick is FR-FCFS as a scan of the whole queue, the scheduler before
// the bank index: the oldest transaction whose bank has its row open;
// otherwise, among the oldest pickScan, the one whose first command is
// legal earliest, the oldest on a tie.  pickFrom must choose exactly
// the transaction refPick does.
func (c *Controller) refPick(ch *channel, q *txnQueue) *Txn {
	for t := q.head; t != nil; t = t.next {
		if ch.ranks[t.Loc.Rank].banks[t.Loc.Bank].openRow == t.Loc.Row {
			return t
		}
	}
	best, bestAt := q.head, int64(1)<<62
	i := 0
	for t := q.head; t != nil && i < pickScan; t, i = t.next, i+1 {
		if at := c.readyAt(ch, t); at < bestAt {
			best, bestAt = t, at
		}
	}
	return best
}

// pickRig drives one testDRAM(8) channel through an operation script
// and checks, before every engine event (so before every issue), that
// the indexed pick of each non-empty queue is the reference scan's.
type pickRig struct {
	t   testing.TB
	eng *engine.Engine
	c   *Controller
	reg *engine.FnRegistry

	done      func(int64) // the one registered completion callback
	enqueued  int
	completed int
	col       int64

	// Coverage of the checked picks.
	hitPicks, fcfsPicks, deepPicks, crossBankHits, maxDepth int
}

// rigDoneKey registers the rig's completion callback under a namespace
// no engine component uses.
const rigDoneKey = uint64(0xd0) << 56

func newPickRig(t testing.TB) *pickRig {
	r := &pickRig{t: t}
	r.done = func(int64) { r.completed++ }
	r.eng, r.c, r.reg = r.wire()
	return r
}

// wire builds a fresh engine and controller with their callbacks
// registered, as a restore does.
func (r *pickRig) wire() (*engine.Engine, *Controller, *engine.FnRegistry) {
	eng := engine.New()
	c := NewController(eng, testDRAM(8), &stats.Interface{Name: "test"})
	reg := engine.NewFnRegistry()
	c.RegisterFns(reg, 0)
	reg.RegisterTimed(rigDoneKey, r.done)
	return eng, c, reg
}

// enqueue adds one transaction described by b: bank b&7, row (b>>3)&3,
// and a read, posted write or priority write by b>>5.
func (r *pickRig) enqueue(b byte) {
	addr := rowAddr(r.c, int64(b&7), int64(b>>3&3), r.col%32)
	r.col++
	r.enqueued++
	switch b >> 5 {
	case 4, 5:
		r.c.Write(addr, 64, r.done)
	case 6:
		r.c.WritePriority(addr, 8, r.done)
	default:
		r.c.Read(addr, 64, r.done)
	}
}

// step checks both queues' picks and fires one event.
func (r *pickRig) step() bool {
	ch := &r.c.chans[0]
	for _, q := range [2]*txnQueue{&ch.rdq, &ch.wrq} {
		if q.n == 0 {
			continue
		}
		want := r.c.refPick(ch, q)
		var hitBanks uint64 // banks with a row hit queued
		for t := q.head; t != nil; t = t.next {
			if ch.ranks[t.Loc.Rank].banks[t.Loc.Bank].openRow == t.Loc.Row {
				hitBanks |= 1 << t.bank
			}
		}
		if got := r.c.pickFrom(ch, q); got != want {
			r.t.Fatalf("cycle %d, %d queued: indexed pick %s bank %d row %d seq %d, scan picks %s bank %d row %d seq %d",
				r.eng.Now(), q.n, got.Op, got.bank, got.Loc.Row, got.seq, want.Op, want.bank, want.Loc.Row, want.seq)
		}
		if hitBanks != 0 {
			r.hitPicks++
		} else {
			r.fcfsPicks++
		}
		if q.n > pickScan {
			r.deepPicks++
		}
		if bits.OnesCount64(hitBanks) > 1 {
			r.crossBankHits++
		}
		r.maxDepth = max(r.maxDepth, q.n)
	}
	return r.eng.Step()
}

// refresh forces a refresh now; testDRAM never refreshes on its own.
func (r *pickRig) refresh() {
	ch := &r.c.chans[0]
	r.c.doRefresh(0, ch)
	ch.nextRefresh = 1 << 62
}

// reload checkpoints the engine and controller and restores them into
// a freshly wired pair, which continues the run.
func (r *pickRig) reload() {
	var w ckpt.Writer
	if err := r.eng.SaveState(&w, r.reg); err != nil {
		r.t.Fatal(err)
	}
	if err := r.c.SaveState(&w, r.reg); err != nil {
		r.t.Fatal(err)
	}
	eng, c, reg := r.wire()
	rd := ckpt.NewReader(w.Bytes())
	if err := eng.LoadState(rd, reg); err != nil {
		r.t.Fatal(err)
	}
	if err := c.LoadState(rd, reg); err != nil {
		r.t.Fatal(err)
	}
	if rd.Remaining() != 0 {
		r.t.Fatalf("%d checkpoint bytes left unread", rd.Remaining())
	}
	r.eng, r.c, r.reg = eng, c, reg
}

// run executes script: each byte picks an operation, and the bytes
// after it are the operation's operands.  At the end the run drains
// and every transaction must have completed.
func (r *pickRig) run(script []byte) {
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	for len(script) > 0 {
		switch op := next(); op % 8 {
		case 0, 1, 2: // a burst of 1-16 enqueues
			for n := 1 + int(next()%16); n > 0; n-- {
				r.enqueue(next())
			}
		case 3, 4, 5: // 1-32 engine events
			for n := 1 + int(next()%32); n > 0 && r.step(); n-- {
			}
		case 6:
			r.refresh()
		case 7:
			r.reload()
		}
		if err := r.c.CheckInvariants(); err != nil {
			r.t.Fatal(err)
		}
	}
	for r.step() {
	}
	if err := r.c.CheckInvariants(); err != nil {
		r.t.Fatal(err)
	}
	if r.completed != r.enqueued || r.c.TotalQueued() != 0 {
		r.t.Fatalf("%d of %d transactions completed, %d still queued",
			r.completed, r.enqueued, r.c.TotalQueued())
	}
}

// pickScript draws a script that enqueues faster than it steps, so
// the queues grow past pickScan, with a refresh and a checkpoint
// round trip now and then.
func pickScript(rng *rand.Rand, ops int) []byte {
	var s []byte
	for i := 0; i < ops; i++ {
		switch k := rng.Intn(20); {
		case k < 9:
			n := rng.Intn(16)
			s = append(s, 0, byte(n))
			for j := 0; j <= n; j++ {
				s = append(s, byte(rng.Intn(256)))
			}
		case k < 18:
			s = append(s, 3, byte(rng.Intn(32)))
		case k < 19:
			s = append(s, 6)
		default:
			s = append(s, 7)
		}
	}
	return s
}

// TestFRFCFSPickMatchesScan runs seeded random scripts of reads,
// posted and priority writes, engine steps, refreshes and checkpoint
// round trips, and requires every pick to be the reference scan's.
func TestFRFCFSPickMatchesScan(t *testing.T) {
	var hit, fcfs, deep, cross, depth int
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		r := newPickRig(t)
		r.run(pickScript(rand.New(rand.NewSource(seed)), 400))
		hit += r.hitPicks
		fcfs += r.fcfsPicks
		deep += r.deepPicks
		cross += r.crossBankHits
		depth = max(depth, r.maxDepth)
	}
	t.Logf("%d row-hit picks, %d FCFS picks, %d above pickScan, %d with hits in several banks, max depth %d",
		hit, fcfs, deep, cross, depth)
	// The scripts must reach every case the index distinguishes.
	if hit == 0 || fcfs == 0 || deep == 0 || cross == 0 || depth <= 2*pickScan {
		t.Fatalf("scripts too shallow: %d row-hit picks, %d FCFS picks, %d picks above pickScan, %d with hits in several banks, max depth %d",
			hit, fcfs, deep, cross, depth)
	}
}

// FuzzFRFCFSPick checks the indexed pick against the reference scan on
// arbitrary operation scripts.
func FuzzFRFCFSPick(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(pickScript(rand.New(rand.NewSource(seed)), 60))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip("script longer than the queue bound needs")
		}
		newPickRig(t).run(script)
	})
}

// openRow opens row on bank b of the test channel without issuing.
func openRow(c *Controller, b int, row int64) {
	c.chans[0].ranks[0].banks[b].openRow = row
}

// queued enqueues a read of (bank, row) without running the engine and
// returns its transaction.
func queued(c *Controller, b, row int64) *Txn {
	c.Read(rowAddr(c, b, row, 0), 64, nil)
	return c.chans[0].rdq.tail
}

func TestPickYoungerRowHitBeatsOlderMiss(t *testing.T) {
	_, c, _ := newTestCtl(t, 8)
	openRow(c, 0, 0)
	queued(c, 0, 1) // older, misses the open row
	hit := queued(c, 0, 0)
	ch := &c.chans[0]
	if got := c.pickFrom(ch, &ch.rdq); got != hit {
		t.Fatalf("picked row %d seq %d, want the younger row hit", got.Loc.Row, got.seq)
	}
}

func TestPickOldestRowHitAcrossBanks(t *testing.T) {
	_, c, _ := newTestCtl(t, 8)
	for b := 0; b < 4; b++ {
		openRow(c, b, 0)
	}
	miss := queued(c, 1, 5)
	h1 := queued(c, 2, 0)
	h2 := queued(c, 0, 0)
	h3 := queued(c, 2, 0)
	ch := &c.chans[0]
	for i, want := range []*Txn{h1, h2, h3, miss} {
		got := c.pickFrom(ch, &ch.rdq)
		if got != want {
			t.Fatalf("pick %d: bank %d row %d seq %d, want bank %d row %d seq %d",
				i, got.bank, got.Loc.Row, got.seq, want.bank, want.Loc.Row, want.seq)
		}
		ch.rdq.remove(got)
	}
}

func TestPickWithoutHitScansOldestSixteen(t *testing.T) {
	_, c, _ := newTestCtl(t, 8)
	ch := &c.chans[0]
	// Bank 0 holds row 7 open since cycle 0, so a miss there waits tRAS
	// to precharge, while the closed banks can activate at once.
	openRow(c, 0, 7)
	first := queued(c, 0, 1)
	early := queued(c, 1, 0)
	queued(c, 2, 0) // as ready as early, but younger
	if got := c.pickFrom(ch, &ch.rdq); got != early {
		t.Fatalf("picked bank %d seq %d, want the oldest earliest-ready (bank 1)", got.bank, got.seq)
	}
	ch.rdq.remove(early)
	ch.rdq.remove(ch.rdq.tail)
	// Fill the scan window with misses on bank 0, then queue a ready
	// transaction behind it: it is beyond pickScan, so the oldest of the
	// equally late window entries wins.
	for i := 1; i < pickScan; i++ {
		queued(c, 0, int64(1+i%3))
	}
	queued(c, 1, 0)
	if got := c.pickFrom(ch, &ch.rdq); got != first {
		t.Fatalf("picked bank %d seq %d, want the oldest of the scan window", got.bank, got.seq)
	}
}

// TestSequenceWrapKeepsArrivalOrder: the counter renumbers the queue
// instead of wrapping, so the oldest row hit still wins afterwards.
func TestSequenceWrapKeepsArrivalOrder(t *testing.T) {
	_, c, _ := newTestCtl(t, 8)
	openRow(c, 0, 0)
	openRow(c, 1, 0)
	ch := &c.chans[0]
	ch.rdq.seq = math.MaxUint32 - 2
	queued(c, 2, 0) // the head misses, so the banks' hits are compared
	old := queued(c, 1, 0)
	queued(c, 0, 0)
	queued(c, 0, 0)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := c.pickFrom(ch, &ch.rdq); got != old || ch.rdq.seq != 4 {
		t.Fatalf("after the wrap: picked seq %d (want %d), counter %d (want 4)", got.seq, old.seq, ch.rdq.seq)
	}
}

// TestInvariantsCatchIndexCorruption: the sweep reports a broken list
// link and a stale cached row hit.
func TestInvariantsCatchIndexCorruption(t *testing.T) {
	_, c, _ := newTestCtl(t, 8)
	openRow(c, 3, 2)
	for i := int64(0); i < 12; i++ {
		queued(c, i%4, i%3)
	}
	ch := &c.chans[0]
	c.pickFrom(ch, &ch.rdq) // build the cached hits
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("clean queue: %v", err)
	}

	mid := ch.rdq.head.next.next
	saved := mid.prev
	mid.prev = mid
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("sweep accepted a broken prev link")
	}
	mid.prev = saved

	bq := &ch.rdq.banks[3]
	hit := bq.hit
	if hit == nil || bq.hitRow != 2 {
		t.Fatalf("bank 3 has no cached hit for its open row 2")
	}
	bq.hit = nil
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("sweep accepted a stale cached row hit")
	}
	bq.hit = hit
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("restored queue: %v", err)
	}
}
