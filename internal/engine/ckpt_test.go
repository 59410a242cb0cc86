package engine

import (
	"errors"
	"testing"

	"redcache/internal/ckpt"
)

// TestLoadStateRejectsEventOutsideClockOrSequence: a checkpointed event
// before the saved clock or beyond the saved sequence counter is
// corrupt.  Restoring it would put a past event on the heap, or let a
// later push append a lower seq behind it in a wheel slot.
func TestLoadStateRejectsEventOutsideClockOrSequence(t *testing.T) {
	fn := func() {}
	for name, ev := range map[string]struct {
		at  int64
		seq uint64
	}{
		"before the clock":       {at: 99, seq: 1},
		"beyond the seq counter": {at: 120, seq: 6},
	} {
		var w ckpt.Writer
		w.Tag(tagEngine)
		w.I64(100) // now
		w.U64(5)   // seq
		w.U64(0)   // fired
		w.Int(0)   // periodic ticks
		w.Count(1)
		w.I64(ev.at)
		w.U64(ev.seq)
		w.U8(0)
		w.U64(Key(KeyCPUCore, 0, 0))
		w.U64(0)
		w.Count(0)
		reg := NewFnRegistry()
		reg.RegisterFn(Key(KeyCPUCore, 0, 0), fn)
		if err := New().LoadState(ckpt.NewReader(w.Bytes()), reg); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s: LoadState = %v, want ErrCorrupt", name, err)
		}
	}
}
