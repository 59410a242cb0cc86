package engine

import (
	"strings"
	"testing"
)

func TestCheckHeapCleanQueue(t *testing.T) {
	e := New()
	for i := int64(50); i > 0; i-- {
		e.Schedule(i*3, func() {})
		e.Schedule(i*17, func() {})
	}
	if err := e.CheckHeap(); err != nil {
		t.Fatalf("fresh queue: %v", err)
	}
	for i := 0; i < 60; i++ {
		e.Step()
		e.After(int64(i%7)*40, func() {})
		if err := e.CheckHeap(); err != nil {
			t.Fatalf("after step %d: %v", i, err)
		}
	}
}

func TestCheckHeapDetectsCorruption(t *testing.T) {
	e := New()
	for i := int64(1); i <= 20; i++ {
		e.Schedule(wheelSize+i*10, func() {})
	}
	// Corrupt a leaf so it sorts before its parent.
	e.events[7].at = -5
	err := e.CheckHeap()
	if err == nil {
		t.Fatal("corrupted heap passed CheckHeap")
	}
	if !strings.Contains(err.Error(), "heap order violated") &&
		!strings.Contains(err.Error(), "in the past") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCheckHeapDetectsStaleClock(t *testing.T) {
	e := New()
	e.Schedule(10, func() {})
	e.now = 50
	if err := e.CheckHeap(); err == nil {
		t.Fatal("past-scheduled event passed CheckHeap")
	}
}

// wheelWithEvents returns an engine whose wheel holds events at cycles
// 3, 3 and 9 (plus one heap event), so each corruption test starts from
// a queue CheckHeap accepts.
func wheelWithEvents(t *testing.T) *Engine {
	t.Helper()
	e := New()
	for _, at := range []int64{3, 9, 3, wheelSize + 40} {
		e.Schedule(at, func() {})
	}
	if err := e.CheckHeap(); err != nil {
		t.Fatalf("clean wheel: %v", err)
	}
	return e
}

func TestCheckHeapDetectsWrongCycleSlotEntry(t *testing.T) {
	for name, corrupt := range map[string]func(*Event){
		// Same slot, one revolution later: congruent but outside the window.
		"next revolution": func(ev *Event) { ev.at += wheelSize },
		// Inside the window but not congruent to the slot.
		"other cycle": func(ev *Event) { ev.at++ },
	} {
		e := wheelWithEvents(t)
		corrupt(&e.slab[e.head[9]].ev)
		err := e.CheckHeap()
		if err == nil || !strings.Contains(err.Error(), "wheel slot 9 holds an event for cycle") {
			t.Errorf("%s: CheckHeap = %v, want a wrong-cycle slot error", name, err)
		}
	}
}

func TestCheckHeapDetectsWheelOrder(t *testing.T) {
	e := wheelWithEvents(t)
	first := &e.slab[e.head[3]].ev
	second := &e.slab[e.slab[e.head[3]].next].ev
	first.seq, second.seq = second.seq, first.seq
	if err := e.CheckHeap(); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("CheckHeap = %v, want a FIFO order error", err)
	}
}

func TestCheckHeapDetectsStaleBitmapBit(t *testing.T) {
	e := wheelWithEvents(t)
	e.occ[0] |= 1 << 5 // slot 5 is empty
	if err := e.CheckHeap(); err == nil || !strings.Contains(err.Error(), "slot 5 occupancy bit true") {
		t.Fatalf("CheckHeap = %v, want a stale occupancy bit error", err)
	}
	e = wheelWithEvents(t)
	e.occ[0] &^= 1 << 9 // slot 9 holds an event
	if err := e.CheckHeap(); err == nil || !strings.Contains(err.Error(), "slot 9 occupancy bit false") {
		t.Fatalf("CheckHeap = %v, want a missing occupancy bit error", err)
	}
}

func TestCheckHeapDetectsWheelCount(t *testing.T) {
	e := wheelWithEvents(t)
	e.wheelN++
	if err := e.CheckHeap(); err == nil || !strings.Contains(err.Error(), "wheel count") {
		t.Fatalf("CheckHeap = %v, want a wheel count error", err)
	}
}

func TestCheckHeapDetectsWheelSeqBeyondAllocator(t *testing.T) {
	e := wheelWithEvents(t)
	e.slab[e.head[9]].ev.seq = e.seq + 1
	if err := e.CheckHeap(); err == nil || !strings.Contains(err.Error(), "beyond the allocator") {
		t.Fatalf("CheckHeap = %v, want a sequence bound error", err)
	}
}

func TestCheckHeapDetectsDirtyFreeCell(t *testing.T) {
	e := wheelWithEvents(t)
	e.slab[e.free].ev.fn = func() {}
	if err := e.CheckHeap(); err == nil || !strings.Contains(err.Error(), "free wheel cell") {
		t.Fatalf("CheckHeap = %v, want a dirty free cell error", err)
	}
}
