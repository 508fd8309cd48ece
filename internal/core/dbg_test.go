//go:build bigmapdbg

package core

import (
	"strings"
	"testing"
)

// mustPanic runs fn and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one mentioning %q", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic = %v, want message mentioning %q", r, want)
		}
	}()
	fn()
}

func debugMap(t *testing.T) *BigMap {
	t.Helper()
	m, err := NewBigMap(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDebugAssertionsQuietOnHealthyMap exercises the full operation surface
// with assertions enabled; none may fire.
func TestDebugAssertionsQuietOnHealthyMap(t *testing.T) {
	m := debugMap(t)
	for i := uint32(0); i < 300; i++ {
		m.Add(i * 7 % 1024)
	}
	m.AddBatch([]uint32{1, 9, 9, 512, 1023})
	m.Classify()
	_ = m.Hash()
	m.Reset()

	fresh := debugMap(t)
	if err := fresh.RestoreAssignments(m.SlotKeys(), 0); err != nil {
		t.Fatal(err)
	}
}

func TestDebugAssertSlotKeyDrift(t *testing.T) {
	m := debugMap(t)
	m.Add(3)
	m.slotKey = m.slotKey[:0] // corrupt: table no longer tracks used_key
	mustPanic(t, "slotKey length", func() { m.Add(3) })
}

func TestDebugAssertHighWaterMark(t *testing.T) {
	m := debugMap(t)
	m.Add(3)
	m.hw = m.used + 5 // corrupt: mark points past the used region
	mustPanic(t, "high-water mark", func() { m.Add(3) })
}

func TestDebugAssertTraceCleanAboveMark(t *testing.T) {
	m := debugMap(t)
	m.Add(3)
	m.Add(4)
	m.Reset()
	m.Add(3)          // hw = 0
	m.coverage[1] = 7 // corrupt: non-zero slot above the mark
	mustPanic(t, "non-zero above high-water mark", m.Reset)
}

func TestDebugAssertBijection(t *testing.T) {
	m := debugMap(t)
	m.Add(3)
	m.Add(9)
	fresh := debugMap(t)
	keys := m.SlotKeys()
	if err := fresh.RestoreAssignments(keys, 0); err != nil {
		t.Fatal(err)
	}
	fresh.index[keys[0]] = 2 // corrupt: two keys claim slot 1 (stored as slot+1)
	mustPanic(t, "slotKey assigns", fresh.debugCheckBijection)
}

func TestDebugAssertNewestSlotPointsBack(t *testing.T) {
	m := debugMap(t)
	m.Add(3)
	m.index[3] = 2 // corrupt: the newest slot's key claims slot 1 (stored as slot+1)
	mustPanic(t, "slotKey assigns", func() { m.Add(3) })
}

// TestDebugAssertVirginCoversTrace compares a trace against a virgin whose
// logical length is too short for it — a virgin made by a map with a
// smaller slot region — so growth cannot cover the touched slots.
func TestDebugAssertVirginCoversTrace(t *testing.T) {
	small, err := NewBigMapSlots(1<<10, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := debugMap(t)
	for k := uint32(0); k < 16; k++ {
		m.Add(k)
	}
	mustPanic(t, "virgin stores", func() { m.ClassifyAndCompare(small.NewVirgin()) })
}
