package core

import (
	"bytes"
	"sync"
	"testing"

	"github.com/bigmap/bigmap/internal/rng"
)

// The campaign union must agree with a plain scalar model: arbitrary
// instance virgin states, merged in arbitrary orders and from arbitrary
// goroutine interleavings, must produce identical union bytes and identical
// discovered counts.

// randomVirgin builds an instance virgin of n slots with roughly the given
// percentage of discovered (non-0xFF) bytes.
func randomVirgin(src *rng.Source, n, density int) *Virgin {
	v := newVirgin(n)
	for i := range v.bits {
		if src.Intn(100) < density {
			v.bits[i] = byte(src.Uint32()) // any value below full-virgin
			if v.bits[i] == 0xFF {
				v.bits[i] = 0
			}
		}
	}
	v.discovered = v.recountDiscovered()
	return v
}

// randomSlotKeys builds a plausible slot-to-key table: distinct keys in the
// union's key space, one per slot.
func randomSlotKeys(src *rng.Source, slots, size int) []uint32 {
	seen := make(map[uint32]bool, slots)
	keys := make([]uint32, 0, slots)
	for len(keys) < slots {
		k := uint32(src.Intn(size))
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
	}
	return keys
}

type mergeOp struct {
	v        *Virgin
	slotKeys []uint32 // nil for the flat path
}

func randomMergeOps(src *rng.Source, size, n int) []mergeOp {
	ops := make([]mergeOp, n)
	for i := range ops {
		if src.Intn(2) == 0 {
			ops[i] = mergeOp{v: randomVirgin(src, size, 1+src.Intn(40))}
		} else {
			slots := 1 + src.Intn(size/2)
			ops[i] = mergeOp{
				v:        randomVirgin(src, slots, 1+src.Intn(60)),
				slotKeys: randomSlotKeys(src, slots, size),
			}
		}
	}
	return ops
}

// modelUnion is the in-test scalar model the union is checked against: plain
// byte ANDs into a slice.
func modelUnion(size int, ops []mergeOp) ([]byte, int) {
	bits := bytes.Repeat([]byte{0xFF}, size)
	for _, op := range ops {
		if op.slotKeys == nil {
			for i, b := range op.v.bits {
				if i < size {
					bits[i] &= b
				}
			}
			continue
		}
		for slot, key := range op.slotKeys {
			bits[key] &= op.v.bits[slot]
		}
	}
	discovered := 0
	for _, b := range bits {
		if b != 0xFF {
			discovered++
		}
	}
	return bits, discovered
}

// TestVirginUnionMergeOrderIrrelevant re-merges the same ops in reversed and
// duplicated order: AND-merges are commutative and idempotent, so the result
// must not move, and it must match the scalar model.
func TestVirginUnionMergeOrderIrrelevant(t *testing.T) {
	src := rng.New(0x5eed)
	const size = 256
	ops := randomMergeOps(src, size, 5)

	forward, _ := NewLockedVirginUnion(size)
	backward, _ := NewLockedVirginUnion(size)
	for _, op := range ops {
		forward.MergeVirgin(op.v, op.slotKeys)
	}
	for i := len(ops) - 1; i >= 0; i-- {
		backward.MergeVirgin(ops[i].v, ops[i].slotKeys)
		backward.MergeVirgin(ops[i].v, ops[i].slotKeys) // idempotent
	}
	if !bytes.Equal(forward.Snapshot(), backward.Snapshot()) {
		t.Fatal("merge order changed the union bytes")
	}
	if want, wantDisc := modelUnion(size, ops); !bytes.Equal(forward.Snapshot(), want) || forward.CountDiscovered() != wantDisc {
		t.Fatal("union diverged from the scalar model")
	}
	if forward.CountDiscovered() != backward.CountDiscovered() {
		t.Fatalf("merge order changed the discovered count: %d vs %d",
			forward.CountDiscovered(), backward.CountDiscovered())
	}
}

// TestVirginUnionConcurrentMatchesSequential runs the same merge set from
// many goroutines and sequentially; the results must be identical.
func TestVirginUnionConcurrentMatchesSequential(t *testing.T) {
	src := rng.New(0xc0ffee)
	const size = 1024
	ops := randomMergeOps(src, size, 16)

	sequential, _ := NewLockedVirginUnion(size)
	for _, op := range ops {
		sequential.MergeVirgin(op.v, op.slotKeys)
	}

	for round := 0; round < 20; round++ {
		concurrent, _ := NewLockedVirginUnion(size)
		var wg sync.WaitGroup
		for _, op := range ops {
			wg.Add(1)
			go func(op mergeOp) {
				defer wg.Done()
				concurrent.MergeVirgin(op.v, op.slotKeys)
			}(op)
		}
		wg.Wait()
		if !bytes.Equal(concurrent.Snapshot(), sequential.Snapshot()) {
			t.Fatalf("round %d: concurrent merge diverged from sequential", round)
		}
		if concurrent.CountDiscovered() != sequential.CountDiscovered() {
			t.Fatalf("round %d: concurrent discovered %d, sequential %d",
				round, concurrent.CountDiscovered(), sequential.CountDiscovered())
		}
	}
}

// TestVirginUnionRace hammers concurrent merges against Snapshot and
// CountDiscovered readers. Its job is to run under `go test -race` (the CI
// race job): any unsynchronized access is a hard failure there.
func TestVirginUnionRace(t *testing.T) {
	src := rng.New(0xace)
	const size = 2048
	ops := randomMergeOps(src, size, 12)

	u, _ := NewLockedVirginUnion(size)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: snapshot + count in a tight loop until the writers finish.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := u.Snapshot()
				if len(snap) != size {
					t.Errorf("snapshot length %d, want %d", len(snap), size)
					return
				}
				_ = u.CountDiscovered()
			}
		}()
	}
	// Writers: every op merged repeatedly from its own goroutine.
	var writers sync.WaitGroup
	for _, op := range ops {
		writers.Add(1)
		go func(op mergeOp) {
			defer writers.Done()
			for i := 0; i < 50; i++ {
				u.MergeVirgin(op.v, op.slotKeys)
			}
		}(op)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	want, wantDisc := modelUnion(size, ops)
	if got := u.Snapshot(); !bytes.Equal(got, want) {
		t.Fatal("post-hammer union bytes diverged from model")
	}
	if got := u.CountDiscovered(); got != wantDisc {
		t.Fatalf("post-hammer discovered %d, model %d", got, wantDisc)
	}
}

// TestCoverageMergerSlotTranslation checks the map-side adapters: a BigMap
// merge routes dense slots through the slot-to-key table, an AFLMap merge is
// the identity mapping, and two BigMap instances with different assignment
// histories land their shared edges on the same union keys.
func TestCoverageMergerSlotTranslation(t *testing.T) {
	const size = 256
	a := mustBig(t, size)
	b := mustBig(t, size)
	// Same edges, opposite discovery order: dense slots differ.
	for _, k := range []uint32{10, 20, 30} {
		a.Add(k)
	}
	for _, k := range []uint32{30, 20, 10} {
		b.Add(k)
	}
	va, vb := a.NewVirgin(), b.NewVirgin()
	a.ClassifyAndCompare(va)
	b.ClassifyAndCompare(vb)

	u, _ := NewLockedVirginUnion(size)
	a.MergeVirginInto(u, va)
	snapA := u.Snapshot()
	b.MergeVirginInto(u, vb)
	if !bytes.Equal(snapA, u.Snapshot()) {
		t.Fatal("identical coverage from a second instance changed the union: slot translation is broken")
	}
	if got := u.CountDiscovered(); got != 3 {
		t.Fatalf("discovered %d, want 3", got)
	}

	flat, err := NewAFLMap(size)
	if err != nil {
		t.Fatal(err)
	}
	flat.Add(10)
	flat.Add(99)
	vf := flat.NewVirgin()
	flat.ClassifyAndCompare(vf)
	flat.MergeVirginInto(u, vf)
	if got := u.CountDiscovered(); got != 4 {
		t.Fatalf("discovered %d after flat merge, want 4 (key 10 shared, key 99 new)", got)
	}
	if snap := u.Snapshot(); snap[99] == 0xFF {
		t.Fatal("flat merge did not land on raw key 99")
	}
}
