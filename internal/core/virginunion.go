package core

import (
	"bytes"
	"sync"
)

// Campaign-level union coverage. Each parallel fuzzing instance owns a
// private virgin map, so "edges the campaign as a whole has discovered"
// needs a shared view: a virgin-shaped map indexed by raw coverage key that
// instance virgin state is merged into. dist.Worker renders each instance's
// coverage into one before publishing it as a delta.
//
// Virgin bytes only ever lose bits (0xFF = untouched, bits clear as buckets
// are discovered), so the union of instance coverage is the bitwise AND of
// their virgin bytes — commutative, associative and idempotent, so merge
// order never matters.
//
// The union is keyed by raw coverage key rather than dense slot because
// BigMap instances assign dense slots in private first-sight order — slot 7
// on instance A and slot 7 on instance B are usually different edges. Flat
// (AFL) maps pass slotKeys == nil and merge by raw key; BigMap passes its
// slot-to-key table and each slot's byte is routed to its raw key.

// CoverageMerger is the optional map interface that routes an instance's
// virgin state into a LockedVirginUnion with the right indexing: the flat
// scheme merges by raw key, the two-level scheme translates dense slots
// through its slot-to-key table. Both schemes implement it.
type CoverageMerger interface {
	// MergeVirginInto folds v (a virgin created by this map's NewVirgin)
	// into u. The map itself is read-only during the call.
	MergeVirginInto(u *LockedVirginUnion, v *Virgin)
}

// LockedVirginUnion is the campaign coverage union: one mutex, plain byte
// loops.
type LockedVirginUnion struct {
	mu         sync.Mutex
	bits       []byte // guarded by mu
	discovered int    // guarded by mu
}

// NewLockedVirginUnion creates an empty union over a key space of the given
// size.
func NewLockedVirginUnion(size int) (*LockedVirginUnion, error) {
	if !validSize(size) {
		return nil, ErrBadMapSize
	}
	return &LockedVirginUnion{bits: bytes.Repeat([]byte{0xFF}, size)}, nil
}

// Size returns the key space the union covers.
func (u *LockedVirginUnion) Size() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.bits)
}

// MergeVirgin folds one instance's virgin map into the union. slotKeys is
// nil for the flat scheme (v is indexed by raw key) or the dense slot-to-key
// table for the two-level scheme (v is indexed by slot).
func (u *LockedVirginUnion) MergeVirgin(v *Virgin, slotKeys []uint32) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if slotKeys != nil {
		for slot, key := range slotKeys {
			b := v.bits[slot]
			if b == 0xFF || int(key) >= len(u.bits) {
				continue
			}
			u.andByteLocked(int(key), b)
		}
		return
	}
	n := len(v.bits)
	if n > len(u.bits) {
		n = len(u.bits)
	}
	for i := 0; i < n; i++ {
		b := v.bits[i]
		if b == 0xFF {
			continue
		}
		u.andByteLocked(i, b)
	}
}

func (u *LockedVirginUnion) andByteLocked(key int, b byte) {
	old := u.bits[key]
	merged := old & b
	if merged == old {
		return
	}
	if old == 0xFF {
		u.discovered++
	}
	u.bits[key] = merged
}

// CountDiscovered returns the number of keys with at least one discovered
// bucket bit across all merged instances.
func (u *LockedVirginUnion) CountDiscovered() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.discovered
}

// Snapshot returns a copy of the union's virgin bytes, indexed by raw
// coverage key.
func (u *LockedVirginUnion) Snapshot() []byte {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make([]byte, len(u.bits))
	copy(out, u.bits)
	return out
}
