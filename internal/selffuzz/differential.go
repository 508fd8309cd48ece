package selffuzz

import (
	"fmt"

	"github.com/bigmap/bigmap/internal/collision"
	"github.com/bigmap/bigmap/internal/core"
)

// maxDiffOps bounds the decoded program length per fuzz execution.
const maxDiffOps = 1 << 12

// schemePair drives the flat AFL map and the two-level BigMap in lockstep,
// with a reference model (the set of keys ever added) checking BigMap's
// used_key accounting. A snapshot captures everything the checkpoint layer
// would persist at the map level; restore rebuilds fresh maps from it, which
// is exactly what a campaign resume does.
type schemePair struct {
	size int
	afl  core.Map
	big  *core.BigMap
	va   *core.Virgin
	vb   *core.Virgin

	seen map[uint32]bool // keys added since creation/restore (model for used_key)

	snap *pairSnapshot
}

type pairSnapshot struct {
	virginA  []core.DeltaWord
	virginB  []core.DeltaWord
	slotKeys []uint32
	dropped  uint64
	seen     map[uint32]bool
}

func newSchemePair(size int) (*schemePair, error) {
	afl, err := core.NewAFLMap(size)
	if err != nil {
		return nil, err
	}
	big, err := core.NewBigMap(size)
	if err != nil {
		return nil, err
	}
	return &schemePair{
		size: size,
		afl:  afl,
		big:  big,
		va:   afl.NewVirgin(),
		vb:   big.NewVirgin(),
		seen: map[uint32]bool{},
	}, nil
}

// RunSchemeDifferential executes an op sequence against both map schemes and
// returns an error on the first observable divergence: per-flush verdicts,
// non-zero counts, touched-slot counts, discovered totals, used_key vs the
// reference model, hash determinism, and snapshot/restore fidelity. This is
// the paper's core semantic claim — the two-level map is a drop-in for the
// flat map — checked under arbitrary adversarial interleavings.
func RunSchemeDifferential(size int, ops []Op) error {
	p, err := newSchemePair(size)
	if err != nil {
		return err
	}
	for i, op := range ops {
		if err := p.apply(op); err != nil {
			return fmt.Errorf("op %d (%d): %w", i, op.Code, err)
		}
	}
	// Trailing un-flushed trace: flush once more so every program ends with
	// a full invariant check, then compare global coverage.
	if err := p.flush(true); err != nil {
		return fmt.Errorf("final flush: %w", err)
	}
	if p.va.CountDiscovered() != p.vb.CountDiscovered() {
		return fmt.Errorf("final discovered diverged: afl=%d bigmap=%d",
			p.va.CountDiscovered(), p.vb.CountDiscovered())
	}
	return nil
}

func (p *schemePair) apply(op Op) error {
	switch op.Code {
	case OpAdd:
		k := uint32(op.Key) & uint32(p.size-1)
		p.afl.Add(k)
		p.big.Add(k)
		p.seen[k] = true
	case OpAddBatch:
		keys := make([]uint32, len(op.Keys))
		for i, k := range op.Keys {
			keys[i] = uint32(k) & uint32(p.size-1)
			p.seen[keys[i]] = true
		}
		p.afl.AddBatch(keys)
		p.big.AddBatch(keys)
	case OpFlushMerged:
		return p.flush(true)
	case OpFlushSplit:
		return p.flush(false)
	case OpColliding:
		keys := collision.Colliding(p.size, int(op.N), int(op.Distinct), uint64(op.Seed))
		for _, k := range keys {
			p.seen[k] = true
		}
		p.afl.AddBatch(keys)
		p.big.AddBatch(keys)
	case OpSnapshot:
		seen := make(map[uint32]bool, len(p.seen))
		for k := range p.seen {
			seen[k] = true
		}
		p.snap = &pairSnapshot{
			virginA:  p.va.Words(),
			virginB:  p.vb.Words(),
			slotKeys: p.big.SlotKeys(),
			dropped:  p.big.DroppedKeys(),
			seen:     seen,
		}
	case OpRestore:
		return p.restore()
	}
	return nil
}

// flush ends an execution on both maps — merged (ClassifyAndCompare) or
// split (Classify then CompareWith) traversal — and checks every observable
// the fuzzer consumes at an execution boundary.
func (p *schemePair) flush(merged bool) error {
	if nza, nzb := p.afl.CountNonZero(), p.big.CountNonZero(); nza != nzb {
		return fmt.Errorf("CountNonZero diverged pre-flush: afl=%d bigmap=%d", nza, nzb)
	}
	if used, model := p.big.UsedKeys(), len(p.seen); used != model {
		return fmt.Errorf("bigmap used_key=%d, reference model has %d distinct keys", used, model)
	}
	ta := p.afl.AppendTouched(nil)
	tb := p.big.AppendTouched(nil)
	if len(ta) != len(tb) {
		return fmt.Errorf("touched count diverged: afl=%d bigmap=%d", len(ta), len(tb))
	}
	var ga, gb core.Verdict
	if merged {
		ga = p.afl.ClassifyAndCompare(p.va)
		gb = p.big.ClassifyAndCompare(p.vb)
	} else {
		p.afl.Classify()
		p.big.Classify()
		ga = p.afl.CompareWith(p.va)
		gb = p.big.CompareWith(p.vb)
	}
	if ga != gb {
		return fmt.Errorf("verdicts diverged (merged=%t): afl=%v bigmap=%v", merged, ga, gb)
	}
	if ha, hb := p.afl.Hash(), p.big.Hash(); ha != p.afl.Hash() || hb != p.big.Hash() {
		return fmt.Errorf("hash not deterministic on classified trace")
	}
	if da, db := p.va.CountDiscovered(), p.vb.CountDiscovered(); da != db {
		return fmt.Errorf("discovered diverged post-flush: afl=%d bigmap=%d", da, db)
	}
	p.afl.Reset()
	p.big.Reset()
	return nil
}

// restore rebuilds both schemes from the last snapshot (or pristine state),
// the way a campaign resume rebuilds its maps from a checkpoint: fresh maps,
// virgin state replayed via SetWords, and the BigMap slot table re-established
// through RestoreAssignments.
func (p *schemePair) restore() error {
	fresh, err := newSchemePair(p.size)
	if err != nil {
		return err
	}
	if s := p.snap; s != nil {
		if err := fresh.va.SetWords(s.virginA); err != nil {
			return fmt.Errorf("restore afl virgin: %w", err)
		}
		if err := fresh.vb.SetWords(s.virginB); err != nil {
			return fmt.Errorf("restore bigmap virgin: %w", err)
		}
		if err := fresh.big.RestoreAssignments(s.slotKeys, s.dropped); err != nil {
			return fmt.Errorf("restore slot table: %w", err)
		}
		seen := make(map[uint32]bool, len(s.seen))
		for k := range s.seen {
			seen[k] = true
		}
		fresh.seen = seen
		if fresh.big.UsedKeys() != len(s.slotKeys) {
			return fmt.Errorf("restored used_key=%d, snapshot had %d slots",
				fresh.big.UsedKeys(), len(s.slotKeys))
		}
		// Slot assignment must survive the round trip verbatim: same key,
		// same dense slot.
		for slot, key := range s.slotKeys {
			if got := fresh.big.SlotForKey(key); got != slot {
				return fmt.Errorf("key %d restored to slot %d, was %d", key, got, slot)
			}
		}
	}
	p.afl, p.big = fresh.afl, fresh.big
	p.va, p.vb = fresh.va, fresh.vb
	p.seen = fresh.seen
	// The snapshot survives: a second OpRestore replays it again, like a
	// crash-loop resuming from the same checkpoint twice.
	return nil
}
