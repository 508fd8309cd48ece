// Package collafl implements the CollAFL-style static edge-ID assignment
// the paper compares against in its related work (§VI): instead of hashing
// block IDs at runtime, a link-time analysis walks the CFG and gives every
// statically known edge a unique coverage key, eliminating collisions
// outright.
//
// The paper's two criticisms are both reproducible here:
//
//  1. CollAFL must size the bitmap to fit ALL statically assigned IDs, even
//     though only a fraction of static edges is ever visited (Table II), so
//     a flat bitmap inflates exactly like a naively enlarged AFL map; and
//  2. the technique is tied to edge coverage — it cannot key N-gram or
//     context-sensitive metrics, which have no static enumeration.
//
// It also reproduces the paper's suggested synthesis: a CollAFL assignment
// used as the Metric with a BigMap as the Map combines zero collisions with
// used-region-only map operations ("It can also be used in combination with
// CollAFL", §VI). The bench harness's collafl experiment measures all of
// this.
//
// Real CollAFL must approximate indirect branch targets; our synthetic IR
// has fully static control flow, so the assignment here is exact — noted in
// DESIGN.md as a fidelity caveat in CollAFL's favour.
package collafl

import (
	"errors"

	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/target"
)

// ErrTooManyEdges is returned when a program has more static edges than the
// 32-bit key space can index (cannot happen for realistic programs).
var ErrTooManyEdges = errors.New("collafl: static edge count exceeds key space")

// pairKey packs a (from block ID, to block ID) runtime transition.
func pairKey(from, to uint32) uint64 {
	return uint64(from)<<32 | uint64(to)
}

// entrySentinel is the "previous block" of the very first block executed,
// mirroring AFL's prev_loc = 0 start state.
const entrySentinel = 0

// Assignment is a static, collision-free edge-ID table for one program.
type Assignment struct {
	table   map[uint64]uint32
	edges   int
	mapSize int
}

// Assign statically enumerates every possible runtime block transition of
// prog — intra-procedural edges, call edges, return edges, self-loop back
// edges and the program entry — and assigns each a unique coverage key.
// The required map size is the edge count rounded up to a power of two,
// exactly how CollAFL "expands the bitmap to fit all the statically
// assigned IDs".
func Assign(prog *target.Program) (*Assignment, error) {
	a := &Assignment{table: make(map[uint64]uint32)}

	add := func(from, to uint32) {
		key := pairKey(from, to)
		if _, dup := a.table[key]; dup {
			return // two block-ID pairs collided; keep the first assignment
		}
		a.table[key] = uint32(len(a.table))
	}

	// Program entry edge.
	if len(prog.Funcs) > 0 && len(prog.Funcs[0].Blocks) > 0 {
		add(entrySentinel, prog.Funcs[0].Blocks[0].ID)
	}

	// returnBlocks caches each function's Return-terminator block IDs for
	// return-edge enumeration.
	returnBlocks := make([][]uint32, len(prog.Funcs))
	for fi := range prog.Funcs {
		for bi := range prog.Funcs[fi].Blocks {
			if prog.Funcs[fi].Blocks[bi].Node.Kind == target.KindReturn {
				returnBlocks[fi] = append(returnBlocks[fi], prog.Funcs[fi].Blocks[bi].ID)
			}
		}
	}

	for fi := range prog.Funcs {
		blocks := prog.Funcs[fi].Blocks
		idOf := func(bi int) uint32 { return blocks[bi].ID }
		for bi := range blocks {
			from := blocks[bi].ID
			nd := &blocks[bi].Node
			switch nd.Kind {
			case target.KindJump:
				add(from, idOf(nd.A))
			case target.KindCompareByte, target.KindCompareWord:
				add(from, idOf(nd.A))
				add(from, idOf(nd.B))
			case target.KindSwitch:
				add(from, idOf(nd.B))
				for _, c := range nd.Cases {
					add(from, idOf(c.Target))
				}
			case target.KindSelfLoop:
				add(from, from) // the tight back edge
				add(from, idOf(nd.A))
			case target.KindCall:
				callee := prog.Funcs[nd.A]
				if len(callee.Blocks) > 0 {
					add(from, callee.Blocks[0].ID)
				}
				// Return edges: every Return block of the callee can
				// transfer to this call's continuation.
				for _, r := range returnBlocks[nd.A] {
					add(r, idOf(nd.B))
				}
			case target.KindCrash, target.KindHang, target.KindReturn:
				// No outgoing transitions (returns are handled above).
			}
		}
	}

	a.edges = len(a.table)
	if a.edges > 1<<31 {
		return nil, ErrTooManyEdges
	}
	a.mapSize = 1
	for a.mapSize < a.edges {
		a.mapSize <<= 1
	}
	if a.mapSize < 8 {
		a.mapSize = 8
	}
	return a, nil
}

// Edges returns the number of statically assigned edge IDs.
func (a *Assignment) Edges() int { return a.edges }

// MapSize returns the coverage-map size CollAFL requires: the smallest power
// of two holding every assigned ID.
func (a *Assignment) MapSize() int { return a.mapSize }

// NewMetric creates a runtime metric resolving transitions through the
// static table. Transitions outside the table (possible only if two block-ID
// pairs aliased during assignment) fall back to AFL's hash, masked into the
// same map — CollAFL's hash-table fallback path.
func (a *Assignment) NewMetric() *Metric {
	return &Metric{
		assign: a,
		mask:   uint32(a.mapSize - 1),
	}
}

// Metric is the CollAFL coverage metric. Not safe for concurrent use.
type Metric struct {
	assign *Assignment
	mask   uint32
	prev   uint32
	has    bool
	misses uint64
}

var _ core.Metric = (*Metric)(nil)

// Name returns "collafl".
func (m *Metric) Name() string { return "collafl" }

// Begin resets the transition state.
func (m *Metric) Begin() {
	m.prev = entrySentinel
	m.has = false
}

// Visit resolves the (previous, current) transition to its static ID.
func (m *Metric) Visit(block uint32) uint32 {
	key := pairKey(m.prev, block)
	if !m.has {
		key = pairKey(entrySentinel, block)
		m.has = true
	}
	m.prev = block
	if id, ok := m.assign.table[key]; ok {
		return id
	}
	m.misses++
	return ((m.prev >> 1) ^ block) & m.mask
}

// EnterCall is a no-op: call transitions are plain block transitions here.
func (m *Metric) EnterCall(uint32) {}

// LeaveCall is a no-op.
func (m *Metric) LeaveCall() {}

// CallBlind reports true: keys depend only on block transitions.
func (m *Metric) CallBlind() bool { return true }

// Misses reports how many runtime transitions missed the static table
// (zero for well-formed programs; the fallback hash handled them).
func (m *Metric) Misses() uint64 { return m.misses }
