// Package covreport implements the paper's bias-free coverage methodology
// (§V-A3): "we collected the output corpus of the fuzzers and subjected them
// to a bias-free independent coverage build". A fuzzer's own edge counts are
// confounded by its map size (collisions merge edges; bucketing hides
// counts), so cross-configuration coverage comparisons must re-measure the
// corpus with exact, collision-free edge identities.
//
// The coverage build here replays inputs through the target interpreter and
// records exact (previous block, current block) pairs — no hashing, no map,
// no buckets — exactly what a SanitizerCoverage build provides for real
// binaries.
package covreport

import (
	"sort"

	"github.com/bigmap/bigmap/internal/target"
)

// Edge is an exact control-flow transition between two block IDs.
type Edge struct {
	From uint32
	To   uint32
}

// Report accumulates exact coverage over a corpus. The zero value is not
// usable; construct with New.
type Report struct {
	interp *target.Interp
	budget uint64
	edges  map[Edge]uint64 // edge -> times traversed across the corpus
	blocks map[uint32]bool
	inputs int
	crash  int
	hang   int
}

// New creates a coverage report builder for prog. budget is the
// per-execution cycle budget (0 = executor default semantics: 1<<22).
func New(prog *target.Program, budget uint64) *Report {
	if budget == 0 {
		budget = 1 << 22
	}
	return &Report{
		interp: target.NewInterp(prog),
		budget: budget,
		edges:  make(map[Edge]uint64),
		blocks: make(map[uint32]bool),
	}
}

// EdgeTracer is the exact-edge target.Tracer: it counts each (previous
// block, current block) transition of one execution in Edges and, when
// Blocks is non-nil, marks each visited block there. Use a fresh value per
// execution; the first visit of a run starts no edge.
type EdgeTracer struct {
	Edges  map[Edge]uint64
	Blocks map[uint32]bool
	prev   uint32
	has    bool
}

var _ target.Tracer = (*EdgeTracer)(nil)

// VisitBatch records the transitions into and within blocks.
func (t *EdgeTracer) VisitBatch(blocks []uint32) {
	for _, b := range blocks {
		if t.Blocks != nil {
			t.Blocks[b] = true
		}
		if t.has {
			t.Edges[Edge{From: t.prev, To: b}]++
		}
		t.prev, t.has = b, true
	}
}

// EnterCall ignores the event: call transitions are block transitions.
func (t *EdgeTracer) EnterCall(uint32) {}

// LeaveCall ignores the event.
func (t *EdgeTracer) LeaveCall() {}

// CallBlind reports true.
func (t *EdgeTracer) CallBlind() bool { return true }

// Add replays one input and folds its exact coverage into the report,
// returning the execution result.
func (r *Report) Add(input []byte) target.Result {
	tr := EdgeTracer{Edges: r.edges, Blocks: r.blocks}
	res := r.interp.Run(input, &tr, r.budget)
	r.inputs++
	switch res.Status {
	case target.StatusCrash:
		r.crash++
	case target.StatusHang:
		r.hang++
	}
	return res
}

// AddCorpus replays a whole corpus.
func (r *Report) AddCorpus(corpus [][]byte) {
	for _, in := range corpus {
		r.Add(in)
	}
}

// Edges returns the number of distinct exact edges covered.
func (r *Report) Edges() int { return len(r.edges) }

// Blocks returns the number of distinct basic blocks covered.
func (r *Report) Blocks() int { return len(r.blocks) }

// Inputs returns how many inputs were replayed (and how many crashed or
// hung).
func (r *Report) Inputs() (total, crashes, hangs int) {
	return r.inputs, r.crash, r.hang
}

// EdgeList returns the covered edges sorted by (From, To) with their
// traversal counts, for reporting and tests.
func (r *Report) EdgeList() []EdgeCount {
	out := make([]EdgeCount, 0, len(r.edges))
	for e, n := range r.edges {
		out = append(out, EdgeCount{Edge: e, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// EdgeCount pairs an exact edge with its corpus-wide traversal count.
type EdgeCount struct {
	Edge
	Count uint64
}

// Diff reports edges covered by r but not by other — which configuration
// reached what the other missed.
func (r *Report) Diff(other *Report) []Edge {
	var missing []Edge
	for e := range r.edges {
		if _, ok := other.edges[e]; !ok {
			missing = append(missing, e)
		}
	}
	sort.Slice(missing, func(i, j int) bool {
		if missing[i].From != missing[j].From {
			return missing[i].From < missing[j].From
		}
		return missing[i].To < missing[j].To
	})
	return missing
}
