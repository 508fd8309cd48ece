// Package cmin minimizes corpora, the role afl-cmin plays in an AFL
// workflow: reduce a corpus to a small subset that preserves its full edge
// coverage. Smaller corpora make queue cycles faster and cross-instance
// syncing cheaper.
//
// The reduction is the classic greedy set-cover approximation over the
// bias-free exact edge coverage (package covreport): repeatedly keep the
// input covering the most not-yet-covered edges, preferring smaller inputs
// on ties.
package cmin

import (
	"sort"

	"github.com/bigmap/bigmap/internal/covreport"
	"github.com/bigmap/bigmap/internal/target"
)

// Result describes a minimization.
type Result struct {
	// Kept are indices into the original corpus, in selection order.
	Kept []int
	// EdgesBefore and EdgesAfter are the exact edge counts of the full
	// corpus and the kept subset (equal by construction, modulo inputs
	// that crash or hang during replay, whose coverage is still counted).
	EdgesBefore int
	EdgesAfter  int
}

// traceSet is one input's exact edge set.
type traceSet struct {
	idx   int
	edges map[covreport.Edge]uint64
}

// Minimize selects a coverage-preserving subset of corpus for prog. budget
// is the per-execution cycle budget (0 = default).
func Minimize(prog *target.Program, corpus [][]byte, budget uint64) Result {
	if budget == 0 {
		budget = 1 << 22
	}
	interp := target.NewInterp(prog)

	// Collect each input's exact edge set.
	sets := make([]traceSet, 0, len(corpus))
	union := make(map[covreport.Edge]struct{})
	for i, input := range corpus {
		tr := covreport.EdgeTracer{Edges: make(map[covreport.Edge]uint64)}
		interp.Run(input, &tr, budget)
		sets = append(sets, traceSet{idx: i, edges: tr.Edges})
		for e := range tr.Edges {
			union[e] = struct{}{}
		}
	}

	res := Result{EdgesBefore: len(union)}

	// Greedy set cover: stable processing order (by input size, then
	// index) keeps the result deterministic.
	order := make([]int, len(sets))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := len(corpus[order[a]]), len(corpus[order[b]])
		if la != lb {
			return la < lb
		}
		return order[a] < order[b]
	})

	covered := make(map[covreport.Edge]struct{}, len(union))
	for len(covered) < len(union) {
		best, bestGain := -1, 0
		for _, si := range order {
			gain := 0
			for e := range sets[si].edges {
				if _, ok := covered[e]; !ok {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = si, gain
			}
		}
		if best < 0 {
			break // remaining edges unreachable (should not happen)
		}
		res.Kept = append(res.Kept, sets[best].idx)
		for e := range sets[best].edges {
			covered[e] = struct{}{}
		}
	}
	res.EdgesAfter = len(covered)
	return res
}
