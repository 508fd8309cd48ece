package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// minPairs is the fewest alternating parent/candidate pairs a comparison
// accepts.
const minPairs = 10

// spec is the part of BENCHMARK.json that compare applies.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareCmd compares the untraced results of a parent commit (first
// directory) against a candidate (second directory), workload by workload
// and metric by metric, with the bounds of a BENCHMARK.json.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 3 {
		fmt.Fprintln(stderr, "usage: bigmap-benchmark compare BENCHMARK.json PARENT_DIR CANDIDATE_DIR")
		return 2
	}
	var sp spec
	data, err := os.ReadFile(args[0])
	if err == nil {
		err = json.Unmarshal(data, &sp)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bigmap-benchmark: spec:", err)
		return 2
	}
	parent, err1 := loadResults(args[1])
	candidate, err2 := loadResults(args[2])
	if err := errors.Join(err1, err2); err != nil {
		fmt.Fprintln(stderr, "bigmap-benchmark: refusing to compare:", err)
		return 2
	}
	if err := sameMachine(append(append([]*result(nil), parent...), candidate...)); err != nil {
		fmt.Fprintln(stderr, "bigmap-benchmark: refusing to compare:", err)
		return 2
	}
	code := 0
	for _, w := range workloadNames() {
		a, b := byWorkload(parent, w), byWorkload(candidate, w)
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		code = max(code, compareWorkload(stdout, w, a, b, sp))
	}
	return code
}

// compareWorkload prints the verdicts of one workload's paired runs and
// returns 1 if the candidate regressed. More failed operations than the
// parent is a regression of its own, and voids any gain.
func compareWorkload(out io.Writer, w string, a, b []*result, sp spec) int {
	if err := alternating(a, b); err != nil {
		fmt.Fprintf(out, "%-18s %v\n", w, err)
		return 1
	}
	code := 0
	fa, fb := failureRate(a), failureRate(b)
	moreFailures := fb > fa
	v := unchanged
	if moreFailures {
		v, code = regressed, 1
	}
	fmt.Fprintf(out, "%-18s %-16s parent %-12.6g candidate %-12.6g %s  %s\n", w, "failed/attempted", fa, fb, "share", v)
	for _, m := range sp.EndToEnd {
		va, vb := values(a, m.Name), values(b, m.Name)
		v := verdict(va, vb, m.Better, m.Bound)
		switch {
		case v == regressed:
			code = 1
		case v == improved && moreFailures:
			v = voided
		}
		fmt.Fprintf(out, "%-18s %-16s parent %-12.6g candidate %-12.6g %s  %s\n",
			w, m.Name, median(va), median(vb), m.Unit, v)
	}
	return code
}

// failureRate is the failed share of all operations the runs attempted.
func failureRate(rs []*result) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// Verdicts of one metric on one workload.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	tooFew     = "too few pairs"
	voided     = "gain void: more operations failed"
)

// verdict applies the comparison rule to paired samples a (parent) and b
// (candidate), pair i being a[i] and b[i]. A gain needs the candidate to win
// nine tenths of the pairs and the medians to differ by more than the
// parent's interquartile range; a regression is a median worse than the
// parent's by more than bound (a share of the parent's median). When the
// parent's own spread exceeds the bound nothing but a clean sweep, every
// candidate run better than every parent run, is resolved.
func verdict(a, b []float64, better string, bound float64) string {
	n := min(len(a), len(b))
	if n < minPairs {
		return tooFew
	}
	a, b = a[:n], b[:n]
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	wins := 0
	for i := range a {
		if sign*(b[i]-a[i]) > 0 {
			wins++
		}
	}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	if spread(a) > bound {
		worstB, bestA := b[0], a[0]
		for i := range a {
			if sign*(b[i]-worstB) < 0 {
				worstB = b[i]
			}
			if sign*(a[i]-bestA) > 0 {
				bestA = a[i]
			}
		}
		if sign*(worstB-bestA) > 0 {
			return improved
		}
		return unresolved
	}
	gain := sign * (mb - ma)
	switch {
	case gain > 0 && gain > q3-q1 && float64(wins) >= 0.9*float64(n):
		return improved
	case -gain > bound*ma:
		return regressed
	}
	return unchanged
}

// loadResults reads the untraced result files of a directory. A result whose
// output checks failed measured a broken program, so none is compared.
func loadResults(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []*result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: output checks failed: %v", p, r.Problems)
		}
		if !r.Trace {
			out = append(out, &r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced results", dir)
	}
	return out, nil
}

// sameMachine refuses results measured on different machines or toolchains.
func sameMachine(rs []*result) error {
	for _, r := range rs[1:] {
		if r.Machine != rs[0].Machine {
			return fmt.Errorf("%s ran on %+v, %s on %+v", rs[0].ID, rs[0].Machine, r.ID, r.Machine)
		}
	}
	return nil
}

// byWorkload returns one workload's results in start order.
func byWorkload(rs []*result, w string) []*result {
	var out []*result
	for _, r := range rs {
		if r.Workload == w {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// alternating checks that parent and candidate runs were made in pairs, one
// of each side back to back, with the same seed.
func alternating(a, b []*result) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d parent runs but %d candidate runs", len(a), len(b))
	}
	all := append(append([]*result(nil), a...), b...)
	sort.Slice(all, func(i, j int) bool { return all[i].Start.Before(all[j].Start) })
	side := map[*result]string{}
	for _, r := range a {
		side[r] = "parent"
	}
	for _, r := range b {
		side[r] = "candidate"
	}
	bad, first := 0, ""
	for i := 0; i+1 < len(all); i += 2 {
		x, y := all[i], all[i+1]
		if side[x] == side[y] || x.Seed != y.Seed {
			if bad == 0 {
				first = x.ID + " and " + y.ID
			}
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d pairs are not a parent and a candidate run of one seed back to back (first: %s)", bad, len(a), first)
	}
	return nil
}

// values collects one metric over results.
func values(rs []*result, name string) []float64 {
	var v []float64
	for _, r := range rs {
		v = append(v, r.Metrics[name].Value)
	}
	return v
}
