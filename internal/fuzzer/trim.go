package fuzzer

import (
	"github.com/bigmap/bigmap/internal/corpus"
	"github.com/bigmap/bigmap/internal/target"
)

// maxTrimExecs bounds the executions one trim pass may spend, so
// pathological entries cannot starve the mutation stages.
const maxTrimExecs = 1024

// trim shrinks a queue entry with AFL's trim_case algorithm: repeatedly try
// to delete power-of-two-sized chunks and keep any deletion that leaves the
// execution path (the classified-trace digest) unchanged. Smaller inputs
// mutate better — a change is more likely to hit control data than redundant
// payload (§II-A1) — and they lower the entry's fav factor.
//
// Trim runs never touch the virgin maps: they only need the digest, so they
// go through runForHash.
func (f *Fuzzer) trim(e *corpus.Entry) {
	input := e.Input
	if len(input) < 8 {
		return
	}
	origHash := e.PathHash
	budget := f.execs + maxTrimExecs

	lenP2 := nextPow2(len(input))
	removeLen := max(lenP2/16, 4)
	trimmed := false

	for removeLen >= max(lenP2/1024, 4) && f.execs < budget {
		pos := 0
		for pos < len(input) && f.execs < budget {
			avail := removeLen
			if pos+avail > len(input) {
				avail = len(input) - pos
			}
			candidate := make([]byte, 0, len(input)-avail)
			candidate = append(candidate, input[:pos]...)
			candidate = append(candidate, input[pos+avail:]...)
			if len(candidate) == 0 {
				pos += removeLen
				continue
			}
			res, hash := f.runForHash(candidate)
			if res.Status == target.StatusOK && hash == origHash {
				input = candidate
				trimmed = true
				// Keep pos: the next chunk slid into place.
			} else {
				pos += removeLen
			}
		}
		removeLen >>= 1
	}

	if trimmed {
		e.Input = input
		// Refresh the entry's cost statistics from a final clean run.
		e.Cycles = f.execClassify(input).Cycles
	}
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
