// Package crash deduplicates crashes. The paper (§V-A3) avoids AFL's
// coverage-based crash dedup for its evaluation because the global
// crash-coverage bitmap makes it "inherently biased towards larger maps",
// and uses Crashwalk instead: a crash is unique if the hash of its call
// stack and faulting address is new. This package implements that bucketing
// over the synthetic target's crash reports, plus a counter-style record for
// triage output.
package crash

import "sort"

// KeyOf buckets a crash by faulting site and call stack, Crashwalk style.
// The hash is order-sensitive: the same site reached through different call
// chains is a different bucket.
func KeyOf(site uint32, stack []uint32) uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint32) {
		h ^= uint64(v)
		h *= 0x100000001b3
	}
	for _, s := range stack {
		mix(s)
	}
	mix(0xdead) // separator so (stack..., site) cannot alias (stack, site...)
	mix(site)
	return h
}

// Record describes one unique crash bucket.
type Record struct {
	// Key is the dedup hash.
	Key uint64 `json:"key"`
	// Site is the faulting block ID.
	Site uint32 `json:"site"`
	// StackDepth is the call-stack depth at the crash.
	StackDepth int `json:"stack_depth"`
	// Count is how many crashing executions fell into this bucket.
	Count int `json:"count"`
	// Input is the first input that produced the bucket.
	Input []byte `json:"input"`
}

// Deduper accumulates crash observations. Not safe for concurrent use.
type Deduper struct {
	seen map[uint64]*Record
}

// NewDeduper creates an empty deduper.
func NewDeduper() *Deduper {
	return &Deduper{seen: make(map[uint64]*Record)}
}

// Observe records a crash and reports whether its bucket is new. The input
// is copied only for new buckets.
func (d *Deduper) Observe(site uint32, stack []uint32, input []byte) bool {
	key := KeyOf(site, stack)
	if rec, ok := d.seen[key]; ok {
		rec.Count++
		return false
	}
	in := make([]byte, len(input)) //bigmap:alloc-ok crash path: input is copied once per new crash bucket, never on clean runs
	copy(in, input)
	d.seen[key] = &Record{ //bigmap:alloc-ok crash path: one record per new crash bucket, never on clean runs
		Key:        key,
		Site:       site,
		StackDepth: len(stack),
		Count:      1,
		Input:      in,
	}
	return true
}

// Unique returns the number of distinct crash buckets.
func (d *Deduper) Unique() int { return len(d.seen) }

// Total returns the total number of crashing executions observed.
func (d *Deduper) Total() int {
	n := 0
	for _, rec := range d.seen {
		n += rec.Count
	}
	return n
}

// Records returns the buckets sorted by key for deterministic reporting.
func (d *Deduper) Records() []*Record {
	out := make([]*Record, 0, len(d.seen))
	for _, rec := range d.seen {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Restore reloads buckets from a checkpoint into an empty-or-not deduper.
// Existing buckets with the same key are replaced; records and their inputs
// are copied, so the caller may reuse the slice.
func (d *Deduper) Restore(recs []Record) {
	for i := range recs {
		cp := recs[i]
		cp.Input = append([]byte(nil), recs[i].Input...)
		d.seen[cp.Key] = &cp
	}
}

// Merge folds another deduper's buckets into this one (used when
// aggregating parallel instances). Returns the number of buckets that were
// new to the receiver.
func (d *Deduper) Merge(other *Deduper) int {
	added := 0
	for key, rec := range other.seen {
		if mine, ok := d.seen[key]; ok {
			mine.Count += rec.Count
			continue
		}
		cp := *rec
		d.seen[key] = &cp
		added++
	}
	return added
}
