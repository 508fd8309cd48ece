package corpus

import (
	"bytes"
	"slices"
	"sort"
	"testing"

	"github.com/bigmap/bigmap/internal/rng"
)

func entry(input string, cycles uint64, touched ...uint32) *Entry {
	return &Entry{
		Input:     []byte(input),
		Cycles:    cycles,
		EdgeCount: len(touched),
		Touched:   touched,
	}
}

func TestQueueAddAndLen(t *testing.T) {
	q := NewQueue()
	if q.Len() != 0 {
		t.Fatal("new queue not empty")
	}
	e := entry("aaaa", 10, 1, 2)
	q.Add(e)
	if q.Len() != 1 || q.Get(0) != e {
		t.Fatal("Add/Get broken")
	}
}

func TestCullPicksChampions(t *testing.T) {
	q := NewQueue()
	fast := entry("aa", 1, 1, 2) // fav factor 2
	slow := entry("aaaaaaaa", 100, 1, 2, 3)
	q.Add(slow)
	q.Add(fast)
	q.Cull()

	if !fast.Favored {
		t.Error("fast champion not favored")
	}
	// slow still owns slot 3, so it stays favored too.
	if !slow.Favored {
		t.Error("slow entry owning unique slot 3 not favored")
	}
}

func TestCullDropsDominatedEntries(t *testing.T) {
	q := NewQueue()
	big := entry("aa", 1, 1, 2, 3)
	dominated := entry("bbbb", 50, 2, 3)
	q.Add(big)
	q.Add(dominated)
	q.Cull()
	if !big.Favored {
		t.Error("covering entry not favored")
	}
	if dominated.Favored {
		t.Error("dominated entry favored")
	}
	if got := q.FavoredCount(); got != 1 {
		t.Errorf("FavoredCount = %d, want 1", got)
	}
}

func TestCullIdempotentAndLazy(t *testing.T) {
	q := NewQueue()
	q.Add(entry("aa", 1, 1))
	q.Cull()
	first := q.FavoredCount()
	q.Cull() // no changes since; must be a no-op
	if q.FavoredCount() != first {
		t.Error("repeat cull changed favored set")
	}
}

func TestTopRatedTieBreakOnEdgeCount(t *testing.T) {
	q := NewQueue()
	a := entry("aa", 5, 1)       // factor 10, 1 edge
	b := entry("aa", 5, 1, 2, 3) // factor 10, 3 edges
	q.Add(a)
	q.Add(b)
	q.Cull()
	if !b.Favored {
		t.Error("tie should go to the entry with more coverage")
	}
}

func TestTopRatedFullTieKeepsIncumbent(t *testing.T) {
	q := NewQueue()
	a := entry("aa", 5, 1, 2)
	b := entry("bb", 5, 1, 2) // same fav factor and edge count
	q.Add(a)
	q.Add(b)
	if _, idx := q.TopRated(); !slices.Equal(idx, []int{0, 0}) {
		t.Errorf("champions = %v, want the incumbent [0 0]", idx)
	}
}

func TestPendingFavored(t *testing.T) {
	q := NewQueue()
	a := entry("aa", 1, 1)
	b := entry("bb", 1, 2)
	q.Add(a)
	q.Add(b)
	q.Cull()
	if got := q.PendingFavored(); got != 2 {
		t.Fatalf("PendingFavored = %d, want 2", got)
	}
	a.WasFuzzed = true
	if got := q.PendingFavored(); got != 1 {
		t.Fatalf("PendingFavored = %d, want 1", got)
	}
}

func TestEntriesReturnsCopy(t *testing.T) {
	q := NewQueue()
	q.Add(entry("aa", 1, 1))
	list := q.Entries()
	list[0] = nil
	if q.Get(0) == nil {
		t.Error("Entries exposed internal slice")
	}
}

func TestNewChampionReplacesSlower(t *testing.T) {
	q := NewQueue()
	slow := entry("cccccccc", 100, 7)
	q.Add(slow)
	q.Cull()
	if !slow.Favored {
		t.Fatal("sole entry must be favored")
	}
	fast := entry("c", 1, 7)
	q.Add(fast)
	q.Cull()
	if slow.Favored || !fast.Favored {
		t.Error("faster champion did not take over slot 7")
	}
}

func TestRestoreTopRatedRejectsUnorderedSlots(t *testing.T) {
	q := NewQueue()
	q.AddRestored(entry("aa", 1, 1, 2))
	q.AddRestored(entry("bb", 1, 3))
	for name, slots := range map[string][]uint32{
		"duplicate":  {1, 1, 3},
		"descending": {3, 2, 1},
	} {
		if err := q.RestoreTopRated(slots, []int{0, 0, 1}); err == nil {
			t.Errorf("%s slots %v accepted", name, slots)
		}
	}
	if err := q.RestoreTopRated([]uint32{1, 2, 3}, []int{0, 0, 1}); err != nil {
		t.Fatalf("ascending slots rejected: %v", err)
	}
}

// refQueue is the scalar reference for Queue's top-rated bookkeeping: the
// original map-based table and cull_queue walk (collect the keys, sort them,
// mark coverage in a map). FuzzCullEquivalence pins Queue to it.
type refQueue struct {
	entries  []*Entry
	topRated map[uint32]*Entry
	dirty    bool
}

func newRefQueue() *refQueue { return &refQueue{topRated: make(map[uint32]*Entry)} }

func (q *refQueue) Add(e *Entry) {
	q.entries = append(q.entries, e)
	f := favFactor(e)
	for _, slot := range e.Touched {
		cur, ok := q.topRated[slot]
		if !ok || f < favFactor(cur) || (f == favFactor(cur) && e.EdgeCount > cur.EdgeCount) {
			q.topRated[slot] = e
		}
	}
	q.dirty = true
}

func (q *refQueue) Cull() {
	if !q.dirty {
		return
	}
	q.dirty = false
	for _, e := range q.entries {
		e.Favored = false
	}
	slots := make([]uint32, 0, len(q.topRated))
	for slot := range q.topRated {
		slots = append(slots, slot)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })

	covered := make(map[uint32]bool, len(slots))
	for _, slot := range slots {
		if covered[slot] {
			continue
		}
		champ := q.topRated[slot]
		champ.Favored = true
		for _, s := range champ.Touched {
			covered[s] = true
		}
	}
}

func (q *refQueue) TopRated() (slots []uint32, entryIdx []int) {
	index := make(map[*Entry]int, len(q.entries))
	for i, e := range q.entries {
		index[e] = i
	}
	for slot := range q.topRated {
		slots = append(slots, slot)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	entryIdx = make([]int, len(slots))
	for i, slot := range slots {
		entryIdx[i] = index[q.topRated[slot]]
	}
	return slots, entryIdx
}

func (q *refQueue) RestoreTopRated(slots []uint32, entryIdx []int) {
	q.topRated = make(map[uint32]*Entry, len(slots))
	for i, slot := range slots {
		q.topRated[slot] = q.entries[entryIdx[i]]
	}
	q.dirty = true
}

// randomTouched draws a strictly ascending slot list. The base mixes dense
// low slots (BigMap) with raw indexes across an 8M map (AFL).
func randomTouched(r *rng.Source) []uint32 {
	base := uint32(0)
	if r.Chance(4) {
		base = r.Uint32n(8 << 20)
	}
	span := 1 + r.Uint32n(400)
	var out []uint32
	for s := uint32(0); s < span; s += 1 + r.Uint32n(span/4+1) {
		out = append(out, base+s)
	}
	return out
}

// FuzzCullEquivalence drives Queue and refQueue through the same sequence of
// Add, trim-style fav-factor changes, Cull and checkpoint round trips, and
// requires identical favored sets and top-rated tables throughout.
func FuzzCullEquivalence(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 0, 2, 1, 0, 2, 3, 0, 2})
	f.Add(uint64(7), []byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 1, 1, 0, 0, 2, 3, 2})
	f.Add(uint64(42), []byte{0, 2, 0, 2, 0, 2, 1, 2, 3, 3, 0, 0, 1, 2})
	// Adds and trims, a checkpoint round trip, one more add, then the final
	// check: it fails when AddRestored leaves the restored entries without
	// their bitsets.
	f.Add(uint64(0), []byte("01000011100100111110070"))
	// 37 adds and the final check: it fails when Add leaves an entry
	// without its bitset.
	f.Add(uint64(51), bytes.Repeat([]byte{0}, 37))
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		r := rng.New(seed)
		q, ref := NewQueue(), newRefQueue()
		var mine, theirs []*Entry
		check := func(step int) {
			q.Cull()
			ref.Cull()
			for i := range mine {
				if mine[i].Favored != theirs[i].Favored {
					t.Fatalf("op %d: entry %d favored = %v, reference %v", step, i, mine[i].Favored, theirs[i].Favored)
				}
			}
			gotSlots, gotIdx := q.TopRated()
			wantSlots, wantIdx := ref.TopRated()
			if !slices.Equal(gotSlots, wantSlots) || !slices.Equal(gotIdx, wantIdx) {
				t.Fatalf("op %d: TopRated = %v %v, reference %v %v", step, gotSlots, gotIdx, wantSlots, wantIdx)
			}
		}
		for step, op := range ops {
			switch op % 4 {
			case 0: // a new corpus entry
				touched := randomTouched(r)
				input := make([]byte, 1+r.Intn(32))
				cycles := 1 + uint64(r.Intn(64))
				mine = append(mine, &Entry{Input: input, Cycles: cycles, EdgeCount: len(touched), Touched: touched})
				theirs = append(theirs, &Entry{Input: input, Cycles: cycles, EdgeCount: len(touched), Touched: touched})
				q.Add(mine[len(mine)-1])
				ref.Add(theirs[len(theirs)-1])
			case 1: // trim shrinks an entry's input and cost after Add
				if len(mine) == 0 {
					continue
				}
				i := r.Intn(len(mine))
				n := 1 + r.Intn(len(mine[i].Input))
				cycles := 1 + uint64(r.Intn(int(mine[i].Cycles)))
				mine[i].Input, mine[i].Cycles = mine[i].Input[:n], cycles
				theirs[i].Input, theirs[i].Cycles = theirs[i].Input[:n], cycles
			case 2:
				check(step)
			case 3: // checkpoint and resume
				// Restore fresh copies of the entries, as a decoded
				// checkpoint does, so Cull runs on the bitsets AddRestored
				// builds rather than ones carried over from Add.
				slots, idx := q.TopRated()
				q = NewQueue()
				for i, e := range mine {
					mine[i] = &Entry{
						Input:     slices.Clone(e.Input),
						Cycles:    e.Cycles,
						EdgeCount: e.EdgeCount,
						Touched:   slices.Clone(e.Touched),
						Favored:   e.Favored,
					}
					q.AddRestored(mine[i])
				}
				if err := q.RestoreTopRated(slots, idx); err != nil {
					t.Fatal(err)
				}
				slots, idx = ref.TopRated()
				ref = newRefQueue()
				ref.entries = slices.Clone(theirs)
				ref.RestoreTopRated(slots, idx)
			}
		}
		check(len(ops))
	})
}

// growthQueue builds a deterministic queue shaped like a recorded BigMap 8M
// campaign (sqlite3 at scale 0.25 after 150k execs, the bigmap-growth
// workload): 1,400 entries, about 1,080 of them favored, each touching about
// 2,390 slots in about 50 bitset words. Slots are dense in discovery order.
// Every entry touches most of a shared core (the paths all inputs take), a
// quarter of the words of a common region (code many inputs reach), three
// times in four the slots one earlier entry discovered, and slots of its
// own.
func growthQueue() *Queue {
	const (
		coreSlots   = 2048 // touched with probability 9/10 each
		commonWords = 64   // each word touched with probability 1/4, half its slots
		entries     = 1400
	)
	r := rng.New(1)
	q := NewQueue()
	found := make([][2]uint32, 0, entries) // each entry's own slots, [lo, hi)
	next := uint32(coreSlots + commonWords*64)
	for i := 0; i < entries; i++ {
		var touched []uint32
		for s := uint32(0); s < coreSlots; s++ {
			if r.Uint32n(10) != 0 {
				touched = append(touched, s)
			}
		}
		for w := uint32(0); w < commonWords; w++ {
			if r.Uint32n(4) != 0 {
				continue
			}
			for s := coreSlots + w*64; s < coreSlots+(w+1)*64; s++ {
				if r.Uint32n(2) == 0 {
					touched = append(touched, s)
				}
			}
		}
		if len(found) > 0 && r.Uint32n(4) != 0 {
			b := found[r.Intn(len(found))]
			for s := b[0]; s < b[1]; s++ {
				touched = append(touched, s)
			}
		}
		own := 1 + r.Uint32n(40)
		for s := next; s < next+own; s++ {
			touched = append(touched, s)
		}
		found = append(found, [2]uint32{next, next + own})
		next += own
		q.Add(&Entry{
			Input:     make([]byte, 8+r.Intn(200)),
			Cycles:    100 + uint64(r.Intn(5000)),
			EdgeCount: len(touched),
			Touched:   touched,
		})
	}
	q.Cull()
	return q
}

// favoredShape is the favored entries' mean slot and bitset-word counts.
func favoredShape(q *Queue) (slots, words float64) {
	n := 0
	for _, e := range q.entries {
		if e.Favored {
			n++
			slots += float64(len(e.Touched))
			words += float64(len(e.coverWords))
		}
	}
	return slots / float64(n), words / float64(n)
}

func TestCullDoesNotAllocate(t *testing.T) {
	q := growthQueue()
	if allocs := testing.AllocsPerRun(20, func() {
		q.dirty = true
		q.Cull()
	}); allocs != 0 {
		t.Errorf("steady-state Cull allocates %v times, want 0", allocs)
	}
}

// BenchmarkQueueCull times one dirty Cull of a growth-shaped queue.
func BenchmarkQueueCull(b *testing.B) {
	q := growthQueue()
	slots, words := favoredShape(q)
	b.Logf("%d entries, %d slots, %d favored touching %.0f slots in %.1f words each",
		q.Len(), len(q.slots), q.FavoredCount(), slots, words)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.dirty = true
		q.Cull()
	}
}
