package fuzzer

import (
	"runtime"
	"testing"

	"github.com/bigmap/bigmap/internal/checkpoint"
	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
)

// Size-independence guards: a BigMap instance's state, apart from its index,
// is sized by used_key, so neither the live heap after construction nor the
// checkpoint after a campaign may grow with the map size.

// sqliteTarget generates the sqlite3 profile at scale 0.1.
func sqliteTarget(t *testing.T) *target.Program {
	t.Helper()
	p, ok := target.ProfileByName("sqlite3")
	if !ok {
		t.Fatal("no sqlite3 profile")
	}
	prog, err := target.Generate(p.Spec(0.1))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func newSeeded8M(t *testing.T, prog *target.Program) *Fuzzer {
	t.Helper()
	f, err := New(prog, Config{Scheme: SchemeBigMap, MapSize: core.MapSize8M, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range prog.SampleSeeds(rng.New(1), 16) {
		_ = f.AddSeed(s) // crashing or duplicate seeds are rejected; fine
	}
	if f.Queue().Len() == 0 {
		t.Fatal("no seeds accepted")
	}
	return f
}

// TestBigMapInstanceHeapIsIndexOnly: constructing and seeding an 8M BigMap
// instance leaves at most the index (4 bytes per key) plus 1 MiB live.
func TestBigMapInstanceHeapIsIndexOnly(t *testing.T) {
	prog := sqliteTarget(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := newSeeded8M(t, prog)
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if limit := int64(4*core.MapSize8M + 1<<20); live > limit {
		t.Fatalf("8M BigMap instance holds %d live heap bytes, want <= %d (index + 1 MiB)", live, limit)
	}
	t.Logf("live heap after construction and seeds: %d bytes", live)
	runtime.KeepAlive(f)
}

// TestBigMapCheckpointFollowsCoverage: after 20k execs on sqlite3 @ 0.1 an
// 8M BigMap instance's checkpoint is under 1 MiB; raw virgins were 25 MB.
func TestBigMapCheckpointFollowsCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-exec campaign skipped in -short mode")
	}
	f := newSeeded8M(t, sqliteTarget(t))
	if err := f.RunExecs(20000); err != nil {
		t.Fatal(err)
	}
	n := len(checkpoint.EncodeFuzzer(f.Snapshot()))
	if n >= 1<<20 {
		t.Fatalf("8M BigMap checkpoint is %d bytes after %d used keys, want < 1 MiB", n, f.Map().UsedKeys())
	}
	t.Logf("checkpoint: %d bytes for %d used keys", n, f.Map().UsedKeys())
}
