package fuzzer

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"github.com/bigmap/bigmap/internal/checkpoint"
	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/target"
)

// fingerprint captures everything a resumed campaign must reproduce exactly:
// progress stats, the full virgin
// maps, the map's slot assignments, the queue's entries and flags, crash
// buckets and both RNG streams.
type fingerprint struct {
	Stats      Stats
	VirginAll  []core.DeltaWord
	VirginHang []core.DeltaWord
	SlotKeys   []uint32
	RNG        [4]uint64
	MutRNG     [4]uint64
	Queue      []entryPrint
	CrashKeys  []uint64
}

type entryPrint struct {
	Input     string
	PathHash  uint64
	Cycles    uint64
	FoundBy   string
	Favored   bool
	WasFuzzed bool
	FuzzLevel int
}

func takeFingerprint(f *Fuzzer) fingerprint {
	fp := fingerprint{
		Stats:      f.Stats(),
		VirginAll:  f.virginAll.Words(),
		VirginHang: f.virginHang.Words(),
		RNG:        f.src.State(),
		MutRNG:     f.mut.Source().State(),
	}
	if bm, ok := f.cov.(*core.BigMap); ok {
		fp.SlotKeys = bm.SlotKeys()
	}
	for _, e := range f.queue.Entries() {
		fp.Queue = append(fp.Queue, entryPrint{
			Input:     string(e.Input),
			PathHash:  e.PathHash,
			Cycles:    e.Cycles,
			FoundBy:   e.FoundBy,
			Favored:   e.Favored,
			WasFuzzed: e.WasFuzzed,
			FuzzLevel: e.FuzzLevel,
		})
	}
	for _, r := range f.crashes.Records() {
		fp.CrashKeys = append(fp.CrashKeys, r.Key)
	}
	return fp
}

func stepN(t *testing.T, f *Fuzzer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResumeMatchesUninterrupted is the kill/resume round trip: a campaign
// checkpointed at step k and resumed through the full encode/decode codec
// must land on the exact same coverage map, virgin bits, queue, crash set and
// stats as the campaign that never stopped — across schemes, schedules,
// cmplog, calibration and fault injection. Every case runs the havoc
// pipeline; with calibration or faults on, the helper records no runs.
func TestResumeMatchesUninterrupted(t *testing.T) {
	configs := map[string]Config{
		"afl-default": {
			Seed: 11, HavocRounds: 32, SpliceRounds: 8,
		},
		"bigmap-fast": {
			Scheme: SchemeBigMap, MapSize: core.MapSize2M, Seed: 12,
			Schedule: ScheduleFast, HavocRounds: 32, SpliceRounds: 8,
		},
		"bigmap-cmplog-det": {
			Scheme: SchemeBigMap, MapSize: core.MapSize2M, Seed: 13,
			EnableCmpLog: true, RunDeterministic: true,
			HavocRounds: 16, SpliceRounds: 4,
		},
		"bigmap-calibrated-faulty": {
			Scheme: SchemeBigMap, MapSize: core.MapSize2M, Seed: 14,
			CalibrationRuns: 4, HavocRounds: 32, SpliceRounds: 8,
			Faults: &target.FaultProfile{
				Seed: 3, FlakyEdgeFraction: 150, DropRate: 300,
				SpuriousCrashRate: 30, SpuriousHangRate: 30, CycleJitterPct: 15,
			},
		},
	}
	const total, cut = 8, 3
	prog := fuzzTarget(t)
	for name, cfg := range configs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			// Uninterrupted reference.
			ref, err := New(prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			seedCorpus(t, ref, prog, 3)
			stepN(t, ref, total)
			want := takeFingerprint(ref)

			// Interrupted: cut steps, full codec round trip, resume.
			a, err := New(prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			seedCorpus(t, a, prog, 3)
			stepN(t, a, cut)
			data := checkpoint.EncodeFuzzer(a.Snapshot())
			st, err := checkpoint.DecodeFuzzer(data)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Resume(prog, cfg, st)
			if err != nil {
				t.Fatal(err)
			}
			// The resumed instance must already match the donor exactly.
			if got := takeFingerprint(b); !reflect.DeepEqual(got, takeFingerprint(a)) {
				t.Fatal("resumed state differs from snapshot donor before fuzzing")
			}
			stepN(t, b, total-cut)
			got := takeFingerprint(b)
			if !slices.Equal(got.VirginAll, want.VirginAll) {
				t.Error("coverage (virgin) map diverged after resume")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("resumed campaign diverged:\n got %+v\nwant %+v", got.Stats, want.Stats)
			}
		})
	}
}

// TestSnapshotSurvivesFuzzingOn pins the sharing Snapshot relies on: the
// snapshot holds the queue's own Input and Touched slices, so fuzzing on,
// trims included, must leave its encoding unchanged.
func TestSnapshotSurvivesFuzzingOn(t *testing.T) {
	prog := fuzzTarget(t)
	f, err := New(prog, Config{
		Scheme: SchemeBigMap, MapSize: core.MapSize2M, Seed: 11,
		HavocRounds: 32, SpliceRounds: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, f, prog, 3)
	stepN(t, f, 2)
	snap := f.Snapshot()
	want := checkpoint.EncodeFuzzer(snap)
	inputs := make([][]byte, len(snap.Entries))
	for i := range snap.Entries {
		inputs[i] = bytes.Clone(snap.Entries[i].Input)
	}
	stepN(t, f, 12)
	// An in-place trim that only cut an input's tail would not show in the
	// snapshot's bytes; require one that removed bytes before the end.
	trimmed := 0
	for i, e := range f.queue.Entries()[:len(inputs)] {
		if len(e.Input) < len(inputs[i]) && !bytes.HasPrefix(inputs[i], e.Input) {
			trimmed++
		}
	}
	if trimmed == 0 {
		t.Fatal("no entry of the snapshot was trimmed before its end afterwards; the test exercises nothing")
	}
	if got := checkpoint.EncodeFuzzer(snap); !bytes.Equal(got, want) {
		t.Fatalf("snapshot encoding changed after fuzzing on (%d entries trimmed since)", trimmed)
	}
}

// TestStabilityCleanTarget: on the deterministic interpreter, calibration
// finds nothing variable and stability stays at exactly 100%.
func TestStabilityCleanTarget(t *testing.T) {
	prog := fuzzTarget(t)
	f, err := New(prog, Config{Seed: 5, CalibrationRuns: 4, HavocRounds: 32, SpliceRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, f, prog, 3)
	stepN(t, f, 6)
	st := f.Stats()
	if st.Stability != 100 || st.VariableEdges != 0 {
		t.Errorf("clean target: stability %.2f%% with %d variable edges, want 100%% / 0",
			st.Stability, st.VariableEdges)
	}
	if st.CalibExecs == 0 {
		t.Error("calibration configured but no calibration execs recorded")
	}
}

// TestStabilityFaultyTarget: flaky edges must surface as variable edges and
// a sub-100% stability figure, and the variable-edge mask must keep flaky
// slots out of has_new_bits (the queue should not fill with re-discoveries
// of the same flickering coverage).
func TestStabilityFaultyTarget(t *testing.T) {
	prog := fuzzTarget(t)
	f, err := New(prog, Config{
		Seed: 5, CalibrationRuns: 4, HavocRounds: 32, SpliceRounds: 4,
		Faults: &target.FaultProfile{Seed: 9, FlakyEdgeFraction: 250, DropRate: 400},
	})
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, f, prog, 3)
	stepN(t, f, 6)
	st := f.Stats()
	if st.VariableEdges == 0 {
		t.Fatal("fault-injected target produced no variable edges")
	}
	if st.Stability >= 100 {
		t.Errorf("stability %.2f%% despite %d variable edges", st.Stability, st.VariableEdges)
	}
	words := f.virginAll.Words()
	for s := range f.varSlots {
		i, ok := slices.BinarySearchFunc(words, s/8, func(w core.DeltaWord, idx uint32) int { return int(w.Index) - int(idx) })
		if !ok || byte(words[i].Word>>(8*(s%8))) != 0 {
			t.Fatalf("variable slot %d not suppressed in virgin map", s)
		}
	}
}

// TestSpuriousVerdictQuarantine: one-off crash/hang verdicts are verified by
// a re-run and quarantined — counted, but neither enqueued nor filed as
// crash buckets at the injected site. (A verdict that fires on the re-run
// too is indistinguishable from a real crash and rightly passes; the rate
// here is low enough that no double fire occurs at this seed.)
func TestSpuriousVerdictQuarantine(t *testing.T) {
	prog := fuzzTarget(t)
	f, err := New(prog, Config{
		Seed: 21, CalibrationRuns: 2, HavocRounds: 64, SpliceRounds: 4,
		Faults: &target.FaultProfile{Seed: 4, SpuriousCrashRate: 12, SpuriousHangRate: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, f, prog, 3)
	stepN(t, f, 6)
	st := f.Stats()
	if st.SpuriousCrashes == 0 && st.SpuriousHangs == 0 {
		t.Fatal("fault profile injected verdicts but none were quarantined")
	}
	for _, r := range f.crashes.Records() {
		if r.Site == target.SpuriousCrashSite {
			t.Error("a spurious crash slipped past verification into the dedup set")
		}
	}
}

// TestBigMapSaturationGraceful: a slot-capped BigMap that runs out of dense
// slots keeps fuzzing — saturation is reported and drops are counted, but
// nothing panics and established coverage still guides the campaign.
func TestBigMapSaturationGraceful(t *testing.T) {
	prog := fuzzTarget(t)
	f, err := New(prog, Config{
		Scheme: SchemeBigMap, MapSize: core.MapSize2M, SlotCap: 48,
		Seed: 3, HavocRounds: 32, SpliceRounds: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, f, prog, 3)
	stepN(t, f, 6)
	st := f.Stats()
	if !st.MapSaturated {
		t.Fatalf("map not saturated at slot cap 48 (used %d)", st.UsedKeys)
	}
	if st.UsedKeys != 48 {
		t.Errorf("used keys %d, want exactly the slot cap", st.UsedKeys)
	}
	if st.DroppedKeys == 0 {
		t.Error("saturated map recorded no dropped keys")
	}
	if st.Execs == 0 || st.Paths == 0 {
		t.Error("campaign made no progress under saturation")
	}
}

// TestResumeRejectsMismatchedConfig: a checkpoint taken under one map
// geometry must not silently load into another.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	prog := fuzzTarget(t)
	f, err := New(prog, Config{Scheme: SchemeBigMap, MapSize: core.MapSize2M, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, f, prog, 2)
	st := f.Snapshot()

	if _, err := Resume(prog, Config{Scheme: SchemeAFL, MapSize: core.MapSize2M}, st); err == nil {
		t.Error("scheme mismatch accepted")
	}
	if _, err := Resume(prog, Config{Scheme: SchemeBigMap, MapSize: core.MapSize8M}, st); err == nil {
		t.Error("map size mismatch accepted")
	}
}

// TestResumeRejectsDuplicateTopSlot: a checkpoint whose top-rated table lists
// a slot twice passes the codec but must not resume, since a later duplicate
// would silently overwrite the first champion.
func TestResumeRejectsDuplicateTopSlot(t *testing.T) {
	prog := fuzzTarget(t)
	cfg := Config{Scheme: SchemeBigMap, MapSize: core.MapSize2M, Seed: 1}
	f, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, f, prog, 2)
	st := f.Snapshot()
	if len(st.TopSlots) == 0 {
		t.Fatal("seeded campaign has an empty top-rated table")
	}
	st.TopSlots = append([]uint32{st.TopSlots[0]}, st.TopSlots...)
	st.TopEntries = append([]uint64{st.TopEntries[0]}, st.TopEntries...)
	decoded, err := checkpoint.DecodeFuzzer(checkpoint.EncodeFuzzer(st))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(prog, cfg, decoded); err == nil {
		t.Error("duplicate top-rated slot accepted")
	}
}
