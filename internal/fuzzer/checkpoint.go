package fuzzer

import (
	"fmt"
	"sort"

	"github.com/bigmap/bigmap/internal/checkpoint"
	"github.com/bigmap/bigmap/internal/core"
	"github.com/bigmap/bigmap/internal/corpus"
	"github.com/bigmap/bigmap/internal/crash"
	"github.com/bigmap/bigmap/internal/target"
)

// Snapshot captures the instance's complete campaign state as a checkpoint
// struct. Call it only between Steps (never mid-round): at a step boundary
// the coverage map's hit counters are scratch, the mutator has no pending
// reward attribution, and the snapshot is a consistent cut — a fuzzer
// resumed from it replays the exact execution stream the original would
// have produced (see TestResumeMatchesUninterrupted). The snapshot's entries
// share their Input and Touched slices with the live queue; callers must not
// modify them.
func (f *Fuzzer) Snapshot() *checkpoint.FuzzerState {
	st := &checkpoint.FuzzerState{
		Scheme:          string(f.cfg.Scheme),
		MapSize:         uint64(f.cfg.MapSize),
		RNG:             f.src.State(),
		MutRNG:          f.mut.Source().State(),
		Execs:           f.execs,
		CyclesDone:      uint64(f.cyclesDone),
		QueuePos:        uint64(f.queuePos),
		TotalCrashes:    f.totalCrashes,
		TotalHangs:      f.totalHangs,
		AFLUniqueCrash:  uint64(f.aflUniqueCrash),
		SumCycles:       f.sumCycles,
		SumEdges:        f.sumEdges,
		RejectedSeeds:   uint64(f.rejectedSeeds),
		CalibExecs:      f.calibExecs,
		SpuriousCrashes: f.spuriousCrashes,
		SpuriousHangs:   f.spuriousHangs,
		VirginAll:       sparseVirgin(f.virginAll),
		VirginCrash:     sparseVirgin(f.virginCrash),
		VirginHang:      sparseVirgin(f.virginHang),
	}
	if fa, ok := f.exec.Runner().(*target.Faulty); ok {
		st.FaultExecs = fa.ExecCount()
	}
	if bm, ok := f.cov.(*core.BigMap); ok {
		st.SlotKeys = bm.SlotKeys()
		st.DroppedKeys = bm.DroppedKeys()
	}
	if len(f.varSlots) > 0 {
		st.VarSlots = make([]uint32, 0, len(f.varSlots))
		//bigmap:nondeterministic-ok iteration feeds a sort.Slice below; serialized order is deterministic
		for s := range f.varSlots {
			st.VarSlots = append(st.VarSlots, s)
		}
		sort.Slice(st.VarSlots, func(i, j int) bool { return st.VarSlots[i] < st.VarSlots[j] })
	}
	topSlots, topIdx := f.queue.TopRated()
	st.TopSlots = topSlots
	st.TopEntries = make([]uint64, len(topIdx))
	for i, idx := range topIdx {
		st.TopEntries[i] = uint64(idx)
	}
	// Entries share Input and Touched with the queue instead of copying
	// them: both are immutable once added (trim replaces Input rather than
	// editing it, and Resume copies what it restores).
	entries := f.queue.Entries()
	st.Entries = make([]checkpoint.Entry, len(entries))
	for i, e := range entries {
		st.Entries[i] = checkpoint.Entry{
			Input:      e.Input,
			Cycles:     e.Cycles,
			Touched:    e.Touched,
			PathHash:   e.PathHash,
			Depth:      e.Depth,
			FoundBy:    e.FoundBy,
			Favored:    e.Favored,
			WasFuzzed:  e.WasFuzzed,
			WasTrimmed: e.WasTrimmed,
			FuzzLevel:  e.FuzzLevel,
		}
	}
	recs := f.crashes.Records() // sorted by key: deterministic layout
	st.Crashes = make([]checkpoint.CrashRecord, len(recs))
	for i, r := range recs {
		st.Crashes[i] = checkpoint.CrashRecord{
			Key:        r.Key,
			Site:       r.Site,
			StackDepth: r.StackDepth,
			Count:      r.Count,
			Input:      append([]byte(nil), r.Input...),
		}
	}
	if f.paths != nil {
		st.Paths = make([]checkpoint.PathFreq, 0, len(f.paths.freq))
		//bigmap:nondeterministic-ok iteration feeds a sort.Slice below; serialized order is deterministic
		for h, n := range f.paths.freq {
			st.Paths = append(st.Paths, checkpoint.PathFreq{Hash: h, Count: n})
		}
		sort.Slice(st.Paths, func(i, j int) bool { return st.Paths[i].Hash < st.Paths[j].Hash })
	}
	return st
}

// Resume reconstructs a fuzzing instance from a checkpoint. prog and cfg
// must be the campaign's originals (the checkpoint stores no program and
// only the scheme/size part of the config; a scheme or size mismatch is
// rejected, everything else is trusted). The restored instance reproduces
// the uninterrupted campaign exactly: map slot assignments, virgin bits,
// queue (including favored/fuzzed flags), crash buckets, path frequencies,
// RNG streams and — for fault-injected targets — the fault decision index
// all pick up where the snapshot left off.
func Resume(prog *target.Program, cfg Config, st *checkpoint.FuzzerState) (*Fuzzer, error) {
	f, err := New(prog, cfg)
	if err != nil {
		return nil, err
	}
	if string(f.cfg.Scheme) != st.Scheme {
		return nil, fmt.Errorf("fuzzer: resume scheme mismatch: config %q, checkpoint %q",
			f.cfg.Scheme, st.Scheme)
	}
	if uint64(f.cfg.MapSize) != st.MapSize {
		return nil, fmt.Errorf("fuzzer: resume map size mismatch: config %d, checkpoint %d",
			f.cfg.MapSize, st.MapSize)
	}

	if bm, ok := f.cov.(*core.BigMap); ok {
		if err := bm.RestoreAssignments(st.SlotKeys, st.DroppedKeys); err != nil {
			return nil, fmt.Errorf("fuzzer: resume: %w", err)
		}
	} else if len(st.SlotKeys) > 0 {
		return nil, fmt.Errorf("fuzzer: checkpoint carries %d slot assignments for a flat map",
			len(st.SlotKeys))
	}
	if err := restoreVirgin(f.virginAll, st.VirginAll); err != nil {
		return nil, fmt.Errorf("fuzzer: resume virgin map: %w", err)
	}
	if err := restoreVirgin(f.virginCrash, st.VirginCrash); err != nil {
		return nil, fmt.Errorf("fuzzer: resume crash virgin map: %w", err)
	}
	if err := restoreVirgin(f.virginHang, st.VirginHang); err != nil {
		return nil, fmt.Errorf("fuzzer: resume hang virgin map: %w", err)
	}
	for _, s := range st.VarSlots {
		f.varSlots[s] = true
	}

	// Rebuild the queue in insertion order, then install the checkpointed
	// top-rated table verbatim. The table is not recomputed from the entries
	// because it depends on the original campaign's Add/trim interleaving
	// (trim changes an entry's fav factor after it was added); replaying Add
	// against final entry state could crown different champions and diverge.
	for i := range st.Entries {
		ce := &st.Entries[i]
		e := &corpus.Entry{
			Input:      append([]byte(nil), ce.Input...),
			Cycles:     ce.Cycles,
			EdgeCount:  len(ce.Touched),
			Touched:    append([]uint32(nil), ce.Touched...),
			PathHash:   ce.PathHash,
			Depth:      ce.Depth,
			FoundBy:    ce.FoundBy,
			Favored:    ce.Favored,
			WasFuzzed:  ce.WasFuzzed,
			WasTrimmed: ce.WasTrimmed,
			FuzzLevel:  ce.FuzzLevel,
		}
		f.queue.AddRestored(e)
	}
	if len(st.TopEntries) != len(st.TopSlots) {
		return nil, fmt.Errorf("fuzzer: checkpoint top-rated table is malformed (%d slots, %d entries)",
			len(st.TopSlots), len(st.TopEntries))
	}
	topIdx := make([]int, len(st.TopEntries))
	for i, v := range st.TopEntries {
		topIdx[i] = int(v)
	}
	if err := f.queue.RestoreTopRated(st.TopSlots, topIdx); err != nil {
		return nil, fmt.Errorf("fuzzer: resume: %w", err)
	}

	if len(st.Crashes) > 0 {
		recs := make([]crash.Record, len(st.Crashes))
		for i, c := range st.Crashes {
			recs[i] = crash.Record{
				Key:        c.Key,
				Site:       c.Site,
				StackDepth: c.StackDepth,
				Count:      c.Count,
				Input:      c.Input,
			}
		}
		f.crashes.Restore(recs)
	}
	if f.paths != nil {
		for _, p := range st.Paths {
			f.paths.freq[p.Hash] = p.Count
			f.paths.total += p.Count
		}
	}
	if fa, ok := f.exec.Runner().(*target.Faulty); ok {
		fa.SetExecCount(st.FaultExecs)
	}

	f.src.SetState(st.RNG)
	f.mut.Source().SetState(st.MutRNG)
	f.execs = st.Execs
	f.cyclesDone = int(st.CyclesDone)
	f.queuePos = int(st.QueuePos)
	f.totalCrashes = st.TotalCrashes
	f.totalHangs = st.TotalHangs
	f.aflUniqueCrash = int(st.AFLUniqueCrash)
	f.sumCycles = st.SumCycles
	f.sumEdges = st.SumEdges
	f.rejectedSeeds = int(st.RejectedSeeds)
	f.calibExecs = st.CalibExecs
	f.spuriousCrashes = st.SpuriousCrashes
	f.spuriousHangs = st.SpuriousHangs
	return f, nil
}

// sparseVirgin renders a virgin map in the checkpoint's sparse form, whose
// size follows the coverage found rather than the map size.
func sparseVirgin(v *core.Virgin) checkpoint.Virgin {
	words := v.Words()
	out := checkpoint.Virgin{Len: uint64(v.Len())}
	if len(words) > 0 {
		out.Words = make([]checkpoint.VirginWord, len(words))
	}
	for i, w := range words {
		out.Words[i] = checkpoint.VirginWord{Index: w.Index, Word: w.Word}
	}
	return out
}

// restoreVirgin loads a checkpointed sparse virgin into v, which must have
// the logical length the checkpoint was taken with.
func restoreVirgin(v *core.Virgin, st checkpoint.Virgin) error {
	if st.Len != uint64(v.Len()) {
		return fmt.Errorf("virgin snapshot is %d slots, map has %d", st.Len, v.Len())
	}
	words := make([]core.DeltaWord, len(st.Words))
	for i, w := range st.Words {
		words[i] = core.DeltaWord{Index: w.Index, Word: w.Word}
	}
	return v.SetWords(words)
}
