package fuzzer

// Stats is a snapshot of a fuzzing instance's progress.
type Stats struct {
	// Execs counts generated-and-executed test cases.
	Execs uint64
	// CyclesDone counts completed passes over the whole queue (AFL's
	// cycles_done).
	CyclesDone int
	// Paths is the queue size (AFL's paths_total).
	Paths int
	// PendingFavored counts favored queue entries not yet fuzzed.
	PendingFavored int
	// EdgesDiscovered is the global coverage (slots with any discovered
	// bucket bit).
	EdgesDiscovered int
	// Crashes is the total number of crashing executions; UniqueCrashes
	// counts Crashwalk-style buckets; UniqueCrashesAFL counts crashes
	// that showed new crash-coverage (AFL's built-in dedup, reported for
	// comparison — the paper notes it is biased towards larger maps).
	Crashes          uint64
	UniqueCrashes    int
	UniqueCrashesAFL int
	// Hangs counts budget-exhausted executions.
	Hangs uint64
	// UsedKeys is the map's used_key (BigMap) or map size (AFL scheme).
	UsedKeys int
	// CalibExecs counts executions spent on calibration re-runs and
	// crash/hang verification (included in Execs).
	CalibExecs uint64
	// VariableEdges counts coverage slots calibration found unstable and
	// masked out of novelty detection (AFL's var_bytes).
	VariableEdges int
	// Stability is the percentage of discovered edges that behaved
	// deterministically: 100 * (1 - VariableEdges/EdgesDiscovered). 100 on
	// a clean deterministic target; below 100 under flaky instrumentation.
	Stability float64
	// SpuriousCrashes and SpuriousHangs count one-off verdicts that failed
	// verification and were quarantined rather than filed.
	SpuriousCrashes uint64
	SpuriousHangs   uint64
	// MapSaturated reports that a slot-capped BigMap has assigned every
	// dense slot; DroppedKeys counts first-sight coverage keys discarded
	// after that point. Non-zero drops mean coverage feedback is incomplete
	// — the campaign degrades gracefully but should be re-run with a larger
	// slot region.
	MapSaturated bool
	DroppedKeys  uint64
}
