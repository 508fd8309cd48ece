// Package checkpoint defines the on-disk campaign snapshot format: the full
// state a fuzzing instance (or a multi-instance campaign) needs to resume
// exactly where it stopped, serialized with a small hand-rolled binary codec.
//
// The format is deliberately self-contained and paranoid. A checkpoint may be
// the only survivor of a crashed 24-hour campaign, so the file carries a
// magic string, a format version, a payload kind, an explicit payload length
// and a CRC32 of everything before it; Decode rejects anything that does not
// check out rather than guessing. Writes go through a temp-file-then-rename
// dance so a crash mid-write can never destroy the previous good snapshot.
//
// The package holds pure data and bytes — it imports nothing from the rest of
// the tree. The fuzzer and parallel packages translate their live state into
// these structs (fuzzer.Snapshot / parallel.Campaign.Snapshot) and back
// (fuzzer.Resume / parallel.Resume); keeping the dependency one-way means the
// format cannot grow accidental ties to in-memory representations.
package checkpoint

// Entry is one serialized corpus entry, mirroring corpus.Entry field for
// field (EdgeCount is len(Touched), not stored).
type Entry struct {
	Input      []byte
	Cycles     uint64
	Touched    []uint32
	PathHash   uint64
	Depth      int
	FoundBy    string
	Favored    bool
	WasFuzzed  bool
	WasTrimmed bool
	FuzzLevel  int
}

// CrashRecord is one serialized crash bucket, mirroring crash.Record.
type CrashRecord struct {
	Key        uint64
	Site       uint32
	StackDepth int
	Count      int
	Input      []byte
}

// PathFreq is one entry of the AFLFast n_fuzz table.
type PathFreq struct {
	Hash  uint64
	Count uint64
}

// Virgin is one virgin map in sparse form: its logical length in slots and
// the 8-byte words holding at least one discovered (non-0xFF) byte. Every
// byte outside Words is 0xFF, so the size follows the coverage found, not
// the map size. The form is canonical — Words strictly ascending by Index,
// no all-0xFF word, the last word's bytes past Len all 0xFF — so equal
// virgin states encode to equal bytes.
type Virgin struct {
	Len   uint64
	Words []VirginWord
}

// VirginWord is one stored word of a Virgin: the word index (slot / 8) and
// the eight slot bytes packed little-endian, the core.DeltaWord layout.
type VirginWord struct {
	Index uint32
	Word  uint64
}

// FuzzerState is the complete serialized state of one fuzzing instance.
type FuzzerState struct {
	// Scheme and MapSize identify the coverage map configuration the state
	// was captured under; Resume refuses a mismatch.
	Scheme  string
	MapSize uint64

	// RNG and MutRNG are the xoshiro256** states of the scheduling and
	// mutation generators.
	RNG    [4]uint64
	MutRNG [4]uint64

	// Progress counters.
	Execs          uint64
	CyclesDone     uint64
	QueuePos       uint64
	TotalCrashes   uint64
	TotalHangs     uint64
	AFLUniqueCrash uint64
	SumCycles      uint64
	SumEdges       uint64
	RejectedSeeds  uint64

	// Calibration & fault bookkeeping.
	CalibExecs      uint64
	SpuriousCrashes uint64
	SpuriousHangs   uint64
	FaultExecs      uint64
	DroppedKeys     uint64

	// Virgin maps in sparse form (format v4).
	VirginAll   Virgin
	VirginCrash Virgin
	VirginHang  Virgin

	// SlotKeys is the BigMap dense-slot assignment in discovery order; nil
	// for the flat AFL scheme.
	SlotKeys []uint32

	// VarSlots lists coverage slots calibration found unstable.
	VarSlots []uint32

	// TopSlots/TopEntries serialize the queue's slot-champion table: slot
	// TopSlots[i] is championed by entry index TopEntries[i]. The table is
	// stored verbatim (not recomputed on resume) because it reflects the
	// original campaign's exact Add/trim interleaving.
	TopSlots   []uint32
	TopEntries []uint64

	// Corpus, crashes and the path-frequency table.
	Entries []Entry
	Crashes []CrashRecord
	Paths   []PathFreq
}

// CampaignState is the serialized state of a multi-instance campaign,
// captured at a sync boundary (no instance mid-round).
type CampaignState struct {
	// SyncEvery pins the round length the campaign ran with.
	SyncEvery uint64
	// Instances holds each instance's full state, in instance order.
	Instances []FuzzerState
}
