package selffuzz

// Hand-picked seed inputs for each fuzz target. Each entry encodes a known-hard
// scenario (collision bursts, snapshot/restore interleavings, saturation
// boundaries, single-bit checkpoint flips, fault-heavy resumes) so that plain
// `go test` replays them as regression tests and `go test -fuzz` starts from
// deep program states instead of empty inputs. The same lists feed the
// checked-in corpora under testdata/fuzz/ (see corpus_write_test.go).

type opSeed struct {
	sizeSel uint64
	script  []byte
}

func schemeEquivalenceSeeds() []opSeed {
	return []opSeed{
		// Single add + merged flush: the minimal interesting program.
		{0, EncodeOps([]Op{{Code: OpAdd, Key: 3}, {Code: OpFlushMerged}})},
		// Batch + split flush on a 64k map.
		{5, EncodeOps([]Op{
			{Code: OpAddBatch, Keys: []uint16{0, 1, 65535, 32767, 32768}},
			{Code: OpFlushSplit},
		})},
		// Collision burst around power-of-two boundaries, then both flush kinds.
		{2, EncodeOps([]Op{
			{Code: OpColliding, N: 200, Distinct: 9, Seed: 7},
			{Code: OpFlushMerged},
			{Code: OpColliding, N: 200, Distinct: 9, Seed: 7},
			{Code: OpFlushSplit},
		})},
		// Snapshot mid-campaign, diverge, restore, diverge again: the resume path.
		{3, EncodeOps([]Op{
			{Code: OpAdd, Key: 11}, {Code: OpFlushMerged},
			{Code: OpSnapshot},
			{Code: OpAddBatch, Keys: []uint16{100, 200, 300}}, {Code: OpFlushMerged},
			{Code: OpRestore},
			{Code: OpAdd, Key: 100}, {Code: OpFlushSplit},
		})},
		// Restore with no snapshot (pristine reset), then rebuild coverage.
		{1, EncodeOps([]Op{
			{Code: OpAdd, Key: 42}, {Code: OpFlushMerged},
			{Code: OpRestore},
			{Code: OpAdd, Key: 42}, {Code: OpFlushMerged},
		})},
		// Double restore from one snapshot: a crash-looping campaign.
		{4, EncodeOps([]Op{
			{Code: OpColliding, N: 50, Distinct: 5, Seed: 3},
			{Code: OpSnapshot}, {Code: OpFlushMerged},
			{Code: OpRestore}, {Code: OpFlushSplit},
			{Code: OpRestore}, {Code: OpAdd, Key: 9}, {Code: OpFlushMerged},
		})},
	}
}

type satSeed struct {
	sizeSel uint64
	slotCap uint64
	script  []byte
}

func saturationSeeds() []satSeed {
	return []satSeed{
		// Exactly at the cap: 4 distinct keys into 4 slots, then one more.
		{1, 4, EncodeOps([]Op{
			{Code: OpAddBatch, Keys: []uint16{1, 2, 3, 4}},
			{Code: OpFlushMerged},
			{Code: OpAdd, Key: 5},
			{Code: OpFlushMerged},
		})},
		// Collision burst far past a tiny cap: per-occurrence drop counting.
		{0, 2, EncodeOps([]Op{
			{Code: OpColliding, N: 120, Distinct: 8, Seed: 1},
			{Code: OpFlushMerged},
		})},
		// Cap 0 decodes as unbounded (clamped to size).
		{0, 0, EncodeOps([]Op{
			{Code: OpColliding, N: 40, Distinct: 6, Seed: 2},
			{Code: OpFlushSplit},
		})},
		// Saturate, reset, re-add the same keys: assignments must survive Reset.
		{2, 3, EncodeOps([]Op{
			{Code: OpAddBatch, Keys: []uint16{7, 8, 9, 10, 11}},
			{Code: OpSnapshot}, // mapped to Reset in the saturation runner
			{Code: OpAddBatch, Keys: []uint16{7, 8, 9, 10, 11}},
			{Code: OpFlushMerged},
		})},
	}
}

type corrSeed struct {
	seed   uint64
	script []byte
}

func corruptionSeeds() []corrSeed {
	return []corrSeed{
		// No-op script: the pristine file must decode.
		{1, nil},
		// Single bit flip near the front (hits the magic/version region).
		{2, []byte{corrFlipBit, 8, 0}},
		// Single bit flip positioned deep into the payload.
		{3, []byte{corrFlipBit, 0x40, 0x01}},
		// Truncate to 3 bytes: shorter than the header.
		{4, []byte{corrTruncate, 3, 0}},
		// Overwrite a length byte then duplicate a tail region.
		{5, []byte{corrSetByte, 9, 0, 0xFF, corrDuplicate, 16, 0, 32}},
	}
}

type resumeSeed struct {
	seed, faultBits, cut, extra uint64
}

func resumeSeeds() []resumeSeed {
	return []resumeSeed{
		{1, 0, 2, 2},       // clean campaign, mid-point cut
		{2, 0, 0, 3},       // checkpoint before the first step
		{3, 0x21, 3, 1},    // flaky edges + dropped coverage
		{4, 0x10512, 1, 4}, // spurious crashes + hangs + jitter
		{7, 0x1F, 5, 0},    // heavy flakiness, checkpoint at the very end
	}
}

type campaignSeed struct {
	seed, steps, sizeSel uint64
}

func campaignSeeds() []campaignSeed {
	return []campaignSeed{
		{1, 3, 0},    // afl scheme, small map: collision pressure
		{2, 7, 6},    // bigmap scheme, 64k map, near the step cap
		{9, 4, 7},    // bigmap scheme, 256k map
		{4, 5, 0x2C}, // bigmap scheme with fault injection live
	}
}
