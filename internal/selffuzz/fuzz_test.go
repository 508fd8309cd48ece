package selffuzz

import (
	"testing"
)

// sizeFor maps an arbitrary selector onto the power-of-two map sizes the
// differential targets sweep. Small sizes keep per-exec cost low while still
// covering the word-kernel boundary cases (sub-word maps, odd word counts).
func sizeFor(sel uint64) int {
	sizes := []int{8, 64, 256, 1 << 10, 1 << 12, 1 << 16}
	return sizes[sel%uint64(len(sizes))]
}

// FuzzSchemeEquivalence is the flagship differential target: arbitrary
// op-codec programs (adds, batches, collision bursts, merged and split
// flushes, snapshot/restore) against both map schemes in lockstep. Any
// observable divergence — verdicts, counts, discovered totals, used_key vs
// the model, restore fidelity — fails.
func FuzzSchemeEquivalence(f *testing.F) {
	for _, s := range schemeEquivalenceSeeds() {
		f.Add(s.sizeSel, s.script)
	}
	f.Fuzz(func(t *testing.T, sizeSel uint64, script []byte) {
		if err := RunSchemeDifferential(sizeFor(sizeSel), DecodeOps(script, maxDiffOps)); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzCollisionSaturation drives a slot-capped BigMap to the
// MapSaturated/DroppedKeys boundary and model-checks every counter against
// the dumb reference implementation.
func FuzzCollisionSaturation(f *testing.F) {
	for _, s := range saturationSeeds() {
		f.Add(s.sizeSel, s.slotCap, s.script)
	}
	f.Fuzz(func(t *testing.T, sizeSel, slotCap uint64, script []byte) {
		size := sizeFor(sizeSel)
		cap := int(slotCap % uint64(size+2)) // sweeps 0 (=unbounded) .. past-size clamp
		if err := RunSaturationModel(size, cap, DecodeOps(script, maxDiffOps)); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzCheckpointCorruption performs adversarial byte surgery on encoded
// checkpoints: single-bit flips must always be rejected (CRC32), and
// anything the decoder accepts must be stable under re-encode.
func FuzzCheckpointCorruption(f *testing.F) {
	for _, s := range corruptionSeeds() {
		f.Add(s.seed, s.script)
	}
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		if err := RunCheckpointCorruption(seed, script); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzResumeUnderFaults checkpoints a campaign mid-flight — with fault
// injection live — resumes it through the full codec, and demands the final
// campaign state be bitwise identical to the never-interrupted run.
func FuzzResumeUnderFaults(f *testing.F) {
	for _, s := range resumeSeeds() {
		f.Add(s.seed, s.faultBits, s.cut, s.extra)
	}
	f.Fuzz(func(t *testing.T, seed, faultBits, cut, extra uint64) {
		if err := RunResumeDifferential(seed, faultBits, cut, extra); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzCampaignDeterminism runs the same campaign twice (scheme, faults, and
// cut points all fuzzed) and demands bitwise-identical final snapshots — the
// determinism invariant the resume differential and reproducible bench grid
// both stand on.
func FuzzCampaignDeterminism(f *testing.F) {
	for _, s := range campaignSeeds() {
		f.Add(s.seed, s.steps, s.sizeSel)
	}
	f.Fuzz(func(t *testing.T, seed, steps, sizeSel uint64) {
		if err := RunCampaignDeterminism(seed, steps, sizeSel); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzOpCodecRoundTrip pins the codec's own contract: decoding is total, and
// encode∘decode is the identity on the decoded (canonical) form — the
// property that makes corpus entries readable op lists rather than opaque
// bytes.
func FuzzOpCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(EncodeOps([]Op{{Code: OpAdd, Key: 7}, {Code: OpFlushMerged}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := DecodeOps(data, maxDiffOps)
		enc := EncodeOps(ops)
		again := DecodeOps(enc, maxDiffOps)
		if len(ops) != len(again) {
			t.Fatalf("re-decode has %d ops, want %d", len(again), len(ops))
		}
		for i := range ops {
			a, b := ops[i], again[i]
			if a.Code != b.Code || a.Key != b.Key || a.N != b.N ||
				a.Distinct != b.Distinct || a.Seed != b.Seed || len(a.Keys) != len(b.Keys) {
				t.Fatalf("op %d not stable under encode/decode: %+v vs %+v", i, a, b)
			}
			for j := range a.Keys {
				if a.Keys[j] != b.Keys[j] {
					t.Fatalf("op %d key %d not stable: %d vs %d", i, j, a.Keys[j], b.Keys[j])
				}
			}
		}
		// Canonical encodings are fixed points.
		if got := EncodeOps(again); string(got) != string(enc) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}
