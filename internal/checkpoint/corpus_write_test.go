package checkpoint

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/bigmap/bigmap/internal/selffuzz/seedcorpus"
)

// TestWriteCheckpointCorpus regenerates testdata/fuzz/FuzzCheckpointRoundTrip
// with well-formed encodings plus the classic corruption shapes (bit flip in
// the payload, truncated tail, bare magic) so plain `go test` replays them.
// Gated behind BIGMAP_WRITE_CORPUS=1; see internal/selffuzz for the workflow.
// The directory's seed-v2-campaign and seed-v3-campaign are not
// regenerated: they are campaign checkpoints written by the retired v2 and
// v3 codecs, kept as rejection seeds (TestV2CampaignRejected,
// TestV3CampaignRejected).
func TestWriteCheckpointCorpus(t *testing.T) {
	if os.Getenv("BIGMAP_WRITE_CORPUS") != "1" {
		t.Skip("set BIGMAP_WRITE_CORPUS=1 to regenerate testdata/fuzz corpora")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointRoundTrip")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	full := EncodeFuzzer(sampleFuzzer())
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 0x10
	entries := [][]byte{
		full,
		EncodeFuzzer(&FuzzerState{}),
		EncodeCampaign(&CampaignState{
			SyncEvery: 1,
			Instances: []FuzzerState{*sampleFuzzer()},
		}),
		[]byte(magic),
		{},
		flipped,
		full[:len(full)-3],
	}
	for i, in := range entries {
		name := "seed-" + string(rune('a'+i))
		if err := seedcorpus.WriteFile(dir, name, in); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
