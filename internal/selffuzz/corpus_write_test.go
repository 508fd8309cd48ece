package selffuzz

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/bigmap/bigmap/internal/selffuzz/seedcorpus"
)

// TestWriteSeedCorpora regenerates the checked-in seed corpora under
// testdata/fuzz/ from the seed lists in seeds_test.go. It is gated behind
// BIGMAP_WRITE_CORPUS=1 so a normal test run never rewrites testdata; run
//
//	BIGMAP_WRITE_CORPUS=1 go test ./internal/selffuzz -run TestWriteSeedCorpora
//
// after changing a seed list, and commit the result. Plain `go test` then
// replays every corpus entry through its fuzz target automatically.
func TestWriteSeedCorpora(t *testing.T) {
	if os.Getenv("BIGMAP_WRITE_CORPUS") != "1" {
		t.Skip("set BIGMAP_WRITE_CORPUS=1 to regenerate testdata/fuzz corpora")
	}
	write := func(target string, i int, args ...any) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("seed-%02d", i)
		if err := seedcorpus.WriteFile(dir, name, args...); err != nil {
			t.Fatalf("%s/%s: %v", target, name, err)
		}
	}
	for i, s := range schemeEquivalenceSeeds() {
		write("FuzzSchemeEquivalence", i, s.sizeSel, s.script)
	}
	for i, s := range saturationSeeds() {
		write("FuzzCollisionSaturation", i, s.sizeSel, s.slotCap, s.script)
	}
	for i, s := range corruptionSeeds() {
		write("FuzzCheckpointCorruption", i, s.seed, s.script)
	}
	for i, s := range resumeSeeds() {
		write("FuzzResumeUnderFaults", i, s.seed, s.faultBits, s.cut, s.extra)
	}
	for i, s := range campaignSeeds() {
		write("FuzzCampaignDeterminism", i, s.seed, s.steps, s.sizeSel)
	}
	write("FuzzOpCodecRoundTrip", 0, []byte{})
	write("FuzzOpCodecRoundTrip", 1, EncodeOps([]Op{
		{Code: OpColliding, N: 10, Distinct: 3, Seed: 1},
		{Code: OpSnapshot}, {Code: OpRestore}, {Code: OpFlushSplit},
	}))
}
