package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// sampleFuzzer builds a state exercising every field, including empty and
// nil slices (which must round-trip to nil).
func sampleFuzzer() *FuzzerState {
	return &FuzzerState{
		Scheme:          "bigmap",
		MapSize:         1 << 23,
		RNG:             [4]uint64{1, 2, 3, 4},
		MutRNG:          [4]uint64{5, 6, 7, 8},
		Execs:           123456,
		CyclesDone:      3,
		QueuePos:        17,
		TotalCrashes:    9,
		TotalHangs:      2,
		AFLUniqueCrash:  4,
		SumCycles:       999999,
		SumEdges:        4242,
		RejectedSeeds:   1,
		CalibExecs:      640,
		SpuriousCrashes: 5,
		SpuriousHangs:   6,
		FaultExecs:      123460,
		DroppedKeys:     77,
		VirginAll: Virgin{Len: 20, Words: []VirginWord{
			{Index: 0, Word: 0xFFFFFFFF_FF7F00FF},
			{Index: 2, Word: 0xFFFFFFFF_FFFF00FF},
		}},
		VirginCrash: Virgin{Len: 4},
		VirginHang:  Virgin{Len: 4, Words: []VirginWord{{Index: 0, Word: 0xFFFFFFFF_FEFFFFFF}}},
		SlotKeys:    []uint32{10, 20, 4_000_000_000},
		VarSlots:    []uint32{1, 3},
		Entries: []Entry{
			{
				Input: []byte("seed-one"), Cycles: 100,
				Touched: []uint32{0, 2}, PathHash: 0xdeadbeef,
				Depth: 0, FoundBy: "seed",
				Favored: true, WasFuzzed: true, WasTrimmed: true, FuzzLevel: 2,
			},
			{
				Input: []byte{}, Cycles: 1, Touched: nil,
				PathHash: 1, Depth: 3, FoundBy: "havoc", FuzzLevel: 0,
			},
		},
		Crashes: []CrashRecord{
			{Key: 0xabcdef, Site: 42, StackDepth: 2, Count: 7, Input: []byte("boom")},
		},
		Paths: []PathFreq{{Hash: 11, Count: 5}, {Hash: 22, Count: 1}},
	}
}

func TestFuzzerRoundTrip(t *testing.T) {
	want := sampleFuzzer()
	data := EncodeFuzzer(want)
	got, err := DecodeFuzzer(data)
	if err != nil {
		t.Fatal(err)
	}
	// Empty non-nil slices decode as nil; normalize before comparing.
	want.Entries[1].Input = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestZeroFuzzerRoundTrip(t *testing.T) {
	data := EncodeFuzzer(&FuzzerState{})
	got, err := DecodeFuzzer(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, &FuzzerState{}) {
		t.Fatalf("zero state did not round trip: %+v", got)
	}
}

func TestCampaignRoundTrip(t *testing.T) {
	want := &CampaignState{
		SyncEvery: 20000,
		Instances: []FuzzerState{*sampleFuzzer(), {Scheme: "afl", MapSize: 65536}},
	}
	data := EncodeCampaign(want)
	got, err := DecodeCampaign(data)
	if err != nil {
		t.Fatal(err)
	}
	want.Instances[0].Entries[1].Input = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("campaign round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestOldCampaignVersionsRejected pins every codec bump: a campaign
// checkpoint written by a retired version is refused with ErrVersion by both
// DecodeCampaign and LoadCampaign instead of being misread. The fixtures are
// the seed-v<N>-campaign files kept in the round-trip fuzz corpus, so a
// future bump adds a fixture, not a test. v2 still carried the pairwise
// import matrix, v3 stored every virgin map raw, and v4's fuzzer payloads
// still ended in the two selective-tracing counters. A retired layout of
// the current version is named seed-v<N>-<layout>-campaign:
// seed-v5-adaptive-campaign is a real adaptive-havoc campaign, whose
// operator lists the current v5 writes empty.
func TestOldCampaignVersionsRejected(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzCheckpointRoundTrip", "seed-v*-campaign"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no seed-v*-campaign fixtures")
	}
	for _, path := range fixtures {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			num, layout, _ := strings.Cut(strings.TrimSuffix(strings.TrimPrefix(name, "seed-v"), "-campaign"), "-")
			version, err := strconv.Atoi(num)
			if err != nil || version > Version || version == Version && layout == "" {
				t.Fatalf("fixture %s does not name a retired version or layout", name)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(string(raw), "\n")
			lit, ok := strings.CutPrefix(lines[1], "[]byte(")
			if !ok {
				t.Fatalf("fixture line %q is not a []byte literal", lines[1])
			}
			data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(data, magic+string([]byte{byte(version), KindCampaign})) {
				t.Fatalf("fixture is not a v%d campaign checkpoint: % x", version, data[:6])
			}
			if _, err := DecodeCampaign([]byte(data)); !errors.Is(err, ErrVersion) {
				t.Fatalf("DecodeCampaign(v%d) = %v, want ErrVersion", version, err)
			}
			old := filepath.Join(t.TempDir(), "old.bm")
			if err := os.WriteFile(old, []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadCampaign(old); !errors.Is(err, ErrVersion) {
				t.Fatalf("LoadCampaign(v%d) = %v, want ErrVersion", version, err)
			}
		})
	}
}

// TestDecodeRejectsNonCanonicalVirgin encodes states whose sparse virgins
// break the canonical form — the property that makes equal states encode to
// equal bytes — and requires the decoder to refuse each one.
func TestDecodeRejectsNonCanonicalVirgin(t *testing.T) {
	for name, v := range map[string]Virgin{
		"beyond-length":  {Len: 16, Words: []VirginWord{{Index: 2, Word: 0}}},
		"all-0xFF-word":  {Len: 16, Words: []VirginWord{{Index: 1, Word: ^uint64(0)}}},
		"duplicate-word": {Len: 16, Words: []VirginWord{{Index: 1, Word: 0}, {Index: 1, Word: 0}}},
		"set-padding":    {Len: 12, Words: []VirginWord{{Index: 1, Word: 0xFFFFFF00_00000000}}},
	} {
		_, err := DecodeFuzzer(EncodeFuzzer(&FuzzerState{VirginHang: v}))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "virgin word") {
			t.Errorf("%s: got %v, want a non-canonical virgin ErrCorrupt", name, err)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := EncodeFuzzer(sampleFuzzer())

	t.Run("empty", func(t *testing.T) {
		if _, err := DecodeFuzzer(nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xFF
		if _, err := DecodeFuzzer(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[4] = Version + 1
		if _, err := DecodeFuzzer(bad); !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
	})
	t.Run("wrong-kind", func(t *testing.T) {
		data := EncodeCampaign(&CampaignState{})
		if _, err := DecodeFuzzer(data); !errors.Is(err, ErrKind) {
			t.Fatalf("got %v, want ErrKind", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(good); cut += 7 {
			if _, err := DecodeFuzzer(good[:len(good)-cut]); err == nil {
				t.Fatalf("truncation of %d bytes accepted", cut)
			}
		}
	})
	t.Run("bitflips", func(t *testing.T) {
		// Any single corrupted byte must be caught by the CRC.
		for i := 0; i < len(good); i += 3 {
			bad := append([]byte(nil), good...)
			bad[i] ^= 0x40
			if _, err := DecodeFuzzer(bad); err == nil {
				t.Fatalf("bitflip at offset %d accepted", i)
			}
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), good...), 0xAA, 0xBB)
		if _, err := DecodeFuzzer(bad); err == nil {
			t.Fatal("trailing garbage accepted")
		}
	})
}

// TestDecodeHugeCountRejected hand-crafts a payload whose leading length
// claims far more elements than the payload holds: the bounds check must
// reject it without attempting the allocation.
func TestDecodeHugeCountRejected(t *testing.T) {
	var w writer
	w.str("afl")
	w.u64(65536)
	payload := append(w.buf, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01)
	data := frame(KindFuzzer, payload)
	if _, err := DecodeFuzzer(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fuzz.ckpt")
	want := sampleFuzzer()

	if err := Save(path, EncodeFuzzer(want)); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a second snapshot: rename must replace in place.
	want.Execs = 999
	if err := Save(path, EncodeFuzzer(want)); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFuzzer(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Execs != 999 {
		t.Fatalf("loaded stale snapshot: execs %d", got.Execs)
	}
	// No temp litter left behind.
	matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

func TestLoadRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	data := EncodeFuzzer(sampleFuzzer())
	data[len(data)/2] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFuzzer(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestKindOf(t *testing.T) {
	if k, err := KindOf(EncodeFuzzer(&FuzzerState{})); err != nil || k != KindFuzzer {
		t.Fatalf("got (%d, %v), want (KindFuzzer, nil)", k, err)
	}
	if k, err := KindOf(EncodeCampaign(&CampaignState{})); err != nil || k != KindCampaign {
		t.Fatalf("got (%d, %v), want (KindCampaign, nil)", k, err)
	}
	if _, err := KindOf([]byte("nope")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

// FuzzCheckpointRoundTrip feeds arbitrary bytes to both decoders: they must
// never panic, and anything they accept must re-encode to semantically equal
// state (decode∘encode = identity on the accepted set). Corrupt or truncated
// checkpoints are rejected, never silently loaded.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add(EncodeFuzzer(sampleFuzzer()))
	f.Add(EncodeFuzzer(&FuzzerState{}))
	f.Add(EncodeCampaign(&CampaignState{
		SyncEvery: 1,
		Instances: []FuzzerState{*sampleFuzzer()},
	}))
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if st, err := DecodeFuzzer(data); err == nil {
			again, err := DecodeFuzzer(EncodeFuzzer(st))
			if err != nil {
				t.Fatalf("re-decode of accepted fuzzer state failed: %v", err)
			}
			if !reflect.DeepEqual(st, again) {
				t.Fatal("fuzzer state not stable under encode/decode")
			}
		}
		if st, err := DecodeCampaign(data); err == nil {
			again, err := DecodeCampaign(EncodeCampaign(st))
			if err != nil {
				t.Fatalf("re-decode of accepted campaign state failed: %v", err)
			}
			if !reflect.DeepEqual(st, again) {
				t.Fatal("campaign state not stable under encode/decode")
			}
		}
	})
}
