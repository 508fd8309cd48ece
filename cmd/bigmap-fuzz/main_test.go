package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/bigmap/bigmap/internal/checkpoint"
)

func TestRunSmallCampaign(t *testing.T) {
	err := run([]string{
		"-bench", "zlib", "-scheme", "bigmap", "-map", "64k",
		"-execs", "2000", "-scale", "0.05", "-seeds", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithLafAndNGram(t *testing.T) {
	err := run([]string{
		"-bench", "libpng", "-scheme", "bigmap", "-map", "256k",
		"-execs", "1500", "-scale", "0.05", "-seeds", "4",
		"-laf", "-ngram", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsUnknownBenchmark(t *testing.T) {
	if err := run([]string{"-bench", "nope", "-execs", "10"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunRejectsMissingBudget(t *testing.T) {
	if err := run([]string{"-bench", "zlib", "-execs", "0", "-scale", "0.05"}); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestRunRejectsBadMapSize(t *testing.T) {
	if err := run([]string{"-bench", "zlib", "-map", "xyz", "-execs", "10"}); err == nil {
		t.Error("bad map size accepted")
	}
}

func TestRunWithOutputDir(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-bench", "zlib", "-scheme", "bigmap", "-map", "64k",
		"-execs", "1500", "-scale", "0.05", "-seeds", "4", "-o", dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The saved queue must round-trip as an input corpus.
	err = run([]string{
		"-bench", "zlib", "-scheme", "afl", "-map", "64k",
		"-execs", "1000", "-scale", "0.05", "-i", dir + "/queue",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithAutoDict(t *testing.T) {
	err := run([]string{
		"-bench", "libpng", "-scheme", "bigmap", "-map", "64k",
		"-execs", "1200", "-scale", "0.05", "-seeds", "4", "-autodict",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunCheckpointAndResume(t *testing.T) {
	chk := t.TempDir() + "/campaign.bmcp"
	// First leg writes a final checkpoint...
	err := run([]string{
		"-bench", "zlib", "-scheme", "bigmap", "-map", "64k",
		"-execs", "1500", "-scale", "0.05", "-seeds", "4",
		"-checkpoint", chk, "-checkpoint-every", "500",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(chk); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	// ...and the second leg continues it to a larger total budget.
	err = run([]string{
		"-bench", "zlib", "-scheme", "bigmap", "-map", "64k",
		"-execs", "3000", "-scale", "0.05",
		"-checkpoint", chk, "-resume",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunResumeValidation(t *testing.T) {
	if err := run([]string{"-bench", "zlib", "-resume", "-execs", "10"}); err == nil {
		t.Error("-resume without -checkpoint accepted")
	}
	chk := t.TempDir() + "/missing.bmcp"
	if err := run([]string{
		"-bench", "zlib", "-scale", "0.05", "-execs", "10",
		"-checkpoint", chk, "-resume",
	}); err == nil {
		t.Error("resume from missing checkpoint accepted")
	}
}

// TestRunResumeRefusesVersionSkew: a checkpoint written by another codec
// version is refused before anything is written — the checkpoint keeps its
// bytes and the output directory is never created.
func TestRunResumeRefusesVersionSkew(t *testing.T) {
	dir := t.TempDir()
	chk := filepath.Join(dir, "campaign.bmcp")
	flags := []string{"-bench", "zlib", "-scheme", "bigmap", "-map", "64k", "-scale", "0.05"}
	if err := run(append(flags, "-execs", "500", "-seeds", "4", "-checkpoint", chk)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(chk)
	if err != nil {
		t.Fatal(err)
	}
	data[4] = 4 // the version byte, right after the 4-byte magic
	if err := os.WriteFile(chk, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	err = run(append(flags, "-execs", "1000", "-checkpoint", chk, "-resume", "-o", out))
	if !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("resume err = %v, want ErrVersion", err)
	}
	if after, err := os.ReadFile(chk); err != nil || !bytes.Equal(after, data) {
		t.Errorf("refused resume changed the checkpoint (read err %v)", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("refused resume created the output directory (stat err %v)", err)
	}
}

func TestRunWithFaultInjection(t *testing.T) {
	err := run([]string{
		"-bench", "zlib", "-scheme", "bigmap", "-map", "64k",
		"-execs", "2000", "-scale", "0.05", "-seeds", "4",
		"-calibrate", "3", "-flaky-edges", "200", "-fault-drop", "300",
		"-spurious-crash", "10", "-spurious-hang", "10", "-cycle-jitter", "10",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithSlotCap(t *testing.T) {
	err := run([]string{
		"-bench", "zlib", "-scheme", "bigmap", "-map", "64k",
		"-execs", "1500", "-scale", "0.05", "-seeds", "4", "-slot-cap", "32",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithDictionaryFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/tokens.dict"
	if err := os.WriteFile(path, []byte("magic=\"\\x89PNG\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{
		"-bench", "zlib", "-execs", "1000", "-scale", "0.05", "-seeds", "4", "-x", path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-bench", "zlib", "-execs", "10", "-x", dir + "/missing"}); err == nil {
		t.Error("missing dictionary accepted")
	}
}
