package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/bigmap/bigmap"
	"github.com/bigmap/bigmap/internal/checkpoint"
	"github.com/bigmap/bigmap/internal/dist"
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

// TestRunResumeRatesThisSession: a resumed campaign's execs/s is built from
// the execs this process ran, not the campaign total its checkpoint carried
// in, which would inflate the rate.
func TestRunResumeRatesThisSession(t *testing.T) {
	chk := t.TempDir() + "/campaign.bmcp"
	args := []string{"-bench", "zlib", "-scheme", "bigmap", "-map", "64k", "-scale", "0.05", "-checkpoint", chk}
	if err := run(append(args, "-execs", "20000", "-seeds", "4")); err != nil {
		t.Fatal(err)
	}
	first := checkpointExecs(t, chk)
	out, err := captureStdout(t, func() error { return run(append(args, "-execs", "40000", "-resume")) })
	if err != nil {
		t.Fatal(err)
	}
	total := checkpointExecs(t, chk)

	var finished string
	var gotTotal, session uint64
	var rate float64
	for _, line := range strings.Split(out, "\n") {
		if d, ok := strings.CutPrefix(line, "campaign finished in "); ok {
			finished = d
		}
		if strings.HasPrefix(line, "  execs ") {
			if _, err := fmt.Sscanf(line, "  execs           : %d (%d this session, %f/sec)", &gotTotal, &session, &rate); err != nil {
				t.Fatalf("execs line %q: %v", line, err)
			}
		}
	}
	elapsed, err := time.ParseDuration(finished)
	if err != nil || elapsed <= 0 {
		t.Fatalf("no campaign duration in the output (%q: %v):\n%s", finished, err, out)
	}
	if gotTotal != total || session != total-first {
		t.Fatalf("execs line reads %d total, %d this session; the checkpoints say %d total, %d before the resume",
			gotTotal, session, total, first)
	}
	// The banner's duration is rounded to the millisecond.
	if want := float64(session) / elapsed.Seconds(); rate < want/1.25 || rate > want*1.25 {
		t.Errorf("rate %.0f/sec, want about %d session execs in %v = %.0f/sec", rate, session, elapsed, want)
	}
}

// checkpointExecs reads the campaign exec count of a saved checkpoint.
func checkpointExecs(t *testing.T, path string) uint64 {
	t.Helper()
	st, err := bigmap.LoadFuzzerCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Execs
}

// captureStdout runs fn with os.Stdout sent to a file and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = old
	data, rerr := os.ReadFile(f.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(data), err
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

// pushLog is a Hub that records the fuzzer's exec count at every push.
type pushLog struct {
	*dist.Hub
	f  *bigmap.Fuzzer
	at []uint64
}

func (p *pushLog) Push(worker string, b dist.Batch) (dist.Receipt, error) {
	p.at = append(p.at, p.f.Execs())
	return p.Hub.Push(worker, b)
}

// TestFuzzLoopSyncsByExecs: -sync-every counts the execs that actually ran,
// not the slices. A -checkpoint-every of 1 shrinks every slice to a single
// fuzz round (no checkpoint path, so nothing is written); a round runs many
// execs, so counting slices would sync only after syncEvery rounds.
func TestFuzzLoopSyncsByExecs(t *testing.T) {
	p, ok := bigmap.ProfileByName("zlib")
	if !ok {
		t.Fatal("zlib profile missing")
	}
	prog, err := bigmap.Generate(p.Spec(0.05))
	if err != nil {
		t.Fatal(err)
	}
	f, err := bigmap.NewFuzzer(prog, bigmap.WithScheme(bigmap.SchemeBigMap), bigmap.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddSeeds(bigmap.SynthesizeSeeds(prog, 1, 4)); err != nil {
		t.Fatal(err)
	}
	size := f.Map().Size()
	hub, err := dist.NewHub(size, nil)
	if err != nil {
		t.Fatal(err)
	}
	pushes := &pushLog{Hub: hub, f: f}
	peer, err := dist.NewWorker(f, "w", pushes, size)
	if err != nil {
		t.Fatal(err)
	}
	const syncEvery, execs = 2000, 20000
	start := f.Execs()
	if err := fuzzLoop(f, peer, execs, 0, "", 1, syncEvery, 0, nil); err != nil {
		t.Fatal(err)
	}
	// A sync lands at most one round past each syncEvery mark; a round
	// here is far shorter than syncEvery.
	if ran := f.Execs() - start; uint64(len(pushes.at)) < ran/(2*syncEvery) {
		t.Fatalf("%d syncs over %d execs at -sync-every %d", len(pushes.at), ran, syncEvery)
	}
	prev := start
	for i, at := range pushes.at {
		if at-prev < syncEvery {
			t.Errorf("sync %d after %d execs, want >= %d", i, at-prev, syncEvery)
		}
		prev = at
	}
}
