// Command bigmap-fuzz runs one fuzzing campaign against a synthetic
// benchmark, with the map scheme, map size and coverage metric on the
// command line — the interactive front door to the library.
//
// Usage:
//
//	bigmap-fuzz -bench sqlite3 -scheme bigmap -map 2M -execs 200000
//	bigmap-fuzz -bench gvn -scheme afl -map 64k -seconds 10
//	bigmap-fuzz -bench instcombine -laf -ngram 3 -map 2M -execs 100000
//
// Long campaigns survive interruption: with -checkpoint the campaign state
// is snapshotted atomically (periodically with -checkpoint-every, and as a
// last gasp on error or SIGINT/SIGTERM), and -resume continues an
// interrupted campaign exactly where it stopped — same target flags
// required, since the checkpoint stores state, not configuration.
//
// Live campaigns are observable: -http serves /metrics (Prometheus),
// /stats (JSON) and /debug/pprof/ while fuzzing, and -stats-every prints a
// one-line progress summary to stderr at that interval. Both wire the
// fuzzer into a telemetry registry; without them the campaign runs with
// telemetry fully off (zero overhead in the exec loop).
//
// Campaigns can span processes and machines: -join attaches this instance
// to a bigmap-corpusd corpus service, pushing new queue entries, crash
// buckets and virgin-map deltas every -sync-every execs and importing what
// the campaign's other workers published (see docs/DISTRIBUTED.md):
//
//	bigmap-fuzz -bench sqlite3 -execs 500000 -join http://localhost:8766 -worker w1
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/bigmap/bigmap"
	"github.com/bigmap/bigmap/internal/dictionary"
	"github.com/bigmap/bigmap/internal/dist"
	"github.com/bigmap/bigmap/internal/output"
	"github.com/bigmap/bigmap/internal/rng"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bigmap-fuzz:", err)
		os.Exit(1)
	}
}

// signalSliceExecs bounds one uninterruptible fuzzing slice so signals and
// periodic checkpoints are honoured within a bounded delay even when no
// -checkpoint-every is set.
const signalSliceExecs = 25000

func run(args []string) error {
	fs := flag.NewFlagSet("bigmap-fuzz", flag.ContinueOnError)
	benchName := fs.String("bench", "libpng", "benchmark profile (Table II / Table III name)")
	scheme := fs.String("scheme", "bigmap", "coverage map scheme: afl | bigmap")
	mapSize := fs.String("map", "64k", "coverage map size (64k, 256k, 2M, 8M)")
	execs := fs.Uint64("execs", 100000, "test case budget (0 = use -seconds)")
	seconds := fs.Float64("seconds", 0, "wall-clock budget in seconds (when -execs is 0)")
	scale := fs.Float64("scale", 0.1, "benchmark scale relative to the paper's static edges")
	seed := fs.Uint64("seed", 1, "campaign seed")
	seeds := fs.Int("seeds", 16, "synthesized seed corpus size")
	ngram := fs.Int("ngram", 0, "use N-gram coverage with this N (0 = edge coverage)")
	laf := fs.Bool("laf", false, "apply the laf-intel transformation")
	det := fs.Bool("det", false, "run AFL's deterministic stages")
	outDir := fs.String("o", "", "output directory (queue/, crashes/, fuzzer_stats, plot_data)")
	inDir := fs.String("i", "", "input corpus directory (replaces synthesized seeds)")
	dictFile := fs.String("x", "", "AFL-style dictionary file")
	autoDict := fs.Bool("autodict", false, "harvest comparison operands from the target as a dictionary")
	cmpLog := fs.Bool("cmplog", false, "enable RedQueen-style input-to-state mutation")
	schedule := fs.String("schedule", "", "power schedule: exploit|fast|explore|coe|lin|quad")
	calibrate := fs.Int("calibrate", 0, "re-execute new queue entries this many times to measure stability")
	slotCap := fs.Int("slot-cap", 0, "bound the BigMap dense-slot region (0 = full map)")
	chkPath := fs.String("checkpoint", "", "checkpoint file (atomic snapshots; last-gasp on error/signal)")
	chkEvery := fs.Uint64("checkpoint-every", 0, "execs between periodic checkpoints (0 = final/last-gasp only)")
	resume := fs.Bool("resume", false, "resume the campaign from -checkpoint (same target flags required)")
	join := fs.String("join", "", "corpus service base URL (bigmap-corpusd) to sync this instance through")
	campaign := fs.String("campaign", "default", "corpus service campaign name (with -join)")
	worker := fs.String("worker", "", "worker name on the corpus service; unique per campaign, reuse only to resume (default w<pid>)")
	syncEvery := fs.Uint64("sync-every", 20000, "execs between corpus service sync boundaries (with -join)")
	httpAddr := fs.String("http", "", "serve /metrics, /stats and /debug/pprof/ on this address (e.g. :8080)")
	statsEvery := fs.Float64("stats-every", 0, "seconds between one-line progress reports on stderr (0 = off)")
	faultSeed := fs.Uint64("fault-seed", 1, "fault injector seed")
	flakyEdges := fs.Int("flaky-edges", 0, "per-mille of blocks whose edges flicker across runs")
	faultDrop := fs.Int("fault-drop", 0, "per-mille chance an exec drops its flaky edges")
	spuriousCrash := fs.Int("spurious-crash", 0, "per-mille chance a clean exec is misreported as a crash")
	spuriousHang := fs.Int("spurious-hang", 0, "per-mille chance a clean exec is misreported as a hang")
	cycleJitter := fs.Int("cycle-jitter", 0, "percent jitter injected into reported cycle counts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *chkPath == "" {
		return fmt.Errorf("-resume needs -checkpoint")
	}

	profile, ok := bigmap.ProfileByName(*benchName)
	if !ok {
		return fmt.Errorf("unknown benchmark %q (see DESIGN.md for the list)", *benchName)
	}
	size, err := parseSize(*mapSize)
	if err != nil {
		return err
	}

	fmt.Printf("generating %s at scale %g...\n", profile.Name, *scale)
	prog, err := bigmap.Generate(profile.Spec(*scale))
	if err != nil {
		return err
	}
	fmt.Printf("  %d blocks, %d static edges\n", prog.NumBlocks(), prog.StaticEdges())

	if *laf {
		var stats bigmap.LafIntelStats
		prog, stats = bigmap.LafIntel(prog, *seed)
		fmt.Printf("  laf-intel: %d compares + %d switches split, static edges %d -> %d\n",
			stats.SplitCompares, stats.SplitSwitches,
			stats.StaticEdgesBefore, stats.StaticEdgesAfter)
	}

	// Telemetry exists only when something consumes it; otherwise the
	// campaign runs with the registry nil and the exec loop telemetry-free.
	var reg *bigmap.TelemetryRegistry
	if *httpAddr != "" || *statsEvery > 0 {
		reg = bigmap.NewTelemetry()
	}
	if *httpAddr != "" {
		srv := &http.Server{Addr: *httpAddr, Handler: bigmap.TelemetryHandler(reg)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "bigmap-fuzz: http:", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("  observability on http://%s/ (metrics, stats, pprof)\n", *httpAddr)
	}

	opts := []bigmap.Option{
		bigmap.WithScheme(bigmap.Scheme(*scheme)),
		bigmap.WithMapSize(size),
		bigmap.WithSeed(*seed),
	}
	if reg != nil {
		opts = append(opts, bigmap.WithTelemetry(reg))
	}
	if *ngram > 0 {
		opts = append(opts, bigmap.WithNGram(*ngram))
	}
	if *det {
		opts = append(opts, bigmap.WithDeterministicStages())
	}
	if *cmpLog {
		opts = append(opts, bigmap.WithCmpLog())
	}
	if *schedule != "" {
		opts = append(opts, bigmap.WithPowerSchedule(*schedule))
	}
	if *calibrate > 0 {
		opts = append(opts, bigmap.WithCalibration(*calibrate))
	}
	if *slotCap > 0 {
		opts = append(opts, bigmap.WithSlotCap(*slotCap))
	}
	if *flakyEdges > 0 || *spuriousCrash > 0 || *spuriousHang > 0 || *cycleJitter > 0 {
		fp := bigmap.FaultProfile{
			Seed:              *faultSeed,
			FlakyEdgeFraction: *flakyEdges,
			DropRate:          *faultDrop,
			SpuriousCrashRate: *spuriousCrash,
			SpuriousHangRate:  *spuriousHang,
			CycleJitterPct:    *cycleJitter,
		}
		opts = append(opts, bigmap.WithFaultProfile(fp))
		fmt.Printf("  fault injection on (seed %d)\n", *faultSeed)
	}
	var dict [][]byte
	if *dictFile != "" {
		content, err := os.ReadFile(*dictFile)
		if err != nil {
			return err
		}
		tokens, err := dictionary.Parse(string(content), 1<<30)
		if err != nil {
			return err
		}
		dict = append(dict, dictionary.Data(tokens)...)
		fmt.Printf("  loaded %d dictionary tokens from %s\n", len(tokens), *dictFile)
	}
	if *autoDict {
		tokens := dictionary.Extract(prog)
		dict = append(dict, dictionary.Data(tokens)...)
		fmt.Printf("  harvested %d dictionary tokens from the target\n", len(tokens))
	}
	if len(dict) > 0 {
		opts = append(opts, bigmap.WithDictionary(dict))
	}

	var f *bigmap.Fuzzer
	if *resume {
		lh := reg.Histogram("checkpoint_load_ns")
		lt := lh.Start()
		st, err := bigmap.LoadFuzzerCheckpoint(*chkPath)
		lh.Done(lt)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		f, err = bigmap.ResumeFuzzer(prog, st, opts...)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		rs := f.Stats()
		fmt.Printf("  resumed from %s: %d execs, %d queue paths, %d edges, %d unique crashes, %d hangs\n",
			*chkPath, rs.Execs, rs.Paths, rs.EdgesDiscovered, rs.UniqueCrashes, rs.Hangs)
	} else {
		f, err = bigmap.NewFuzzer(prog, opts...)
		if err != nil {
			return err
		}
		var corpusIn [][]byte
		if *inDir != "" {
			var err error
			corpusIn, err = output.LoadCorpus(*inDir)
			if err != nil {
				return err
			}
			fmt.Printf("  loaded %d corpus inputs from %s\n", len(corpusIn), *inDir)
		} else {
			corpusIn = prog.SampleSeeds(rng.New(*seed^0x5eed), *seeds)
		}
		accepted, err := f.AddSeeds(corpusIn)
		if err != nil {
			return err
		}
		fmt.Printf("  %d/%d seeds accepted\n", accepted, len(corpusIn))
	}

	var peer *dist.Worker
	if *join != "" {
		client, err := dist.NewClient(*join, *campaign)
		if err != nil {
			return err
		}
		if err := client.EnsureCampaign(size); err != nil {
			return fmt.Errorf("join %s: %w", *join, err)
		}
		name := *worker
		if name == "" {
			name = fmt.Sprintf("w%d", os.Getpid())
		}
		peer, err = dist.NewWorker(f, name, client, size)
		if err != nil {
			return fmt.Errorf("join %s: %w", *join, err)
		}
		fmt.Printf("  joined campaign %q at %s as worker %q (sync every %d execs)\n",
			*campaign, *join, name, *syncEvery)
	}

	var session *output.Session
	if *outDir != "" {
		var err error
		session, err = output.NewSession(*outDir)
		if err != nil {
			return err
		}
		defer session.Close()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	start := time.Now() //bigmap:nondeterministic-ok wall-clock campaign timing for the stats banner only
	runErr := fuzzLoop(f, peer, *execs, *seconds, *chkPath, *chkEvery, *syncEvery, *statsEvery, stop)
	elapsed := time.Since(start) //bigmap:nondeterministic-ok wall-clock campaign timing for the stats banner only

	if peer != nil {
		// Publish the final finds; a campaign's last slice is otherwise
		// invisible to its peers.
		if _, err := peer.Push(); err != nil {
			fmt.Fprintln(os.Stderr, "bigmap-fuzz: final sync:", err)
		} else if st, err := peer.Syncer().Stats(); err == nil {
			fmt.Printf("  campaign-wide: %d inputs, %d crash buckets, %d workers, %d union edges\n",
				st.Inputs, st.Crashes, st.Workers, st.UnionDiscovered)
		}
	}

	// Stats and the final checkpoint are flushed on the error path too — a
	// failed or interrupted campaign is exactly when the snapshot matters.
	printStats(f, *scheme, size, elapsed)
	if *chkPath != "" {
		if err := bigmap.SaveFuzzerCheckpoint(*chkPath, f); err != nil {
			runErr = errors.Join(runErr, err)
		} else {
			fmt.Printf("  checkpoint saved to %s\n", *chkPath)
		}
	}
	if session != nil {
		if err := session.SaveQueue(f.Queue().Entries()); err != nil {
			return errors.Join(runErr, err)
		}
		if err := session.SaveCrashes(f.Crashes().Records()); err != nil {
			return errors.Join(runErr, err)
		}
		if err := session.WriteStats(f.Stats(), *scheme, size); err != nil {
			return errors.Join(runErr, err)
		}
		if err := session.AppendPlot(f.Stats()); err != nil {
			return errors.Join(runErr, err)
		}
		fmt.Printf("  session saved to %s\n", session.Dir())
	}
	return runErr
}

// fuzzLoop drives the campaign in slices so signals are answered, periodic
// checkpoints written, corpus-service syncs run and progress lines printed
// between slices, never mid-round. The execs budget is the campaign total,
// so a resumed campaign finishes the original budget rather than starting a
// fresh one.
func fuzzLoop(f *bigmap.Fuzzer, peer *dist.Worker, execs uint64, seconds float64, chkPath string, chkEvery, syncEvery uint64, statsEvery float64, stop <-chan os.Signal) error {
	if execs == 0 && seconds <= 0 {
		return fmt.Errorf("need -execs or -seconds")
	}
	slice := uint64(signalSliceExecs)
	if chkEvery > 0 && chkEvery < slice {
		slice = chkEvery
	}
	if peer != nil && syncEvery > 0 && syncEvery < slice {
		slice = syncEvery
	}
	sinceChk := uint64(0)
	sinceSync := uint64(0)
	deadline := time.Time{}
	if execs == 0 {
		deadline = time.Now().Add(time.Duration(seconds * float64(time.Second))) //bigmap:nondeterministic-ok -seconds is a wall-clock budget by definition
	}
	loopStart := time.Now() //bigmap:nondeterministic-ok wall-clock base for periodic stats lines; never persisted
	var statsTick time.Duration
	if statsEvery > 0 {
		statsTick = time.Duration(statsEvery * float64(time.Second))
	}
	nextStats := loopStart.Add(statsTick)
	for {
		select {
		case sig := <-stop:
			return fmt.Errorf("interrupted by %v", sig)
		default:
		}
		if statsTick > 0 && !time.Now().Before(nextStats) { //bigmap:nondeterministic-ok stats cadence is wall-clock; fuzzing state never reads it
			st := f.Stats()
			el := time.Since(loopStart).Seconds() //bigmap:nondeterministic-ok elapsed seconds feed the printed execs/s rate only
			fmt.Fprintf(os.Stderr,
				"[stats] t=%.0fs execs=%d (%.0f/s) paths=%d edges=%d crashes=%d/%d hangs=%d\n",
				el, st.Execs, float64(st.Execs)/el, st.Paths, st.EdgesDiscovered,
				st.UniqueCrashes, st.Crashes, st.Hangs)
			nextStats = time.Now().Add(statsTick) //bigmap:nondeterministic-ok stats cadence is wall-clock; fuzzing state never reads it
		}
		var err error
		before := f.Execs()
		if execs > 0 {
			if f.Execs() >= execs {
				return nil
			}
			n := execs - f.Execs()
			if n > slice {
				n = slice
			}
			err = f.RunExecs(n)
		} else {
			remaining := time.Until(deadline) //bigmap:nondeterministic-ok -seconds deadline check; execution results do not depend on it
			if remaining <= 0 {
				return nil
			}
			if remaining > 500*time.Millisecond {
				remaining = 500 * time.Millisecond
			}
			err = f.RunFor(remaining)
		}
		if err != nil {
			return err
		}
		// A slice overshoots its exec target by up to a fuzz round, and a
		// -seconds slice runs however many execs fit: count what ran.
		ran := f.Execs() - before
		if chkPath != "" && chkEvery > 0 {
			sinceChk += ran
			if sinceChk >= chkEvery {
				sinceChk = 0
				if err := bigmap.SaveFuzzerCheckpoint(chkPath, f); err != nil {
					return err
				}
			}
		}
		if peer != nil && syncEvery > 0 {
			sinceSync += ran
			if sinceSync >= syncEvery {
				sinceSync = 0
				// A sync failure degrades to independent fuzzing; the
				// worker's pending batch is retried at the next boundary.
				if err := peer.Sync(); err != nil {
					fmt.Fprintln(os.Stderr, "bigmap-fuzz: sync:", err)
				}
			}
		}
	}
}

func printStats(f *bigmap.Fuzzer, scheme string, size int, elapsed time.Duration) {
	st := f.Stats()
	fmt.Printf("\ncampaign finished in %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("  execs           : %d (%.0f/sec)\n", st.Execs,
		float64(st.Execs)/elapsed.Seconds())
	fmt.Printf("  queue paths     : %d\n", st.Paths)
	fmt.Printf("  edges discovered: %d\n", st.EdgesDiscovered)
	fmt.Printf("  used_key        : %d / %d map slots\n", st.UsedKeys, size)
	if st.MapSaturated {
		fmt.Printf("  map SATURATED   : %d keys dropped\n", st.DroppedKeys)
	}
	if st.CalibExecs > 0 {
		fmt.Printf("  stability       : %.2f%% (%d variable edges, %d calibration execs)\n",
			st.Stability, st.VariableEdges, st.CalibExecs)
	}
	if st.SpuriousCrashes > 0 || st.SpuriousHangs > 0 {
		fmt.Printf("  quarantined     : %d spurious crashes, %d spurious hangs\n",
			st.SpuriousCrashes, st.SpuriousHangs)
	}
	fmt.Printf("  crashes         : %d total, %d unique (crashwalk), %d unique (afl)\n",
		st.Crashes, st.UniqueCrashes, st.UniqueCrashesAFL)
	fmt.Printf("  hangs           : %d\n", st.Hangs)
	rate, err := bigmap.CollisionRate(size, max(st.EdgesDiscovered, 1))
	if err == nil {
		fmt.Printf("  collision rate  : %.2f%% (Equation 1 at this map size)\n", rate*100)
	}
}

func parseSize(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult = 1 << 10
		s = s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult = 1 << 20
		s = s[:len(s)-1]
	}
	var v int
	if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
		return 0, fmt.Errorf("bad size %q: %w", s, err)
	}
	return v * mult, nil
}
