package main

import (
	"fmt"

	"github.com/bigmap/bigmap/internal/corpus"
	"github.com/bigmap/bigmap/internal/crash"
	"github.com/bigmap/bigmap/internal/fuzzer"
	"github.com/bigmap/bigmap/internal/target"
)

// maxReplays bounds how many queue entries of one campaign are replayed.
const maxReplays = 32

// replayer re-executes campaign outputs on a fresh interpreter of the
// campaign's target, independent of the fuzzer that produced them.
type replayer struct {
	ip *target.Interp
}

func newReplayer(prog *target.Program) replayer {
	return replayer{ip: target.NewInterp(prog)}
}

// crash checks that a crash bucket's input still crashes at the bucket's
// site, through the same call stack.
func (r replayer) crash(input []byte, site uint32, key uint64) error {
	res := r.ip.Run(input, target.NopTracer{}, 0)
	switch {
	case res.Status != target.StatusCrash:
		return fmt.Errorf("crash bucket %016x replays to %s", key, res.Status)
	case res.CrashSite != site:
		return fmt.Errorf("crash bucket %016x replays to site %d, want %d", key, res.CrashSite, site)
	case crash.KeyOf(res.CrashSite, res.Stack) != key:
		return fmt.Errorf("crash bucket %016x replays through another call stack", key)
	}
	return nil
}

// queue replays an evenly spaced sample of queue entries, each of which must
// run cleanly.
func (r replayer) queue(entries []*corpus.Entry) []error {
	var errs []error
	step := (len(entries) + maxReplays - 1) / maxReplays
	for i := 0; i < len(entries); i += step {
		if res := r.ip.Run(entries[i].Input, target.NopTracer{}, 0); res.Status != target.StatusOK {
			errs = append(errs, fmt.Errorf("queue entry %d replays to %s", i, res.Status))
		}
	}
	return errs
}

// checkFuzzer replays every crash bucket and a sample of the queue of one
// fuzzing instance.
func checkFuzzer(prog *target.Program, f *fuzzer.Fuzzer) []error {
	r := newReplayer(prog)
	var errs []error
	for _, rec := range f.Crashes().Records() {
		if err := r.crash(rec.Input, rec.Site, rec.Key); err != nil {
			errs = append(errs, err)
		}
	}
	return append(errs, r.queue(f.Queue().Entries())...)
}
