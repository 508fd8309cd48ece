package fuzzer

import (
	"runtime"
	"sync/atomic"

	"github.com/bigmap/bigmap/internal/rng"
	"github.com/bigmap/bigmap/internal/target"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// The havoc stage's mutants are a pure function of the mutator's RNG, the
// entry's input and the dictionary: no execution result feeds back into
// them. A mutant's run, in turn, depends only on the program and the
// mutant. So the stage runs as a pipeline. A helper goroutine owns the
// mutator for the whole stage and generates the mutants a batch ahead into
// a fixed pool of reusable batches, recording the mutator's RNG state after
// each one. When no batch is free it executes mutants the fuzzer goroutine
// has not reached yet, newest first, and records each run's coverage keys.
// The fuzzer goroutine takes the mutants in order, executing those the
// helper did not record and replaying those it did, and alone touches the
// map, the virgin maps and the queue.
// Mutants, RNG draws, queue, virgin maps and checkpoints are those of the
// sequential loop; a RunFor cut joins the helper and rewinds the RNG to the
// state after the last evaluated mutant (DESIGN §13.3).

const (
	// firstMutantBatch is the helper's first batch size; each later batch
	// doubles up to maxMutantBatch. A small first batch starts the fuzzer
	// goroutine early; large later batches hide goroutine wake-up latency.
	firstMutantBatch = 16
	maxMutantBatch   = 128
	// mutantBatches is the pool size: the helper runs up to this many
	// batches ahead of the fuzzer goroutine.
	mutantBatches = 4
	// arenaKeys is a batch's key arena, where the helper records the runs
	// of the batch's mutants: 256 KB a batch, 1 MB a pool.
	arenaKeys = 64 << 10
)

// A mutant's claim word says who runs it. The first claim is a CAS from
// claimFree; only the helper moves a claim on from claimHelper.
const (
	claimFree     uint32 = iota
	claimFuzzer          // the fuzzer goroutine executes it
	claimHelper          // the helper is recording its run
	claimRecorded        // the helper's run is in runs[k]
	claimInline          // the helper gave its run up; the fuzzer goroutine executes it
)

// mutantSource is what the helper uses of the mutator. *mutation.Mutator
// is its one implementation outside tests; the interface is the seam through
// which a test makes generation panic.
type mutantSource interface {
	Havoc(base []byte) []byte
	Source() *rng.Source
}

// runRecorder is what the helper uses of executor.Recorder, its one
// implementation outside tests; the interface is the seam through which a
// test makes recording panic.
type runRecorder interface {
	Record(input []byte, keys []uint32) (target.Result, []uint32, bool)
}

// recordedRun is a mutant's run as the helper recorded it: the result and
// the coverage keys, a span of the batch's arena.
type recordedRun struct {
	res  target.Result
	keys []uint32
}

// mutantBatch holds up to maxMutantBatch consecutive havoc mutants,
// concatenated in data, the mutator's RNG state after each, and who runs
// each. runs[k] is written by the helper before claims[k] reads
// claimRecorded, and read by the fuzzer goroutine after.
type mutantBatch struct {
	data   []byte
	n      int
	ends   [maxMutantBatch]int
	states [maxMutantBatch][4]uint64
	claims [maxMutantBatch]atomic.Uint32
	runs   [maxMutantBatch]recordedRun

	// The helper's: the arena (arenaKeys long; nil with recording off), how
	// much of it is filled, and whether a run outgrew what was left.
	arena []uint32
	used  int
	spent bool
}

// mutant returns the k-th mutant, capped so an append cannot reach the next.
func (b *mutantBatch) mutant(k int) []byte {
	start := 0
	if k > 0 {
		start = b.ends[k-1]
	}
	return b.data[start:b.ends[k]:b.ends[k]]
}

// take claims mutant k for the fuzzer goroutine. It returns the run the
// helper recorded, or nil when the fuzzer goroutine must execute the mutant
// itself; if the helper is recording it, take waits for that one run.
func (b *mutantBatch) take(k int) *recordedRun {
	c := &b.claims[k]
	if c.CompareAndSwap(claimFree, claimFuzzer) {
		return nil
	}
	for {
		switch c.Load() {
		case claimRecorded:
			return &b.runs[k]
		case claimInline:
			return nil
		}
		runtime.Gosched()
	}
}

// havocPipe is an instance's havoc pipeline, reused across stages. Between
// stages every batch is on free, full is empty and no helper runs.
type havocPipe struct {
	batches [mutantBatches]mutantBatch
	free    chan *mutantBatch // batches the helper may fill
	full    chan *mutantBatch // filled batches, in stage order
	done    chan any          // the helper's exit: nil, or the value it panicked with
	stop    atomic.Bool       // asks the helper to quit before its next batch or run

	// The helper's: its recorder (nil: recording off) and telemetry, the
	// batches it filled this stage, oldest first, and the claim of the run
	// it is recording.
	rec         runRecorder
	helperNs    *telemetry.Histogram
	helperExecs *telemetry.Counter
	window      [mutantBatches]*mutantBatch
	nwin        int
	recording   *atomic.Uint32

	// The fuzzer goroutine's.
	running bool         // a helper was started and has not been joined
	held    *mutantBatch // the batch the fuzzer goroutine is evaluating
}

// newHavocPipe builds a pipe whose helper records runs with rec, unless rec
// is nil. The key arenas are one allocation, made here once per pipe.
func newHavocPipe(rec runRecorder, tel telemetryHooks) *havocPipe {
	p := &havocPipe{
		free:        make(chan *mutantBatch, mutantBatches),
		full:        make(chan *mutantBatch, mutantBatches),
		done:        make(chan any, 1),
		rec:         rec,
		helperNs:    tel.helperExecNs,
		helperExecs: tel.helperExecs,
	}
	var arena []uint32
	if rec != nil {
		arena = make([]uint32, mutantBatches*arenaKeys)
	}
	for i := range p.batches {
		if arena != nil {
			p.batches[i].arena = arena[i*arenaKeys : (i+1)*arenaKeys : (i+1)*arenaKeys]
		}
		p.free <- &p.batches[i]
	}
	return p
}

// start launches the stage's helper, which generates rounds mutants of
// base with m. Until join, m belongs to the helper.
//
//bigmap:hotpath once per havoc stage, ahead of the stage's executions
func (p *havocPipe) start(m mutantSource, base []byte, rounds int) {
	p.stop.Store(false)
	p.running = true
	go p.generate(m, base, rounds) //bigmap:alloc-ok one helper goroutine per havoc stage, hundreds of executions apart
}

// generate is the helper goroutine: it calls Havoc exactly rounds times, in
// batches, unless stopped, and records runs while no batch is free and once
// every mutant is made. Every exit, a panic included, hands its batch back,
// gives up a run it was recording and reports on done.
//
//bigmap:hotpath the havoc pipeline's helper: one Havoc call per havoc execution
func (p *havocPipe) generate(m mutantSource, base []byte, rounds int) {
	var b *mutantBatch
	defer func() {
		r := recover()
		if p.recording != nil {
			p.recording.Store(claimInline)
			p.recording = nil
		}
		if b != nil {
			p.free <- b
		}
		p.done <- r
	}()
	p.nwin = 0
	src := m.Source()
	size := firstMutantBatch
	for made := 0; made < rounds; {
		if len(p.free) == 0 {
			p.record(true)
		}
		b = <-p.free
		if p.stop.Load() {
			return
		}
		n := min(size, rounds-made)
		data := b.data[:0]
		for k := 0; k < n; k++ {
			data = append(data, m.Havoc(base)...) //bigmap:alloc-ok amortized growth: a batch keeps its largest capacity across stages
			b.ends[k] = len(data)
			b.states[k] = src.State()
			b.claims[k].Store(claimFree)
		}
		b.data, b.n, b.used, b.spent = data, n, 0, false
		p.admit(b)
		made += n
		p.full <- b // never blocks: full holds the whole pool
		b = nil
		size = min(2*size, maxMutantBatch)
	}
	p.record(false)
}

// admit appends b to the window as its newest batch, dropping b's earlier
// place in it: a batch comes back free only once the fuzzer goroutine has
// gone through it.
func (p *havocPipe) admit(b *mutantBatch) {
	for i := 0; i < p.nwin; i++ {
		if p.window[i] == b {
			copy(p.window[i:p.nwin], p.window[i+1:p.nwin])
			p.nwin--
			break
		}
	}
	p.window[p.nwin] = b
	p.nwin++
}

// record is the helper's claim walk. From the newest mutant backwards it
// claims every mutant nobody has claimed and records its run, passing over
// its own earlier claims and batches whose arena a run outgrew, until it
// meets a mutant the fuzzer goroutine claimed, a batch comes free while
// mutants remain to be made (generating), or stop is set.
func (p *havocPipe) record(generating bool) {
	if p.rec == nil {
		return
	}
	for w := p.nwin - 1; w >= 0; w-- {
		b := p.window[w]
		for k := b.n - 1; k >= 0 && !b.spent; k-- {
			if p.stop.Load() || generating && len(p.free) > 0 {
				return
			}
			c := &b.claims[k]
			if c.CompareAndSwap(claimFree, claimHelper) {
				p.recordRun(b, k)
			} else if c.Load() == claimFuzzer {
				return
			}
		}
	}
}

// recordRun records the run of mutant k, which the helper has claimed, into
// the rest of b's arena, and publishes it. A run that outgrows the arena is
// given up to the fuzzer goroutine, and b takes no more recordings.
func (p *havocPipe) recordRun(b *mutantBatch, k int) {
	p.recording = &b.claims[k]
	t0 := p.helperNs.Start()
	res, keys, ok := p.rec.Record(b.mutant(k), b.arena[b.used:b.used])
	p.helperNs.Done(t0)
	p.helperExecs.Inc()
	claim := claimInline
	if ok {
		b.runs[k] = recordedRun{res: res, keys: keys}
		b.used += len(keys)
		claim = claimRecorded
	} else {
		b.spent = true
	}
	p.recording = nil
	b.claims[k].Store(claim)
}

// next hands the evaluated batch back and returns the next filled one. A
// panic raised in the helper is re-raised here, on the fuzzer goroutine.
func (p *havocPipe) next() *mutantBatch {
	if p.held != nil {
		p.free <- p.held
		p.held = nil
	}
	for {
		select {
		case b := <-p.full:
			p.held = b
			return b
		case r := <-p.done:
			// The helper has exited; after a clean exit its remaining
			// batches are all on full.
			p.running = false
			if r != nil {
				p.reclaim()
				panic(r)
			}
		}
	}
}

// join stops the helper if it still runs, waits for it to exit and returns
// every batch to free, leaving the pipe ready for the next stage. It is
// idempotent. A panic the helper raised is re-raised on the caller.
func (p *havocPipe) join() {
	// stop is set before the held batch goes back: a helper that batch
	// wakes must see stop, or it fills the batch, finds no free one and
	// waits for ever.
	p.stop.Store(true)
	if p.held != nil {
		p.free <- p.held // wakes a helper waiting for a free batch
		p.held = nil
	}
	var r any
	if p.running {
		r = <-p.done
		p.running = false
	}
	// After a clean exit that next saw, batches may still wait on full.
	p.reclaim()
	if r != nil {
		panic(r)
	}
}

// reclaim moves filled batches back to free.
func (p *havocPipe) reclaim() {
	for len(p.full) > 0 {
		p.free <- <-p.full
	}
}

// newRecorder builds the havoc helper's recorder, with a second metric from
// Config.Metric. It returns nil, which leaves every run on the fuzzer
// goroutine, where a run is not a pure function of the program and its
// input (a fault-injected target, Config.Faults, picks faults by exec
// index) or where calibration re-executes inputs (Config.CalibrationRuns).
func (f *Fuzzer) newRecorder() runRecorder {
	if f.cfg.Faults != nil || f.cfg.CalibrationRuns > 0 {
		return nil
	}
	metric, err := f.cfg.Metric(f.cfg.MapSize)
	if err != nil {
		return nil
	}
	rec, err := f.exec.NewRecorder(metric)
	if err != nil {
		return nil
	}
	return rec
}

// havocPipelined evaluates rounds havoc mutants of base through the
// pipeline. It reports false when a RunFor deadline cut the stage short,
// with the mutator's RNG rewound to where the sequential loop would have
// left it.
func (f *Fuzzer) havocPipelined(base []byte, rounds, depth int) bool {
	if f.pipe == nil {
		f.pipe = newHavocPipe(f.newRecorder(), f.tel)
	}
	p := f.pipe
	var m mutantSource = f.mut
	if f.testMutants != nil {
		m = f.testMutants
	}
	p.start(m, base, rounds)
	defer p.join()
	var last [4]uint64 // the mutator's RNG state after the last evaluated mutant
	for i := 0; i < rounds; {
		b := p.next()
		for k := 0; k < b.n; k++ {
			if i&63 == 63 && f.pastDeadline() {
				p.join()
				f.mut.Source().SetState(last)
				return false
			}
			f.evaluate(b.mutant(k), b.take(k), "havoc", depth)
			last = b.states[k]
			i++
		}
	}
	return true
}
