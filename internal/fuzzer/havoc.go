package fuzzer

import (
	"sync/atomic"

	"github.com/bigmap/bigmap/internal/rng"
)

// The havoc stage's mutants are a pure function of the mutator's RNG, the
// entry's input and the dictionary: with adaptive havoc off, no execution
// result feeds back into them. So the stage runs as a two-stage pipeline. A
// helper goroutine owns the mutator for the whole stage and generates the
// mutants a batch ahead into a fixed pool of reusable batches, recording the
// mutator's RNG state after each one. The fuzzer goroutine evaluates them in
// order and never touches the mutator during the stage. Mutants, RNG draws,
// queue, virgin maps and checkpoints are those of the sequential loop; a
// RunFor cut joins the helper and rewinds the RNG to the state after the
// last evaluated mutant (DESIGN §13.3).

const (
	// firstMutantBatch is the helper's first batch size; each later batch
	// doubles up to maxMutantBatch. A small first batch starts the fuzzer
	// goroutine early; large later batches hide goroutine wake-up latency.
	firstMutantBatch = 16
	maxMutantBatch   = 128
	// mutantBatches is the pool size: the helper runs up to this many
	// batches ahead of the fuzzer goroutine.
	mutantBatches = 4
)

// mutantSource is what the helper uses of the mutator. *mutation.Mutator
// is its one implementation outside tests; the interface is the seam through
// which a test makes generation panic.
type mutantSource interface {
	Havoc(base []byte) []byte
	Source() *rng.Source
}

// mutantBatch holds up to maxMutantBatch consecutive havoc mutants,
// concatenated in data, and the mutator's RNG state after each.
type mutantBatch struct {
	data   []byte
	n      int
	ends   [maxMutantBatch]int
	states [maxMutantBatch][4]uint64
}

// mutant returns the k-th mutant, capped so an append cannot reach the next.
func (b *mutantBatch) mutant(k int) []byte {
	start := 0
	if k > 0 {
		start = b.ends[k-1]
	}
	return b.data[start:b.ends[k]:b.ends[k]]
}

// havocPipe is an instance's havoc pipeline, reused across stages. Between
// stages every batch is on free, full is empty and no helper runs. The
// fields below the channels belong to the fuzzer goroutine.
type havocPipe struct {
	batches [mutantBatches]mutantBatch
	free    chan *mutantBatch // batches the helper may fill
	full    chan *mutantBatch // filled batches, in stage order
	done    chan any          // the helper's exit: nil, or the value it panicked with
	stop    atomic.Bool       // asks the helper to quit before its next batch

	running bool         // a helper was started and has not been joined
	held    *mutantBatch // the batch the fuzzer goroutine is evaluating
}

func newHavocPipe() *havocPipe {
	p := &havocPipe{
		free: make(chan *mutantBatch, mutantBatches),
		full: make(chan *mutantBatch, mutantBatches),
		done: make(chan any, 1),
	}
	for i := range p.batches {
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
// batches, unless stopped. Every exit, a panic included, hands its batch
// back and reports on done.
//
//bigmap:hotpath the havoc pipeline's helper: one Havoc call per havoc execution
func (p *havocPipe) generate(m mutantSource, base []byte, rounds int) {
	var b *mutantBatch
	defer func() {
		r := recover()
		if b != nil {
			p.free <- b
		}
		p.done <- r
	}()
	src := m.Source()
	size := firstMutantBatch
	for made := 0; made < rounds; {
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
		}
		b.data, b.n = data, n
		made += n
		p.full <- b // never blocks: full holds the whole pool
		b = nil
		size = min(2*size, maxMutantBatch)
	}
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
	if p.held != nil {
		p.free <- p.held // wakes a helper waiting for a free batch
		p.held = nil
	}
	if !p.running {
		return
	}
	p.stop.Store(true)
	r := <-p.done
	p.running = false
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

// havocPipelined evaluates rounds havoc mutants of base through the
// pipeline. It reports false when a RunFor deadline cut the stage short,
// with the mutator's RNG rewound to where the sequential loop would have
// left it.
func (f *Fuzzer) havocPipelined(base []byte, rounds, depth int) bool {
	if f.pipe == nil {
		f.pipe = newHavocPipe()
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
			f.evaluate(b.mutant(k), "havoc", depth)
			last = b.states[k]
			i++
		}
	}
	return true
}

// havocAdaptive is the sequential havoc loop adaptive havoc needs: the
// operator weights of each mutant depend on the reward of the one before.
// It reports false when a RunFor deadline cut the stage short.
func (f *Fuzzer) havocAdaptive(base []byte, rounds, depth int) bool {
	for i := 0; i < rounds; i++ {
		if i&63 == 63 && f.pastDeadline() {
			return false
		}
		before := f.queue.Len()
		f.evaluate(f.mut.Havoc(base), "havoc", depth)
		f.mut.RewardLast(f.queue.Len() > before)
	}
	return true
}
