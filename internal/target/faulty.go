package target

// Fault-injecting target wrapper: the synthetic equivalent of a noisy,
// nondeterministic instrumented binary. Real 24-hour campaigns run against
// targets whose coverage is not a pure function of the input — uninitialized
// memory, ASLR-dependent hashes and interrupted syscalls make edges flicker,
// timeouts misfire, and the occasional run dies for reasons unrelated to the
// input. Faulty reproduces those failure modes deterministically: every fault
// decision is a pure function of (profile seed, execution index), so a
// campaign against a Faulty target is exactly reproducible from its seed and
// checkpoint/resume stays bit-identical as long as the execution counter is
// restored (see ExecCount).

// SpuriousCrashSite is the CrashSite reported for injected (fake) crashes.
// No generated program uses this block ID, so triage tooling can recognize
// injected verdicts.
const SpuriousCrashSite = ^uint32(0)

// FaultProfile parameterizes fault injection. The zero value injects
// nothing; each field enables one fault class.
type FaultProfile struct {
	// Seed drives all fault decisions. Two Faulty wrappers with the same
	// profile inject exactly the same faults at the same execution indexes.
	Seed uint64
	// FlakyEdgeFraction is the fraction of basic blocks (per mille, 0-1000)
	// whose visit events are dropped on some executions — coverage that
	// appears only sometimes, the way racy instrumentation behaves.
	FlakyEdgeFraction int
	// DropRate is the per-execution probability (per mille) that this
	// execution suppresses its flaky blocks.
	DropRate int
	// SpuriousCrashRate is the per-execution probability (per mille) that a
	// clean run is misreported as a crash at SpuriousCrashSite.
	SpuriousCrashRate int
	// SpuriousHangRate is the per-execution probability (per mille) that a
	// clean run is misreported as a budget-exhausting hang.
	SpuriousHangRate int
	// CycleJitterPct perturbs the reported cycle count by up to ±this
	// percentage, simulating scheduling noise in execution-time measurement.
	CycleJitterPct int
}

// enabled reports whether the profile injects anything at all.
func (p FaultProfile) enabled() bool {
	return p.FlakyEdgeFraction > 0 || p.SpuriousCrashRate > 0 ||
		p.SpuriousHangRate > 0 || p.CycleJitterPct > 0
}

// Faulty wraps an interpreter and injects faults per FaultProfile. It
// implements Runner, so it slots into the executor wherever the plain
// interpreter would. Not safe for concurrent use.
type Faulty struct {
	interp *Interp
	prof   FaultProfile
	flaky  map[uint32]bool // block IDs subject to visit dropping
	execs  uint64          // execution index, drives per-exec decisions
	drop   dropTracer      // reusable tracer wrapper
}

var _ Runner = (*Faulty)(nil)

// NewFaulty creates a fault-injecting runner for prog. The flaky block set
// is chosen up front from the profile seed, so it is stable for the lifetime
// of the wrapper (a given edge is either reliable or flaky, as with a real
// racy instrumentation site).
func NewFaulty(prog *Program, prof FaultProfile) *Faulty {
	f := &Faulty{
		interp: NewInterp(prog),
		prof:   prof,
		flaky:  make(map[uint32]bool),
	}
	if prof.FlakyEdgeFraction > 0 {
		for fi := range prog.Funcs {
			for bi := range prog.Funcs[fi].Blocks {
				id := prog.Funcs[fi].Blocks[bi].ID
				if int(splitmix(prof.Seed^uint64(id))%1000) < prof.FlakyEdgeFraction {
					f.flaky[id] = true
				}
			}
		}
	}
	return f
}

// Program returns the wrapped program.
func (f *Faulty) Program() *Program { return f.interp.Program() }

// Profile returns the fault profile in effect.
func (f *Faulty) Profile() FaultProfile { return f.prof }

// FlakyBlocks returns how many block IDs are subject to visit dropping.
func (f *Faulty) FlakyBlocks() int { return len(f.flaky) }

// ExecCount returns the execution index: how many runs this wrapper has
// performed. Checkpoints persist it so fault decisions replay identically
// after a resume.
func (f *Faulty) ExecCount() uint64 { return f.execs }

// SetExecCount restores the execution index from a checkpoint.
func (f *Faulty) SetExecCount(n uint64) { f.execs = n }

// Run executes input, perturbing the run per the fault profile. All
// decisions derive from splitmix64 over (seed, execution index), one
// independent stream per fault class so the classes do not correlate.
func (f *Faulty) Run(input []byte, tracer Tracer, budget uint64) Result {
	n := f.execs
	f.execs++
	if !f.prof.enabled() {
		return f.interp.Run(input, tracer, budget)
	}

	if len(f.flaky) > 0 && f.decide(n, 0x01, f.prof.DropRate) {
		f.drop.inner = tracer
		f.drop.flaky = f.flaky
		tracer = &f.drop
		defer func() { f.drop.inner = nil }()
	}

	res := f.interp.Run(input, tracer, budget)

	if f.prof.CycleJitterPct > 0 && res.Cycles > 0 {
		span := 2*f.prof.CycleJitterPct + 1
		pct := 100 + int(splitmix(f.prof.Seed^n<<8^0x02)%uint64(span)) - f.prof.CycleJitterPct
		res.Cycles = res.Cycles * uint64(pct) / 100
		if res.Cycles == 0 {
			res.Cycles = 1
		}
	}

	if res.Status == StatusOK {
		switch {
		case f.decide(n, 0x03, f.prof.SpuriousCrashRate):
			res.Status = StatusCrash
			res.CrashSite = SpuriousCrashSite
		case f.decide(n, 0x04, f.prof.SpuriousHangRate):
			res.Status = StatusHang
			if budget == 0 {
				budget = DefaultBudget
			}
			res.Cycles = budget
		}
	}
	return res
}

// decide draws one per-mille fault decision for execution n on stream tag.
func (f *Faulty) decide(n uint64, tag uint64, rate int) bool {
	if rate <= 0 {
		return false
	}
	return int(splitmix(f.prof.Seed^n<<8^tag)%1000) < rate
}

// splitmix is splitmix64: one well-mixed 64-bit output per input, used so
// every fault decision is an independent pure function of its inputs.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// dropTracer filters flaky block visits out of the event stream before they
// reach the real tracer. Dropping a visit also changes the next edge key the
// metric derives (its previous-block state goes stale), which is exactly how
// lost instrumentation events corrupt edge coverage in a real binary.
type dropTracer struct {
	inner   Tracer
	flaky   map[uint32]bool
	scratch []uint32
}

var _ Tracer = (*dropTracer)(nil)

// VisitBatch filters the batch into a scratch buffer and forwards it.
func (d *dropTracer) VisitBatch(blocks []uint32) {
	kept := d.scratch[:0]
	for _, b := range blocks {
		if !d.flaky[b] {
			kept = append(kept, b) //bigmap:alloc-ok fault-injection wrapper for robustness experiments; scratch reaches ring capacity after the first batch
		}
	}
	d.scratch = kept[:0]
	if len(kept) > 0 {
		d.inner.VisitBatch(kept)
	}
}

func (d *dropTracer) EnterCall(site uint32) { d.inner.EnterCall(site) }
func (d *dropTracer) LeaveCall()            { d.inner.LeaveCall() }

// CallBlind forwards the inner tracer's answer: dropping visits does not
// change whether the consumer needs call events.
func (d *dropTracer) CallBlind() bool { return d.inner.CallBlind() }
