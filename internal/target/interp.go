package target

// DefaultBudget is the cycle budget used when Run is given zero — the
// analogue of AFL's default exec timeout.
const DefaultBudget = 1 << 22

// maxCallDepth bounds the synthetic call stack. Generated programs have DAG
// call graphs bounded by their function count; the cap only matters for
// hand-built recursive programs, which are reported as hangs (a stack
// overflow under a timeout) instead of exhausting memory.
const maxCallDepth = 4096

// frame is one suspended caller.
type frame struct {
	cont int32  // instruction index to resume at
	site uint32 // call-site block ID (for Result.Stack)
}

// traceRingLen is the capacity of the interpreter's trace ring: big enough
// that a typical execution flushes a handful of times, small enough to stay
// resident in L1 (2kB) while the batch consumer re-walks it.
const traceRingLen = 512

// Interp executes inputs against one program. It is reusable across
// executions and owns no per-run state besides scratch buffers (the call
// stack and the trace ring are allocated once and reused); not safe for
// concurrent use.
type Interp struct {
	prog  *Program
	code  *compiled
	hook  func(Compare)
	stack []frame
	ring  []uint32 // reusable trace ring, delivered through VisitBatch
}

// NewInterp creates an interpreter for prog. The first NewInterp of a
// program compiles it; prog must not change afterwards (see Program).
func NewInterp(prog *Program) *Interp {
	return &Interp{prog: prog, code: prog.code(), ring: make([]uint32, 0, traceRingLen)}
}

// Program returns the interpreted program.
func (ip *Interp) Program() *Program { return ip.prog }

// SetCompareHook installs fn to observe every FAILED comparison (byte and
// word compares, and each switch arm tested before the selected one). This
// is the cmplog/RedQueen channel: successful comparisons are invisible, so
// the hook reports exactly the operands an input still needs. A nil fn
// removes the hook.
func (ip *Interp) SetCompareHook(fn func(Compare)) { ip.hook = fn }

// at reads one input byte; positions past the end observe zero (shorter
// inputs are implicitly zero-padded to the program's natural length).
func at(input []byte, pos int) byte {
	if pos >= 0 && pos < len(input) {
		return input[pos]
	}
	return 0
}

// Run executes input against the program under the given cycle budget
// (0 = DefaultBudget), reporting each executed block to tracer. Every block
// charges its Cost in virtual cycles (minimum one, so zero-cost hand-built
// programs cannot loop for free); exceeding the budget terminates the run
// with StatusHang, exactly like a timeout kill — partial coverage stays
// recorded.
//
// The visit stream is the ground truth every coverage backend consumes: its
// consecutive pairs are exactly the transitions CollAFL's static assignment
// enumerates (call sites are followed by the callee entry, callee Return
// blocks by the caller's continuation), so a run produces no statically
// unknown edges.
//
// Block IDs are buffered in the interpreter's trace ring and delivered
// through VisitBatch — one virtual call per ring's worth of blocks instead
// of one per block. The ring is flushed before returning and, unless the
// tracer is call-blind, around call events (see Tracer).
//
// The loop runs the program's compiled form (compile.go): one flat
// instruction array with absolute targets, where index 0 is the sentinel
// every out-of-range target resolves to.
//
//bigmap:hotpath the target execution loop itself
func (ip *Interp) Run(input []byte, tracer Tracer, budget uint64) Result {
	if budget == 0 {
		budget = DefaultBudget
	}
	var res Result
	c := ip.code
	code, words, arms := c.code, c.words, c.arms
	stack := ip.stack[:0]
	var cycles uint64
	visits := 0
	status := StatusOK

	callEvents := !tracer.CallBlind()
	ring := ip.ring[:0]

	// Every exit sets status (and cycles, for hangs) and breaks out of the
	// loop; reaching the sentinel ends the run cleanly.
	pc := c.entry
exec:
	for pc != 0 {
		in := &code[pc]
		cycles += in.cost
		if cycles > budget {
			cycles = budget
			status = StatusHang
			break
		}
		if len(ring) == cap(ring) {
			tracer.VisitBatch(ring)
			ring = ring[:0]
		}
		ring = append(ring, in.id) //bigmap:alloc-ok never reallocates: the ring is flushed at capacity on the line above
		visits++

		switch in.op {
		case opJump:
			pc = in.a

		case opCompareByte:
			if at(input, in.arg) == byte(in.val) {
				pc = in.a
			} else {
				if ip.hook != nil {
					ip.hook(Compare{Pos: in.arg, Val: uint64(byte(in.val)), Width: 1})
				}
				pc = in.b
			}

		case opCompareWord:
			w := &words[in.arg]
			var got uint64
			for i := 0; i < w.width; i++ {
				got |= uint64(at(input, w.pos+i)) << (8 * i)
			}
			if got == w.want {
				pc = in.a
			} else {
				if ip.hook != nil {
					ip.hook(Compare{Pos: w.pos, Val: w.want, Width: w.width})
				}
				pc = in.b
			}

		case opSwitch:
			got := at(input, in.arg)
			k := in.a
			for ; k < in.b; k++ {
				if got == arms[k].value {
					break
				}
				if ip.hook != nil {
					ip.hook(Compare{Pos: in.arg, Val: uint64(arms[k].value), Width: 1})
				}
			}
			pc = arms[k].target // arms[in.b] is the default

		case opSelfLoop:
			// input[Pos] % bound extra iterations of this block: the tight
			// back edge re-visits the same ID, then control exits to a.
			if in.val > 0 {
				n := int(at(input, in.arg)) % int(in.val)
				for i := 0; i < n; i++ {
					cycles += in.cost
					if cycles > budget {
						cycles = budget
						status = StatusHang
						break exec
					}
					if len(ring) == cap(ring) {
						tracer.VisitBatch(ring)
						ring = ring[:0]
					}
					ring = append(ring, in.id) //bigmap:alloc-ok never reallocates: the ring is flushed at capacity on the line above
					visits++
				}
			}
			pc = in.a

		case opCall:
			if len(stack) >= maxCallDepth {
				cycles = budget
				status = StatusHang
				break exec
			}
			stack = append(stack, frame{cont: in.b, site: in.id}) //bigmap:alloc-ok bounded by maxCallDepth and reuses ip.stack backing across runs
			if callEvents {
				if len(ring) > 0 {
					tracer.VisitBatch(ring) // keep visit/EnterCall order
					ring = ring[:0]
				}
				tracer.EnterCall(in.id)
			}
			pc = in.a

		case opCrash:
			res.CrashSite = in.id
			status = StatusCrash
			break exec

		case opHang:
			// An infinite loop under a timeout: the rest of the budget is
			// consumed with no further coverage.
			cycles = budget
			status = StatusHang
			break exec

		case opReturn:
			if len(stack) == 0 {
				break exec
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if callEvents {
				if len(ring) > 0 {
					tracer.VisitBatch(ring) // keep visit/LeaveCall order
					ring = ring[:0]
				}
				tracer.LeaveCall()
			}
			pc = top.cont

		default: // opEnd
			break exec
		}
	}

	if len(ring) > 0 {
		tracer.VisitBatch(ring)
	}
	ip.ring = ring[:0]
	res.Status = status
	res.Cycles = cycles
	res.Blocks = visits
	if len(stack) > 0 {
		res.Stack = make([]uint32, len(stack)) //bigmap:alloc-ok abnormal-exit reporting: a clean run ends with an empty call stack
		for i := range stack {
			res.Stack[i] = stack[i].site
		}
	}
	ip.stack = stack[:0]
	return res
}
