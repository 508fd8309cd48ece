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
	fn   int    // caller function index
	cont int    // caller block index to resume at
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
	hook  func(Compare)
	stack []frame
	ring  []uint32 // reusable trace ring for BatchTracer consumers
}

// NewInterp creates an interpreter for prog.
func NewInterp(prog *Program) *Interp {
	return &Interp{prog: prog}
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
// The Visit stream is the ground truth every coverage backend consumes: its
// consecutive pairs are exactly the transitions CollAFL's static assignment
// enumerates (call sites are followed by the callee entry, callee Return
// blocks by the caller's continuation), so a run produces no statically
// unknown edges.
//
// When tracer implements BatchTracer, block IDs are buffered in the
// interpreter's trace ring and delivered through VisitBatch — one virtual
// call per ring's worth of blocks instead of one per block. The ring is
// flushed around call events and before returning, so batch consumers see
// the same event order (see BatchTracer). A CallBlindTracer that reports
// CallBlind gets no call events and no flushes around them.
//
//bigmap:hotpath the target execution loop itself
func (ip *Interp) Run(input []byte, tracer Tracer, budget uint64) Result {
	if budget == 0 {
		budget = DefaultBudget
	}
	var res Result
	prog := ip.prog
	if len(prog.Funcs) == 0 || len(prog.Funcs[0].Blocks) == 0 {
		return res
	}
	stack := ip.stack[:0]
	var cycles uint64
	visits := 0
	status := StatusOK
	// blocks is the current function's block list; it changes only on call
	// and return, where fn changes with it.
	fn, bi := 0, 0
	blocks := prog.Funcs[0].Blocks

	bt, batched := tracer.(BatchTracer)
	callEvents := true
	if cb, ok := tracer.(CallBlindTracer); ok && cb.CallBlind() {
		callEvents = false
	}
	if batched && cap(ip.ring) == 0 {
		ip.ring = make([]uint32, 0, traceRingLen) //bigmap:alloc-ok one-time lazy ring allocation, reused across every subsequent run
	}
	ring := ip.ring[:0]

	// Every exit sets status (and cycles, for hangs) and breaks out of the
	// loop; an out-of-range block index ends the run cleanly.
exec:
	for bi >= 0 && bi < len(blocks) {
		blk := &blocks[bi]
		cost := blk.Cost
		if cost == 0 {
			cost = 1 // zero-cost hand-built programs cannot loop for free
		}
		cycles += cost
		if cycles > budget {
			cycles = budget
			status = StatusHang
			break
		}
		if batched {
			if len(ring) == cap(ring) {
				bt.VisitBatch(ring)
				ring = ring[:0]
			}
			ring = append(ring, blk.ID) //bigmap:alloc-ok never reallocates: the ring is flushed at capacity on the line above
		} else {
			tracer.Visit(blk.ID)
		}
		visits++

		nd := &blk.Node
		switch nd.Kind {
		case KindJump:
			bi = nd.A

		case KindCompareByte:
			if at(input, nd.Pos) == byte(nd.Val) {
				bi = nd.A
			} else {
				if ip.hook != nil {
					ip.hook(Compare{Pos: nd.Pos, Val: uint64(byte(nd.Val)), Width: 1})
				}
				bi = nd.B
			}

		case KindCompareWord:
			w := nd.Width
			if w < 1 {
				w = 1
			} else if w > 8 {
				w = 8
			}
			var got uint64
			for i := 0; i < w; i++ {
				got |= uint64(at(input, nd.Pos+i)) << (8 * i)
			}
			want := nd.Val
			if w < 8 {
				want &= 1<<(8*w) - 1
			}
			if got == want {
				bi = nd.A
			} else {
				if ip.hook != nil {
					ip.hook(Compare{Pos: nd.Pos, Val: want, Width: w})
				}
				bi = nd.B
			}

		case KindSwitch:
			got := at(input, nd.Pos)
			next := nd.B
			for i := range nd.Cases {
				if got == nd.Cases[i].Value {
					next = nd.Cases[i].Target
					break
				}
				if ip.hook != nil {
					ip.hook(Compare{Pos: nd.Pos, Val: uint64(nd.Cases[i].Value), Width: 1})
				}
			}
			bi = next

		case KindSelfLoop:
			// input[Pos] % Val extra iterations of this block: the tight
			// back edge re-visits the same ID, then control exits to A.
			if bound := int64(nd.Val); bound > 0 {
				n := int(int64(at(input, nd.Pos)) % bound)
				for i := 0; i < n; i++ {
					cycles += cost
					if cycles > budget {
						cycles = budget
						status = StatusHang
						break exec
					}
					if batched {
						if len(ring) == cap(ring) {
							bt.VisitBatch(ring)
							ring = ring[:0]
						}
						ring = append(ring, blk.ID) //bigmap:alloc-ok never reallocates: the ring is flushed at capacity on the line above
					} else {
						tracer.Visit(blk.ID)
					}
					visits++
				}
			}
			bi = nd.A

		case KindCall:
			callee := nd.A
			if callee < 0 || callee >= len(prog.Funcs) || len(prog.Funcs[callee].Blocks) == 0 {
				bi = nd.B // degenerate call: fall through to the continuation
				break
			}
			if len(stack) >= maxCallDepth {
				cycles = budget
				status = StatusHang
				break exec
			}
			stack = append(stack, frame{fn: fn, cont: nd.B, site: blk.ID}) //bigmap:alloc-ok bounded by maxCallDepth and reuses ip.stack backing across runs
			if callEvents {
				if batched && len(ring) > 0 {
					bt.VisitBatch(ring) // keep Visit/EnterCall order for batch consumers
					ring = ring[:0]
				}
				tracer.EnterCall(blk.ID)
			}
			fn, bi = callee, 0
			blocks = prog.Funcs[fn].Blocks

		case KindCrash:
			res.CrashSite = blk.ID
			status = StatusCrash
			break exec

		case KindHang:
			// An infinite loop under a timeout: the rest of the budget is
			// consumed with no further coverage.
			cycles = budget
			status = StatusHang
			break exec

		case KindReturn:
			if len(stack) == 0 {
				break exec
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if callEvents {
				if batched && len(ring) > 0 {
					bt.VisitBatch(ring) // keep Visit/LeaveCall order for batch consumers
					ring = ring[:0]
				}
				tracer.LeaveCall()
			}
			fn, bi = top.fn, top.cont
			blocks = prog.Funcs[fn].Blocks

		default:
			break exec
		}
	}

	if batched {
		if len(ring) > 0 {
			bt.VisitBatch(ring)
		}
		ip.ring = ring[:0]
	}
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
