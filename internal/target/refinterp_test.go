package target

// refInterp is the tree-walking interpreter Interp.Run replaced: it walks
// each function's Block slice directly instead of the compiled instruction
// array. It is kept as the reference the compiled loop is checked against
// (FuzzInterp, TestInterpMatchesReference); its behaviour is the one
// testdata/interp_golden.txt recorded.
type refInterp struct {
	prog  *Program
	hook  func(Compare)
	stack []refFrame
	ring  []uint32
}

// refFrame is one suspended caller of the reference interpreter.
type refFrame struct {
	fn   int    // caller function index
	cont int    // caller block index to resume at
	site uint32 // call-site block ID (for Result.Stack)
}

func newRefInterp(prog *Program) *refInterp {
	return &refInterp{prog: prog, ring: make([]uint32, 0, traceRingLen)}
}

func (ip *refInterp) SetCompareHook(fn func(Compare)) { ip.hook = fn }

// Run has Interp.Run's contract.
func (ip *refInterp) Run(input []byte, tracer Tracer, budget uint64) Result {
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

	callEvents := !tracer.CallBlind()
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
		if len(ring) == cap(ring) {
			tracer.VisitBatch(ring)
			ring = ring[:0]
		}
		ring = append(ring, blk.ID)
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
					if len(ring) == cap(ring) {
						tracer.VisitBatch(ring)
						ring = ring[:0]
					}
					ring = append(ring, blk.ID)
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
			stack = append(stack, refFrame{fn: fn, cont: nd.B, site: blk.ID})
			if callEvents {
				if len(ring) > 0 {
					tracer.VisitBatch(ring) // keep visit/EnterCall order
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
				if len(ring) > 0 {
					tracer.VisitBatch(ring) // keep visit/LeaveCall order
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

	if len(ring) > 0 {
		tracer.VisitBatch(ring)
	}
	ip.ring = ring[:0]
	res.Status = status
	res.Cycles = cycles
	res.Blocks = visits
	if len(stack) > 0 {
		res.Stack = make([]uint32, len(stack))
		for i := range stack {
			res.Stack[i] = stack[i].site
		}
	}
	ip.stack = stack[:0]
	return res
}
