package target

import "math"

// The compiled form: every block of a Program laid out in one flat
// instruction array, so the interpreter follows absolute indexes through a
// single contiguous slice instead of chasing per-function Block slices and
// re-deriving each node's operands on every visit.
//
// Layout: code[0] is the sentinel; Funcs[fi].Blocks[bi] is
// code[base(fi)+bi], with functions in order. Every target is resolved at
// compile time: an in-range block index becomes its absolute index, and any
// other index (negative, past the function's end, or a call to a missing
// or empty function's continuation) becomes 0, so reaching the sentinel is
// the one way a run ends on an out-of-range target. Calls hold the callee's
// entry and the caller's continuation; a call to a missing or empty
// function compiles to a jump to its continuation. Whatever the compiler
// can decide once (the minimum cost of one cycle, a word compare's width
// clamp and operand mask, a self-loop bound's sign) it decides here.

// op is a compiled instruction's operation.
type op uint8

const (
	// opEnd ends the run after visiting the block: node kinds the
	// interpreter does not know.
	opEnd op = iota
	opJump
	opCompareByte
	opCompareWord
	opSwitch
	opSelfLoop
	opCall
	opCrash
	opHang
	opReturn
)

// inst is one compiled block, 32 bytes on 64-bit platforms. Field use by op:
//
//	opJump:        a = target
//	opCompareByte: arg = input position, val = operand byte, a = match, b = mismatch
//	opCompareWord: arg = index into compiled.words, a = match, b = mismatch
//	opSwitch:      arg = input position, arms[a:b] = arms in test order, arms[b].target = default
//	opSelfLoop:    arg = input position, val = iteration bound (0: none), a = exit
//	opCall:        a = callee entry, b = caller continuation
type inst struct {
	cost uint64 // virtual cycles charged per visit, at least 1
	arg  int
	id   uint32 // the block's coverage ID
	a    int32
	b    int32
	val  uint16
	op   op
}

// wordCompare holds a word compare's operands, which do not fit an inst.
type wordCompare struct {
	pos   int
	want  uint64 // Node.Val masked to width bytes
	width int    // Node.Width clamped to [1, 8]
}

// arm is one switch arm, or a switch's default when it ends the arm run.
type arm struct {
	target int32
	value  byte
}

// compiled is a Program's flat instruction array and its side tables.
type compiled struct {
	code  []inst
	words []wordCompare
	arms  []arm
	entry int32 // index of Funcs[0].Blocks[0], or 0 for an empty entry
}

// compile lowers p into its flat form. It reads p once and keeps no
// reference to it.
func compile(p *Program) *compiled {
	base := make([]int, len(p.Funcs))
	n := 1
	for fi := range p.Funcs {
		base[fi] = n
		n += len(p.Funcs[fi].Blocks)
	}
	if n > math.MaxInt32 {
		panic("target: program has more blocks than a compiled index can address")
	}
	c := &compiled{code: make([]inst, n)}
	if len(p.Funcs) > 0 && len(p.Funcs[0].Blocks) > 0 {
		c.entry = 1
	}
	for fi := range p.Funcs {
		blocks := p.Funcs[fi].Blocks
		// abs resolves a block index of this function; out of range is the
		// sentinel.
		abs := func(t int) int32 {
			if t < 0 || t >= len(blocks) {
				return 0
			}
			return int32(base[fi] + t)
		}
		for bi := range blocks {
			blk := &blocks[bi]
			nd := &blk.Node
			in := inst{
				id:   blk.ID,
				cost: max(blk.Cost, 1), // zero-cost hand-built programs cannot loop for free
				arg:  nd.Pos,
			}
			switch nd.Kind {
			case KindJump:
				in.op, in.a = opJump, abs(nd.A)
			case KindCompareByte:
				in.op, in.val, in.a, in.b = opCompareByte, uint16(byte(nd.Val)), abs(nd.A), abs(nd.B)
			case KindCompareWord:
				w := min(max(nd.Width, 1), 8)
				want := nd.Val
				if w < 8 {
					want &= 1<<(8*w) - 1
				}
				in.op, in.arg, in.a, in.b = opCompareWord, len(c.words), abs(nd.A), abs(nd.B)
				c.words = append(c.words, wordCompare{pos: nd.Pos, want: want, width: w})
			case KindSwitch:
				in.op, in.a = opSwitch, int32(len(c.arms))
				for _, sc := range nd.Cases {
					c.arms = append(c.arms, arm{target: abs(sc.Target), value: sc.Value})
				}
				in.b = int32(len(c.arms))
				c.arms = append(c.arms, arm{target: abs(nd.B)})
			case KindSelfLoop:
				// input[Pos] % bound only differs from input[Pos] for
				// bounds below 256; a bound that is not positive as an
				// int64 never loops.
				in.op, in.a = opSelfLoop, abs(nd.A)
				if bound := int64(nd.Val); bound > 0 {
					in.val = uint16(min(bound, 256))
				}
			case KindCall:
				if nd.A < 0 || nd.A >= len(p.Funcs) || len(p.Funcs[nd.A].Blocks) == 0 {
					in.op, in.a = opJump, abs(nd.B) // degenerate call: fall through to the continuation
					break
				}
				in.op, in.a, in.b = opCall, int32(base[nd.A]), abs(nd.B)
			case KindCrash:
				in.op = opCrash
			case KindHang:
				in.op = opHang
			case KindReturn:
				in.op = opReturn
			default:
				in.op = opEnd
			}
			c.code[base[fi]+bi] = in
		}
	}
	return c
}
