package target

import (
	"fmt"

	"github.com/bigmap/bigmap/internal/rng"
)

// GenSpec parameterizes program generation. Zero values mean "none" for the
// feature counts and pick conservative defaults for the shape knobs.
type GenSpec struct {
	// Name labels the generated program.
	Name string
	// Seed drives all generation randomness; the same spec always yields
	// the identical program.
	Seed uint64
	// NumFuncs and BlocksPerFunc size the CFG. Functions beyond the first
	// are wired into a DAG call graph with exactly one call site per
	// callee, so every function is reachable and traces stay linear.
	NumFuncs      int
	BlocksPerFunc int
	// InputLen is the natural input length; all comparison positions fall
	// inside it.
	InputLen int
	// BranchFraction is the probability that a filler block is a
	// data-dependent two-way branch rather than a jump.
	BranchFraction float64
	// MagicCompares plants exactly this many multi-byte KindCompareWord
	// roadblocks with random (all-bytes-nonzero) operands of MagicWidth
	// bytes — the laf-intel/cmplog material.
	MagicCompares int
	MagicWidth    int
	// BonusBlocks is coverage reachable only by matching magic compares,
	// split across them: the reward for solving a roadblock.
	BonusBlocks int
	// GatedCallFraction guards this fraction of call sites behind a
	// one-byte compare, hiding whole call subtrees from inputs that miss
	// the byte — the skewed branch reachability rare-branch work needs.
	GatedCallFraction float64
	// Switches plants KindSwitch nodes with SwitchFanout arms each.
	Switches     int
	SwitchFanout int
	// Loops plants KindSelfLoop nodes iterating input-dependent counts up
	// to LoopMax.
	Loops   int
	LoopMax int
	// CrashSites plants KindCrash blocks, each behind a chain of
	// CrashDepth one-byte guards with nonzero wanted values (an all-zero
	// input is always benign). HangSites plants KindHang blocks behind
	// the same guard shape.
	CrashSites int
	CrashDepth int
	HangSites  int
}

// feature kinds the generator embeds into a function's block chain.
const (
	featCall = iota
	featMagic
	featSwitch
	featLoop
	featCrash
	featHang
)

type feature struct {
	kind    int
	callee  int  // featCall: callee function index
	gated   bool // featCall: reachable only past a byte-compare check
	bonus   int  // featMagic: gated bonus blocks
	start   int  // first chain slot (laid out per function)
	special int  // first special-region slot (crash/hang/bonus)
}

// Generate builds a program from spec. Generation is deterministic in the
// spec; structural invariants (relied on across the tree, notably by the
// CollAFL static assignment and the laf-intel transformation):
//
//   - every block ID is globally unique and nonzero;
//   - every intra-function target is a strictly forward block index;
//   - every call site targets a strictly higher function index, and each
//     function above the entry has exactly one call site;
//   - an all-zero input runs to completion (crash, hang and bonus regions
//     sit behind nonzero guard bytes).
func Generate(spec GenSpec) (*Program, error) {
	if spec.NumFuncs < 1 {
		return nil, fmt.Errorf("target: NumFuncs = %d, need >= 1", spec.NumFuncs)
	}
	if spec.BlocksPerFunc < 2 {
		return nil, fmt.Errorf("target: BlocksPerFunc = %d, need >= 2", spec.BlocksPerFunc)
	}
	if spec.InputLen < 1 {
		return nil, fmt.Errorf("target: InputLen = %d, need >= 1", spec.InputLen)
	}
	width := spec.MagicWidth
	if width < 2 {
		width = 4
	}
	if width > 8 {
		width = 8
	}
	if width > spec.InputLen {
		width = spec.InputLen
	}
	fanout := spec.SwitchFanout
	if fanout < 1 {
		fanout = 2
	}
	if fanout > 32 {
		fanout = 32
	}
	loopMax := spec.LoopMax
	if loopMax < 2 {
		loopMax = 8
	}
	if loopMax > 255 {
		loopMax = 255
	}
	depth := spec.CrashDepth
	if depth < 1 {
		depth = 1
	}
	branch := clamp01(spec.BranchFraction)
	gated := clamp01(spec.GatedCallFraction)

	src := rng.New(spec.Seed ^ 0x7a9c0de5eed)
	nf := spec.NumFuncs

	// Assign features to functions. One call site per callee keeps every
	// function reachable exactly once per trace (DAG, linear traces).
	plans := make([][]feature, nf)
	for callee := 1; callee < nf; callee++ {
		caller := src.Intn(callee)
		plans[caller] = append(plans[caller], feature{
			kind:   featCall,
			callee: callee,
			gated:  src.Float64() < gated,
		})
	}
	sprinkle := func(kind, count int) {
		for i := 0; i < count; i++ {
			fi := src.Intn(nf)
			plans[fi] = append(plans[fi], feature{kind: kind})
		}
	}
	sprinkle(featMagic, spec.MagicCompares)
	sprinkle(featSwitch, spec.Switches)
	sprinkle(featLoop, spec.Loops)
	sprinkle(featCrash, spec.CrashSites)
	sprinkle(featHang, spec.HangSites)

	// Split the bonus region across the magic compares, in plan order.
	if spec.MagicCompares > 0 && spec.BonusBlocks > 0 {
		base := spec.BonusBlocks / spec.MagicCompares
		extra := spec.BonusBlocks % spec.MagicCompares
		seen := 0
		for fi := range plans {
			for i := range plans[fi] {
				if plans[fi][i].kind != featMagic {
					continue
				}
				share := base
				if seen < extra {
					share++
				}
				plans[fi][i].bonus = share
				seen++
			}
		}
	}

	prog := &Program{Name: spec.Name, InputLen: spec.InputLen, Funcs: make([]Func, nf)}
	for fi := range plans {
		prog.Funcs[fi] = genFunc(src, spec, plans[fi], branch, width, fanout, loopMax, depth)
	}

	// Globally unique nonzero IDs, spread over the 32-bit space. The set is
	// sized up front: growing it block by block would take about half of
	// Generate's time.
	used := make(map[uint32]bool, prog.NumBlocks()+1)
	used[0] = true
	for fi := range prog.Funcs {
		for bi := range prog.Funcs[fi].Blocks {
			id := src.Uint32()
			for used[id] {
				id = src.Uint32()
			}
			used[id] = true
			prog.Funcs[fi].Blocks[bi].ID = id
		}
	}
	return prog, nil
}

// genFunc lays out one function: a fall-through chain of filler and feature
// blocks, a bridge jump, the special region (crash/hang blocks and bonus
// chains, reachable only through their guards), and the terminating return.
func genFunc(src *rng.Source, spec GenSpec, feats []feature, branch float64, width, fanout, loopMax, depth int) Func {
	src.Shuffle(len(feats), func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })

	slots := func(f *feature) int {
		switch f.kind {
		case featCall:
			if f.gated {
				return 2
			}
			return 1
		case featCrash, featHang:
			return depth
		default:
			return 1
		}
	}
	needed := 0
	for i := range feats {
		needed += slots(&feats[i])
	}
	fillers := spec.BlocksPerFunc - 2 - needed
	if fillers < 0 {
		fillers = 0
	}

	// Distribute the fillers into the gaps around the features.
	gaps := make([]int, len(feats)+1)
	for i := 0; i < fillers; i++ {
		gaps[src.Intn(len(gaps))]++
	}

	// Layout pass: chain slot of every feature, then the special region.
	idx := 0
	for i := range feats {
		idx += gaps[i]
		feats[i].start = idx
		idx += slots(&feats[i])
	}
	idx += gaps[len(feats)]
	bridge := idx
	chainLen := bridge + 1
	special := chainLen
	for i := range feats {
		switch feats[i].kind {
		case featCrash, featHang:
			feats[i].special = special
			special++
		case featMagic:
			if feats[i].bonus > 0 {
				feats[i].special = special
				special += feats[i].bonus
			}
		}
	}
	ret := special

	blocks := make([]Block, ret+1)
	for i := range blocks {
		blocks[i].Cost = 1
	}

	// fwd picks a strictly forward destination: a later chain slot or the
	// return block — never the guarded special region.
	fwd := func(i int) int {
		j := i + 1 + src.Intn(chainLen-i)
		if j >= chainLen {
			j = ret
		}
		return j
	}
	pos := func() int { return src.Intn(spec.InputLen) }
	guardVal := func() uint64 { return uint64(1 + src.Intn(255)) }

	filler := func(i, next int) Node {
		if src.Float64() < branch {
			return Node{Kind: KindCompareByte, Pos: pos(), Val: guardVal(), A: fwd(i), B: next}
		}
		return Node{Kind: KindJump, A: next}
	}

	// Emission pass, in layout order so the rng stream stays aligned.
	idx = 0
	emitFillers := func(n int) {
		for ; n > 0; n-- {
			blocks[idx].Node = filler(idx, idx+1)
			idx++
		}
	}
	for i := range feats {
		emitFillers(gaps[i])
		f := &feats[i]
		next := f.start + slots(f)
		switch f.kind {
		case featCall:
			if f.gated {
				blocks[idx].Node = Node{Kind: KindCompareByte, Pos: pos(), Val: guardVal(), A: idx + 1, B: next}
				idx++
			}
			blocks[idx].Node = Node{Kind: KindCall, A: f.callee, B: next}
			idx++
		case featMagic:
			val := uint64(0)
			for b := 0; b < width; b++ {
				val |= uint64(1+src.Intn(255)) << (8 * b)
			}
			dest := f.special
			if f.bonus == 0 {
				dest = fwd(idx)
			}
			blocks[idx].Node = Node{
				Kind:  KindCompareWord,
				Pos:   src.Intn(spec.InputLen - width + 1),
				Val:   val,
				Width: width,
				A:     dest,
				B:     next,
			}
			idx++
		case featSwitch:
			values := make(map[byte]bool)
			cases := make([]SwitchCase, 0, fanout)
			for len(cases) < fanout {
				v := byte(1 + src.Intn(255))
				if values[v] {
					continue
				}
				values[v] = true
				cases = append(cases, SwitchCase{Value: v, Target: fwd(idx)})
			}
			blocks[idx].Node = Node{Kind: KindSwitch, Pos: pos(), B: next, Cases: cases}
			idx++
		case featLoop:
			blocks[idx].Node = Node{Kind: KindSelfLoop, Pos: pos(), Val: uint64(loopMax), A: next}
			idx++
		case featCrash, featHang:
			for g := 0; g < depth; g++ {
				hit := idx + 1
				if g == depth-1 {
					hit = f.special
				}
				blocks[idx].Node = Node{Kind: KindCompareByte, Pos: pos(), Val: guardVal(), A: hit, B: next}
				idx++
			}
			kind := KindCrash
			if f.kind == featHang {
				kind = KindHang
			}
			blocks[f.special].Node = Node{Kind: kind}
		}
	}
	emitFillers(gaps[len(feats)])

	blocks[bridge].Node = Node{Kind: KindJump, A: ret}

	// Bonus chains: linear jump runs ending at the return block.
	for i := range feats {
		f := &feats[i]
		if f.kind != featMagic || f.bonus == 0 {
			continue
		}
		for j := 0; j < f.bonus; j++ {
			dest := f.special + j + 1
			if j == f.bonus-1 {
				dest = ret
			}
			blocks[f.special+j].Node = Node{Kind: KindJump, A: dest}
		}
	}

	blocks[ret].Node = Node{Kind: KindReturn}
	return Func{Blocks: blocks}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
