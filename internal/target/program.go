// Package target implements the synthetic fuzzing target the whole
// reproduction executes against: a deterministic interpreter over small
// control-flow-graph programs, plus a seeded generator that shapes those
// programs after the paper's benchmarks (Table II) and LLVM-pass harnesses
// (Table III).
//
// The substitution rule (DESIGN.md) is that everything the paper measures
// about coverage maps depends only on the *stream of basic-block events* a
// target emits, not on what the target computes. A program here is a list of
// functions, each a list of blocks; every block carries a globally unique
// nonzero 32-bit ID (standing in for an instrumented basic block address)
// and a typed node describing its terminator. The interpreter walks the CFG
// on an input and reports each executed block to a pluggable Tracer, so an
// AFL-style hashed map, a BigMap, a CollAFL static assignment and the exact
// edge replay of covreport all observe the identical run.
//
// Control flow is deliberately restricted so generated programs terminate by
// construction: intra-function targets are strictly forward block indexes,
// calls go to strictly higher function indexes (a DAG with one call site per
// callee), and self-loops iterate a bounded, input-derived count. The cycle
// budget exists for hand-built or adversarial programs, mirroring AFL's exec
// timeout.
package target

import (
	"sort"
	"sync"
)

// NodeKind enumerates block terminator types.
type NodeKind uint8

const (
	// KindJump transfers to block index A unconditionally.
	KindJump NodeKind = iota
	// KindCompareByte compares input[Pos] against byte(Val): match goes to
	// A, mismatch to B (and reports the failed compare to the hook).
	KindCompareByte
	// KindCompareWord compares Width little-endian input bytes at Pos
	// against Val: match goes to A, mismatch to B.
	KindCompareWord
	// KindSwitch tests input[Pos] against Cases in order; the first match
	// jumps to its Target, no match falls through to the default B.
	KindSwitch
	// KindSelfLoop re-executes its own block input[Pos] % max(Val,1) times
	// (the tight back edge), then exits to A.
	KindSelfLoop
	// KindCall invokes function A and continues at block index B of the
	// caller once the callee returns.
	KindCall
	// KindCrash terminates the run with StatusCrash at this block.
	KindCrash
	// KindHang consumes the entire remaining cycle budget (an infinite
	// loop under a timeout) and terminates with StatusHang.
	KindHang
	// KindReturn returns to the caller, or ends the run when the call
	// stack is empty.
	KindReturn
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case KindJump:
		return "jump"
	case KindCompareByte:
		return "cmp-byte"
	case KindCompareWord:
		return "cmp-word"
	case KindSwitch:
		return "switch"
	case KindSelfLoop:
		return "self-loop"
	case KindCall:
		return "call"
	case KindCrash:
		return "crash"
	case KindHang:
		return "hang"
	case KindReturn:
		return "return"
	}
	return "unknown"
}

// SwitchCase is one arm of a KindSwitch node.
type SwitchCase struct {
	// Value is the input byte that selects this arm.
	Value byte
	// Target is the block index (same function) the arm jumps to.
	Target int
}

// Node is a block terminator. Field meaning depends on Kind:
//
//	Jump:        A = target block index
//	CompareByte: Pos, Val (one byte), A = match target, B = mismatch target
//	CompareWord: Pos, Val, Width (little-endian bytes), A = match, B = mismatch
//	Switch:      Pos, Cases, B = default target
//	SelfLoop:    Pos, Val = iteration bound, A = exit target
//	Call:        A = callee function index, B = continuation block index
//	Crash/Hang/Return: no fields
type Node struct {
	Kind  NodeKind
	Pos   int
	Val   uint64
	Width int
	A     int
	B     int
	Cases []SwitchCase
}

// Block is one basic block: a unique nonzero coverage ID, a virtual cycle
// cost charged per execution, and the terminator node.
type Block struct {
	ID   uint32
	Cost uint64
	Node Node
}

// Func is an ordered list of blocks; index 0 is the function entry.
type Func struct {
	Blocks []Block
}

// Program is a complete synthetic target. Funcs[0].Blocks[0] is the program
// entry; InputLen is the natural input size (reads past the end of an input
// observe zero bytes, so shorter inputs are implicitly zero-padded).
//
// A Program must not change after its first NewInterp: the interpreter runs
// a compiled copy of Funcs (see compile.go), built once on first use and
// shared by every Interp of the program, so later edits to Funcs would not
// be seen. Build a new Program instead, as lafintel.Transform does.
type Program struct {
	Name     string
	Funcs    []Func
	InputLen int

	compileOnce sync.Once
	compiled    *compiled
}

// code returns the program's compiled form, building it on first use.
func (p *Program) code() *compiled {
	p.compileOnce.Do(func() { p.compiled = compile(p) })
	return p.compiled
}

// NumBlocks returns the total basic-block count.
func (p *Program) NumBlocks() int {
	n := 0
	for fi := range p.Funcs {
		n += len(p.Funcs[fi].Blocks)
	}
	return n
}

// StaticEdges counts the statically enumerable control-flow transitions:
// the program entry, every terminator's outgoing edges (two per compare, one
// per switch arm plus the default, the self-loop back edge plus its exit),
// call edges into callee entries, and return edges from every callee Return
// block to the call's continuation. This is the quantity Table II reports as
// "static edges" and the basis CollAFL sizes its map from.
func (p *Program) StaticEdges() int {
	if len(p.Funcs) == 0 {
		return 0
	}
	// Return-terminator count per function, for call-return edge fan-in.
	returns := make([]int, len(p.Funcs))
	for fi := range p.Funcs {
		for bi := range p.Funcs[fi].Blocks {
			if p.Funcs[fi].Blocks[bi].Node.Kind == KindReturn {
				returns[fi]++
			}
		}
	}
	edges := 0
	if len(p.Funcs[0].Blocks) > 0 {
		edges++ // entry edge from the sentinel
	}
	for fi := range p.Funcs {
		for bi := range p.Funcs[fi].Blocks {
			nd := &p.Funcs[fi].Blocks[bi].Node
			switch nd.Kind {
			case KindJump:
				edges++
			case KindCompareByte, KindCompareWord:
				edges += 2
			case KindSwitch:
				edges += 1 + len(nd.Cases)
			case KindSelfLoop:
				edges += 2
			case KindCall:
				if nd.A >= 0 && nd.A < len(p.Funcs) {
					edges++ // call edge into the callee entry
					edges += returns[nd.A]
				}
			case KindCrash, KindHang, KindReturn:
				// No outgoing edges (return edges are charged to calls).
			}
		}
	}
	return edges
}

// CrashSites returns the block IDs of every KindCrash block, ascending.
func (p *Program) CrashSites() []uint32 {
	var sites []uint32
	for fi := range p.Funcs {
		for bi := range p.Funcs[fi].Blocks {
			if p.Funcs[fi].Blocks[bi].Node.Kind == KindCrash {
				sites = append(sites, p.Funcs[fi].Blocks[bi].ID)
			}
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	return sites
}

// Status is the outcome of one execution.
type Status uint8

const (
	// StatusOK: the program ran to completion.
	StatusOK Status = iota
	// StatusCrash: a KindCrash block was reached.
	StatusCrash
	// StatusHang: the cycle budget was exhausted (or a KindHang block
	// consumed it).
	StatusHang
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusCrash:
		return "crash"
	case StatusHang:
		return "hang"
	}
	return "unknown"
}

// Result describes one execution.
type Result struct {
	// Status is the run outcome.
	Status Status
	// Cycles is the virtual cycle cost consumed (the sum of executed
	// block costs; a hang consumes the whole budget).
	Cycles uint64
	// Blocks is the number of block executions (blocks delivered through
	// the tracer's VisitBatch).
	Blocks int
	// CrashSite is the ID of the crashing block when Status is
	// StatusCrash, zero otherwise.
	CrashSite uint32
	// Stack holds the call-site block IDs active at the end of the run,
	// outermost first — the synthetic call stack crash dedup buckets on.
	Stack []uint32
}

// Compare describes one failed comparison, reported to the compare hook:
// the input position, the operand the comparison wanted, and its byte width
// (1 for byte compares and switch arms). This is the cmplog/RedQueen
// observation channel.
type Compare struct {
	Pos   int
	Val   uint64
	Width int
}

// Runner is anything that can execute inputs against a traced target: the
// interpreter itself, or a wrapper that perturbs its behaviour (see Faulty).
// The executor drives a Runner, so the whole fuzzing stack is agnostic to
// whether the target is the clean interpreter or a fault-injected one.
type Runner interface {
	// Run executes input under the cycle budget, reporting block events to
	// tracer. See Interp.Run for the full contract.
	Run(input []byte, tracer Tracer, budget uint64) Result
	// Program returns the underlying program.
	Program() *Program
}

// Tracer observes an execution: the exact block event stream coverage
// instrumentation would emit. The interpreter buffers visited block IDs in
// a reusable trace ring and delivers them through VisitBatch, one call per
// ring's worth of blocks; the slice is only valid for the duration of the
// call, and implementations must not retain it. EnterCall/LeaveCall bracket
// function calls with the call-site block ID, for context-sensitive
// metrics; they carry no edge information of their own (call and return
// transitions appear in the visit stream).
//
// Ordering contract: when CallBlind reports false, the ring is flushed
// before every EnterCall and LeaveCall, so visits and call events arrive in
// execution order. When it reports true, call events are not delivered and
// the ring is not flushed around them, so every VisitBatch but the last
// carries a full ring. Either way the concatenated visit stream is the
// same, and the ring is flushed before Run returns.
type Tracer interface {
	VisitBatch(blocks []uint32)
	EnterCall(site uint32)
	LeaveCall()
	CallBlind() bool
}

// NopTracer discards all events. It is call-blind, so a run under it pays
// one no-op call per ring of blocks and nothing per call event.
type NopTracer struct{}

// VisitBatch discards the events.
func (NopTracer) VisitBatch([]uint32) {}

// EnterCall discards the event.
func (NopTracer) EnterCall(uint32) {}

// LeaveCall discards the event.
func (NopTracer) LeaveCall() {}

// CallBlind reports true: no call events are needed.
func (NopTracer) CallBlind() bool { return true }
