package core

import "fmt"

// Metric translates a stream of basic-block events produced by an
// instrumented target into coverage keys for a Map. The paper's point is
// that BigMap works with any metric that records into a bitmap; the fuzzer
// therefore takes a Metric and a Map independently and composes them.
//
// Metrics hold per-execution state (the previous block, the N-gram window,
// the calling context) and must be reset with Begin before every execution.
// A Metric is not safe for concurrent use.
type Metric interface {
	// Name identifies the metric for reporting ("edge", "ngram3", ...).
	Name() string
	// Begin resets per-execution state. Call before each test case.
	Begin()
	// Visit consumes entry into the basic block with the given compile-time
	// ID and returns the coverage key to record.
	Visit(block uint32) uint32
	// EnterCall and LeaveCall inform context-sensitive metrics about the
	// call stack. Other metrics ignore them.
	EnterCall(callsite uint32)
	LeaveCall()
	// CallBlind reports whether EnterCall and LeaveCall are no-ops, i.e.
	// the keys do not depend on call events. A tracer feeding a call-blind
	// metric lets the interpreter skip call delivery (see target.Tracer).
	CallBlind() bool
}

// EdgeMetric is AFL's classic edge hit-count key: E_XY = (B_X >> 1) ^ B_Y,
// masked into the map's hash space (paper Listing 1). The shift preserves
// edge directionality and distinguishes tight self-loops.
type EdgeMetric struct {
	mask uint32
	prev uint32
}

var _ Metric = (*EdgeMetric)(nil)

// NewEdgeMetric creates an edge metric for a map of the given size (a power
// of two).
func NewEdgeMetric(mapSize int) (*EdgeMetric, error) {
	if !validSize(mapSize) {
		return nil, ErrBadMapSize
	}
	return &EdgeMetric{mask: uint32(mapSize - 1)}, nil
}

// Name returns "edge".
func (m *EdgeMetric) Name() string { return "edge" }

// Begin resets the previous-block state to the program entry sentinel.
//
//bigmap:hotpath per-exec metric reset
func (m *EdgeMetric) Begin() { m.prev = 0 }

// Visit returns (prev>>1)^cur as in AFL's instrumentation.
//
//bigmap:hotpath per-visit edge key derivation
func (m *EdgeMetric) Visit(block uint32) uint32 {
	key := (m.prev ^ block) & m.mask
	m.prev = block >> 1
	return key
}

// EnterCall is a no-op for the edge metric.
func (m *EdgeMetric) EnterCall(uint32) {}

// LeaveCall is a no-op for the edge metric.
func (m *EdgeMetric) LeaveCall() {}

// CallBlind reports true: edge keys ignore call events.
func (m *EdgeMetric) CallBlind() bool { return true }

// NGramMetric hashes the IDs of the last N basic blocks into the coverage
// key, yielding partial path coverage (Wang et al., RAID'19; paper §V-C uses
// N = 3). Larger N is more expressive and puts more pressure on the map.
type NGramMetric struct {
	mask   uint32
	n      int
	window []uint32
	pos    int
	filled int
}

var _ Metric = (*NGramMetric)(nil)

// NewNGramMetric creates an N-gram metric for a map of the given size. n must
// be at least 2 (n == 1 would be plain block coverage; use EdgeMetric or a
// dedicated block metric instead).
func NewNGramMetric(mapSize, n int) (*NGramMetric, error) {
	if !validSize(mapSize) {
		return nil, ErrBadMapSize
	}
	if n < 2 {
		return nil, fmt.Errorf("core: ngram size %d out of range (need >= 2)", n)
	}
	return &NGramMetric{
		mask:   uint32(mapSize - 1),
		n:      n,
		window: make([]uint32, n),
	}, nil
}

// Name returns "ngramN".
func (m *NGramMetric) Name() string { return fmt.Sprintf("ngram%d", m.n) }

// Begin clears the block window.
//
//bigmap:hotpath per-exec metric reset
func (m *NGramMetric) Begin() {
	clear(m.window)
	m.pos = 0
	m.filled = 0
}

// Visit pushes the block into the window and returns the hash of the last N
// blocks.
//
//bigmap:hotpath per-visit ngram key derivation
func (m *NGramMetric) Visit(block uint32) uint32 {
	m.window[m.pos] = block
	m.pos++
	if m.pos == m.n {
		m.pos = 0
	}
	if m.filled < m.n {
		m.filled++
	}
	h := uint64(0x9747b28c)
	// Fold the window oldest-to-newest so the key depends on order.
	for i := 0; i < m.filled; i++ {
		idx := m.pos - m.filled + i
		if idx < 0 {
			idx += m.n
		}
		h = hashCombine(h, uint64(m.window[idx]))
	}
	return uint32(h) & m.mask
}

// EnterCall is a no-op for the N-gram metric.
func (m *NGramMetric) EnterCall(uint32) {}

// LeaveCall is a no-op for the N-gram metric.
func (m *NGramMetric) LeaveCall() {}

// CallBlind reports true: N-gram keys ignore call events.
func (m *NGramMetric) CallBlind() bool { return true }

// ContextMetric is Angora-style context-sensitive edge coverage: the AFL edge
// key XORed with a hash of the current call stack, so the same edge reached
// through different calling contexts yields distinct keys.
type ContextMetric struct {
	mask  uint32
	prev  uint32
	ctx   uint32
	stack []uint32
}

var _ Metric = (*ContextMetric)(nil)

// NewContextMetric creates a context-sensitive edge metric for a map of the
// given size.
func NewContextMetric(mapSize int) (*ContextMetric, error) {
	if !validSize(mapSize) {
		return nil, ErrBadMapSize
	}
	return &ContextMetric{mask: uint32(mapSize - 1)}, nil
}

// Name returns "ctx-edge".
func (m *ContextMetric) Name() string { return "ctx-edge" }

// Begin resets the edge state and call stack.
//
//bigmap:hotpath per-exec metric reset
func (m *ContextMetric) Begin() {
	m.prev = 0
	m.ctx = 0
	m.stack = m.stack[:0]
}

// Visit returns the context-xored edge key.
//
//bigmap:hotpath per-visit context key derivation
func (m *ContextMetric) Visit(block uint32) uint32 {
	key := (m.prev ^ block ^ m.ctx) & m.mask
	m.prev = block >> 1
	return key
}

// EnterCall folds the callsite into the context hash.
//
//bigmap:hotpath per-call context push
func (m *ContextMetric) EnterCall(callsite uint32) {
	m.stack = append(m.stack, m.ctx) //bigmap:alloc-ok call-depth stack reaches the target's max depth in the first executions, then reuses its backing
	m.ctx = uint32(hashCombine(uint64(m.ctx), uint64(callsite)))
}

// LeaveCall restores the context of the caller.
//
//bigmap:hotpath per-call context pop
func (m *ContextMetric) LeaveCall() {
	if n := len(m.stack); n > 0 {
		m.ctx = m.stack[n-1]
		m.stack = m.stack[:n-1]
	}
}

// CallBlind reports false: the context hash is built from call events.
func (m *ContextMetric) CallBlind() bool { return false }
