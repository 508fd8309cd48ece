package mutation

// Adaptive operator scheduling, MOpt-lite: the havoc stage tracks which of
// its operators contributed to interesting test cases and biases future
// operator selection toward the productive ones. Credit is assigned to every
// operator in the mutant's stack (the standard approximation — individual
// attribution inside a stacked mutation is not observable).
//
// The scheduler keeps a floor probability for every operator so none starves:
// operator usefulness drifts over a campaign (block ops matter early,
// byte-level ops matter when solving comparisons), and a starved operator
// could never recover.

// numHavocOps is the number of havoc operator kinds in Havoc's switch.
const numHavocOps = 15

// adaptiveState tracks per-operator statistics.
type adaptiveState struct {
	used    [numHavocOps]uint64
	success [numHavocOps]uint64
	lastOps []int
}

// EnableAdaptive switches the mutator to weighted operator selection.
// Call RewardLast after evaluating each Havoc mutant to close the loop.
func (m *Mutator) EnableAdaptive() {
	if m.adaptive == nil {
		m.adaptive = &adaptiveState{}
	}
}

// AdaptiveEnabled reports whether adaptive scheduling is on.
func (m *Mutator) AdaptiveEnabled() bool { return m.adaptive != nil }

// RewardLast credits (or not) the operators used by the most recent Havoc
// call. Call exactly once per mutant, after its evaluation.
func (m *Mutator) RewardLast(interesting bool) {
	if m.adaptive == nil {
		return
	}
	for _, op := range m.adaptive.lastOps {
		m.adaptive.used[op]++
		if interesting {
			m.adaptive.success[op]++
		}
	}
	m.adaptive.lastOps = m.adaptive.lastOps[:0]
}

// OperatorStats returns (used, success) counters per havoc operator, for
// reporting and tests.
func (m *Mutator) OperatorStats() (used, success []uint64) {
	if m.adaptive == nil {
		return nil, nil
	}
	u := make([]uint64, numHavocOps)
	s := make([]uint64, numHavocOps)
	copy(u, m.adaptive.used[:])
	copy(s, m.adaptive.success[:])
	return u, s
}

// PendingOps returns the operators used since the last RewardLast call —
// credit attribution still in flight. The splice stage's Havoc calls are
// never rewarded, so this is routinely non-empty at step boundaries and must
// be checkpointed for an exact resume.
func (m *Mutator) PendingOps() []int {
	if m.adaptive == nil {
		return nil
	}
	return append([]int(nil), m.adaptive.lastOps...)
}

// RestoreOperatorStats reloads per-operator counters and the pending credit
// list from a checkpoint, enabling adaptive mode if it was off. Slices
// shorter than the operator count leave the tail at zero; longer slices are
// truncated (forward compatibility with checkpoints written by builds with
// more operators).
func (m *Mutator) RestoreOperatorStats(used, success []uint64, pending []int) {
	m.EnableAdaptive()
	m.adaptive.used = [numHavocOps]uint64{}
	m.adaptive.success = [numHavocOps]uint64{}
	copy(m.adaptive.used[:], used)
	copy(m.adaptive.success[:], success)
	m.adaptive.lastOps = append(m.adaptive.lastOps[:0], pending...)
}

// pickOp selects the next havoc operator: uniformly when adaptive mode is
// off, success-rate weighted (with a 25% uniform floor) when on.
func (m *Mutator) pickOp() int {
	if m.adaptive == nil {
		return m.src.Intn(numHavocOps)
	}
	// A quarter of picks stay uniform so no operator starves.
	if m.src.Intn(4) == 0 {
		op := m.src.Intn(numHavocOps)
		m.adaptive.lastOps = append(m.adaptive.lastOps, op) //bigmap:alloc-ok amortized growth: RewardLast truncates lastOps and keeps its capacity
		return op
	}
	// Weight = (success+1)/(used+numHavocOps): Laplace-smoothed success
	// rate. Sampled via cumulative weights scaled to integers.
	var weights [numHavocOps]uint64
	var total uint64
	for i := 0; i < numHavocOps; i++ {
		w := (m.adaptive.success[i] + 1) * 1000 / (m.adaptive.used[i] + numHavocOps)
		if w == 0 {
			w = 1
		}
		weights[i] = w
		total += w
	}
	pick := m.src.Uint64() % total
	op := 0
	for i := 0; i < numHavocOps; i++ {
		if pick < weights[i] {
			op = i
			break
		}
		pick -= weights[i]
	}
	m.adaptive.lastOps = append(m.adaptive.lastOps, op) //bigmap:alloc-ok amortized growth: RewardLast truncates lastOps and keeps its capacity
	return op
}
