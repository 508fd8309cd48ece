package core

import "fmt"

// This file is the executable form of BigMap's structural invariants
// (§IV): the counters that make the used-region bound sound, the
// guaranteed-zero region above the high-water mark that makes clipping
// sound, the index↔slot bijection that makes dense slots stable, and the
// stored virgin prefix that the compare kernels read. Each
// helper early-returns on the debugAssertions constant, so release builds
// (no bigmapdbg tag) compile the calls away entirely; under -tags
// bigmapdbg a violated invariant panics at the operation that broke it
// rather than surfacing later as silently wrong coverage.

// debugCheckCounters verifies the O(1) per-update invariants: the slot-key
// table tracks used_key exactly, used_key never exceeds the stored coverage
// bitmap, which never exceeds the slot capacity, the newest slot's key
// points back at it under the slot+1 index encoding, and the high-water
// mark stays inside [-1, used_key).
func (m *BigMap) debugCheckCounters() {
	if !debugAssertions {
		return
	}
	if len(m.slotKey) != m.used {
		panic(fmt.Sprintf("core: slotKey length %d diverged from used_key %d", len(m.slotKey), m.used)) //bigmap:alloc-ok panic message on a violated invariant; bigmapdbg builds only and the process is dying
	}
	if m.used > len(m.coverage) || len(m.coverage) > m.slotCap {
		panic(fmt.Sprintf("core: used_key %d, coverage %d, slot capacity %d out of order", m.used, len(m.coverage), m.slotCap)) //bigmap:alloc-ok panic message on a violated invariant; bigmapdbg builds only and the process is dying
	}
	if m.used > 0 && m.index[m.slotKey[m.used-1]] != uint32(m.used) {
		panic(fmt.Sprintf("core: index[%d] = %d, but slotKey assigns slot %d", m.slotKey[m.used-1], m.index[m.slotKey[m.used-1]], m.used-1)) //bigmap:alloc-ok panic message on a violated invariant; bigmapdbg builds only and the process is dying
	}
	if m.hw < -1 || m.hw >= m.used {
		panic(fmt.Sprintf("core: high-water mark %d outside [-1, used_key %d)", m.hw, m.used)) //bigmap:alloc-ok panic message on a violated invariant; bigmapdbg builds only and the process is dying
	}
}

// debugCheckTraceClean verifies that every slot above the high-water mark
// is zero — the invariant that lets classify, compare, hash, count and
// reset clip their traversals at the mark.
func (m *BigMap) debugCheckTraceClean() {
	if !debugAssertions {
		return
	}
	if last := lastNonZero(m.coverage[:m.used]); last > m.hw {
		panic(fmt.Sprintf("core: slot %d non-zero above high-water mark %d", last, m.hw)) //bigmap:alloc-ok panic message on a violated invariant; bigmapdbg builds only and the process is dying
	}
}

// debugCheckBijection verifies that index and slotKey are mutual inverses
// over the used region: every assigned slot's key points back at that slot
// (stored as slot+1, zero being "unassigned"). O(used_key), so it runs at
// restore boundaries, not per update.
func (m *BigMap) debugCheckBijection() {
	if !debugAssertions {
		return
	}
	for slot, key := range m.slotKey[:m.used] {
		if got := m.index[key]; int(got) != slot+1 {
			panic(fmt.Sprintf("core: index[%d] = %d, but slotKey assigns slot %d", key, got, slot))
		}
	}
}

// debugCheckVirginCovers verifies that the virgin's stored prefix spans
// the touched region the compare kernels are about to read, and stays
// within the virgin's logical length.
func (m *BigMap) debugCheckVirginCovers(v *Virgin) {
	if !debugAssertions {
		return
	}
	if len(v.bits) <= m.hw || len(v.bits) > v.n {
		panic(fmt.Sprintf("core: virgin stores %d of %d slots, trace reaches slot %d", len(v.bits), v.n, m.hw)) //bigmap:alloc-ok panic message on a violated invariant; bigmapdbg builds only and the process is dying
	}
}
