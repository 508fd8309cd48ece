package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// File framing: magic | version | kind | payloadLen (uint64 LE) | payload |
// CRC32-IEEE (uint32 LE, over everything before it).
const (
	// Version is the current checkpoint format version. v2 appended the
	// selective-tracing counters (FilterSkips/FilterFulls) to the fuzzer
	// payload tail; v3 dropped the campaign payload's pairwise import
	// matrix, since campaigns sync through a dist.Hub rebuilt on resume;
	// v4 stores each virgin map sparsely (see Virgin) instead of raw; v5
	// dropped the selective-tracing counters again, with the filter itself.
	// Older files are rejected rather than misread.
	Version = 5

	// KindFuzzer frames a single-instance FuzzerState payload.
	KindFuzzer byte = 1
	// KindCampaign frames a multi-instance CampaignState payload.
	KindCampaign byte = 2

	magic      = "BMCP"
	headerLen  = len(magic) + 1 + 1 + 8 // magic + version + kind + payloadLen
	trailerLen = 4                      // CRC32
)

// Codec errors. ErrCorrupt wraps every integrity failure (bad magic, short
// file, length mismatch, CRC mismatch, malformed payload) so callers can
// distinguish "this checkpoint is damaged" from I/O errors.
var (
	ErrCorrupt     = errors.New("checkpoint: corrupt")
	ErrVersion     = errors.New("checkpoint: unsupported format version")
	ErrKind        = errors.New("checkpoint: unexpected payload kind")
	errShortBuffer = fmt.Errorf("%w: truncated payload", ErrCorrupt)
)

// writer accumulates a payload. All integers are uvarints; byte and slice
// fields are length-prefixed.
type writer struct {
	buf []byte
}

func (w *writer) u64(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) int(v int)    { w.u64(uint64(int64(v))) }
func (w *writer) u32(v uint32) { w.u64(uint64(v)) }
func (w *writer) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}
func (w *writer) str(s string) { w.u64(uint64(len(s))); w.buf = append(w.buf, s...) }

func (w *writer) bytes(b []byte) {
	w.u64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// virgin writes a sparse virgin map in the BMVD word encoding of
// core.EncodeVirginDelta: the logical length, the word count, then per word
// the index gap (index - previous index - 1, the first word's gap being its
// index) as a uvarint and the word as uint64 LE.
func (w *writer) virgin(v Virgin) {
	w.u64(v.Len)
	w.u64(uint64(len(v.Words)))
	prev := -1
	for _, vw := range v.Words {
		w.u64(uint64(int(vw.Index) - prev - 1))
		w.buf = binary.LittleEndian.AppendUint64(w.buf, vw.Word)
		prev = int(vw.Index)
	}
}

func (w *writer) u32s(v []uint32) {
	w.u64(uint64(len(v)))
	for _, x := range v {
		w.u32(x)
	}
}

func (w *writer) u64s(v []uint64) {
	w.u64(uint64(len(v)))
	for _, x := range v {
		w.u64(x)
	}
}

func (w *writer) state(st [4]uint64) {
	for _, x := range st {
		w.u64(x)
	}
}

// reader consumes a payload with sticky-error semantics: after the first
// failure every accessor returns zero values, and the caller checks r.err
// once at the end. Every length is validated against the remaining bytes
// before any allocation, so corrupt counts cannot trigger huge allocations.
type reader struct {
	buf []byte
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = errShortBuffer
	}
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) int() int { return int(int64(r.u64())) }

func (r *reader) u32() uint32 {
	v := r.u64()
	if r.err == nil && v > 0xFFFFFFFF {
		r.err = fmt.Errorf("%w: uint32 field out of range", ErrCorrupt)
		return 0
	}
	return uint32(v)
}

func (r *reader) bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.buf) < 1 {
		r.fail()
		return false
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	if b > 1 {
		r.err = fmt.Errorf("%w: invalid bool byte %#x", ErrCorrupt, b)
		return false
	}
	return b == 1
}

// length reads a count and validates it against the remaining payload,
// assuming each element consumes at least minElem bytes.
func (r *reader) length(minElem int) int {
	n := r.u64()
	if r.err != nil {
		return 0
	}
	if minElem < 1 {
		minElem = 1
	}
	if n > uint64(len(r.buf)/minElem) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *reader) bytes() []byte {
	n := r.length(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[:n])
	r.buf = r.buf[n:]
	return out
}

func (r *reader) str() string { return string(r.bytes()) }

// virgin reads a sparse virgin map, rejecting any non-canonical form: word
// indexes past the logical length, all-0xFF words, and set padding bytes
// past the length in the last word. Ascending order is structural (gaps
// are unsigned).
func (r *reader) virgin() Virgin {
	v := Virgin{Len: r.u64()}
	n := r.length(9)
	if r.err != nil || n == 0 {
		return v
	}
	nwords := (v.Len + 7) / 8
	v.Words = make([]VirginWord, n)
	next := uint64(0)
	for i := range v.Words {
		idx := next + r.u64()
		if r.err != nil {
			return Virgin{}
		}
		if len(r.buf) < 8 {
			r.fail()
			return Virgin{}
		}
		word := binary.LittleEndian.Uint64(r.buf)
		r.buf = r.buf[8:]
		if idx >= nwords || idx < next || idx > 0xFFFFFFFF || word == ^uint64(0) {
			r.err = fmt.Errorf("%w: virgin word %d (index %d) is not canonical", ErrCorrupt, i, idx)
			return Virgin{}
		}
		if tail := v.Len - 8*idx; tail < 8 && word>>(8*tail) != ^uint64(0)>>(8*tail) {
			r.err = fmt.Errorf("%w: virgin word %d sets bytes past length %d", ErrCorrupt, i, v.Len)
			return Virgin{}
		}
		v.Words[i] = VirginWord{Index: uint32(idx), Word: word}
		next = idx + 1
	}
	return v
}

func (r *reader) u32s() []uint32 {
	n := r.length(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.u32()
	}
	return out
}

func (r *reader) u64s() []uint64 {
	n := r.length(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.u64()
	}
	return out
}

func (r *reader) state() [4]uint64 {
	var st [4]uint64
	for i := range st {
		st[i] = r.u64()
	}
	return st
}

// frame wraps a payload in the header/trailer.
func frame(kind byte, payload []byte) []byte {
	out := make([]byte, 0, headerLen+len(payload)+trailerLen)
	out = append(out, magic...)
	out = append(out, Version, kind)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	sum := crc32.ChecksumIEEE(out)
	return binary.LittleEndian.AppendUint32(out, sum)
}

// unframe validates the header, length and CRC and returns the payload.
func unframe(data []byte, wantKind byte) ([]byte, error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the envelope", ErrCorrupt, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	version := data[len(magic)]
	kind := data[len(magic)+1]
	if version != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, version, Version)
	}
	if kind != wantKind {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrKind, kind, wantKind)
	}
	payloadLen := binary.LittleEndian.Uint64(data[len(magic)+2 : headerLen])
	if payloadLen != uint64(len(data)-headerLen-trailerLen) {
		return nil, fmt.Errorf("%w: payload length %d does not match file size %d",
			ErrCorrupt, payloadLen, len(data))
	}
	body := data[:len(data)-trailerLen]
	want := binary.LittleEndian.Uint32(data[len(data)-trailerLen:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (got %#x, want %#x)", ErrCorrupt, got, want)
	}
	return data[headerLen : len(data)-trailerLen], nil
}

func encodeEntry(w *writer, e *Entry) {
	w.bytes(e.Input)
	w.u64(e.Cycles)
	w.u32s(e.Touched)
	w.u64(e.PathHash)
	w.int(e.Depth)
	w.str(e.FoundBy)
	w.bool(e.Favored)
	w.bool(e.WasFuzzed)
	w.bool(e.WasTrimmed)
	w.int(e.FuzzLevel)
}

func decodeEntry(r *reader) Entry {
	return Entry{
		Input:      r.bytes(),
		Cycles:     r.u64(),
		Touched:    r.u32s(),
		PathHash:   r.u64(),
		Depth:      r.int(),
		FoundBy:    r.str(),
		Favored:    r.bool(),
		WasFuzzed:  r.bool(),
		WasTrimmed: r.bool(),
		FuzzLevel:  r.int(),
	}
}

func encodeCrash(w *writer, c *CrashRecord) {
	w.u64(c.Key)
	w.u32(c.Site)
	w.int(c.StackDepth)
	w.int(c.Count)
	w.bytes(c.Input)
}

func decodeCrash(r *reader) CrashRecord {
	return CrashRecord{
		Key:        r.u64(),
		Site:       r.u32(),
		StackDepth: r.int(),
		Count:      r.int(),
		Input:      r.bytes(),
	}
}

func encodeFuzzerPayload(w *writer, st *FuzzerState) {
	w.str(st.Scheme)
	w.u64(st.MapSize)
	w.state(st.RNG)
	w.state(st.MutRNG)
	w.u64(st.Execs)
	w.u64(st.CyclesDone)
	w.u64(st.QueuePos)
	w.u64(st.TotalCrashes)
	w.u64(st.TotalHangs)
	w.u64(st.AFLUniqueCrash)
	w.u64(st.SumCycles)
	w.u64(st.SumEdges)
	w.u64(st.RejectedSeeds)
	w.u64(st.CalibExecs)
	w.u64(st.SpuriousCrashes)
	w.u64(st.SpuriousHangs)
	w.u64(st.FaultExecs)
	w.u64(st.DroppedKeys)
	w.virgin(st.VirginAll)
	w.virgin(st.VirginCrash)
	w.virgin(st.VirginHang)
	w.u32s(st.SlotKeys)
	w.u32s(st.VarSlots)
	w.u32s(st.TopSlots)
	w.u64s(st.TopEntries)
	w.u64(uint64(len(st.Entries)))
	for i := range st.Entries {
		encodeEntry(w, &st.Entries[i])
	}
	w.u64(uint64(len(st.Crashes)))
	for i := range st.Crashes {
		encodeCrash(w, &st.Crashes[i])
	}
	w.u64(uint64(len(st.Paths)))
	for i := range st.Paths {
		w.u64(st.Paths[i].Hash)
		w.u64(st.Paths[i].Count)
	}
	w.u64s(st.OpUsed)
	w.u64s(st.OpSuccess)
	w.u64s(st.OpPending)
}

func decodeFuzzerPayload(r *reader) FuzzerState {
	st := FuzzerState{
		Scheme:          r.str(),
		MapSize:         r.u64(),
		RNG:             r.state(),
		MutRNG:          r.state(),
		Execs:           r.u64(),
		CyclesDone:      r.u64(),
		QueuePos:        r.u64(),
		TotalCrashes:    r.u64(),
		TotalHangs:      r.u64(),
		AFLUniqueCrash:  r.u64(),
		SumCycles:       r.u64(),
		SumEdges:        r.u64(),
		RejectedSeeds:   r.u64(),
		CalibExecs:      r.u64(),
		SpuriousCrashes: r.u64(),
		SpuriousHangs:   r.u64(),
		FaultExecs:      r.u64(),
		DroppedKeys:     r.u64(),
		VirginAll:       r.virgin(),
		VirginCrash:     r.virgin(),
		VirginHang:      r.virgin(),
		SlotKeys:        r.u32s(),
		VarSlots:        r.u32s(),
		TopSlots:        r.u32s(),
		TopEntries:      r.u64s(),
	}
	if n := r.length(8); n > 0 {
		st.Entries = make([]Entry, n)
		for i := range st.Entries {
			st.Entries[i] = decodeEntry(r)
		}
	}
	if n := r.length(5); n > 0 {
		st.Crashes = make([]CrashRecord, n)
		for i := range st.Crashes {
			st.Crashes[i] = decodeCrash(r)
		}
	}
	if n := r.length(2); n > 0 {
		st.Paths = make([]PathFreq, n)
		for i := range st.Paths {
			st.Paths[i] = PathFreq{Hash: r.u64(), Count: r.u64()}
		}
	}
	st.OpUsed = r.u64s()
	st.OpSuccess = r.u64s()
	st.OpPending = r.u64s()
	return st
}

// EncodeFuzzer serializes a single-instance state into a framed checkpoint.
func EncodeFuzzer(st *FuzzerState) []byte {
	var w writer
	encodeFuzzerPayload(&w, st)
	return frame(KindFuzzer, w.buf)
}

// DecodeFuzzer parses a framed single-instance checkpoint, rejecting
// anything corrupt, truncated, of the wrong kind or the wrong version.
func DecodeFuzzer(data []byte) (*FuzzerState, error) {
	payload, err := unframe(data, KindFuzzer)
	if err != nil {
		return nil, err
	}
	r := reader{buf: payload}
	st := decodeFuzzerPayload(&r)
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after payload", ErrCorrupt, len(r.buf))
	}
	return &st, nil
}

// EncodeCampaign serializes a multi-instance state into a framed checkpoint.
func EncodeCampaign(st *CampaignState) []byte {
	var w writer
	w.u64(st.SyncEvery)
	w.u64(uint64(len(st.Instances)))
	for i := range st.Instances {
		encodeFuzzerPayload(&w, &st.Instances[i])
	}
	return frame(KindCampaign, w.buf)
}

// DecodeCampaign parses a framed multi-instance checkpoint.
func DecodeCampaign(data []byte) (*CampaignState, error) {
	payload, err := unframe(data, KindCampaign)
	if err != nil {
		return nil, err
	}
	r := reader{buf: payload}
	st := CampaignState{SyncEvery: r.u64()}
	if n := r.length(1); n > 0 {
		st.Instances = make([]FuzzerState, n)
		for i := range st.Instances {
			st.Instances[i] = decodeFuzzerPayload(&r)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after payload", ErrCorrupt, len(r.buf))
	}
	return &st, nil
}
