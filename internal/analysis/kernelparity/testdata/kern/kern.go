// Package kern exercises the kernel-parity analyzer: a properly pinned
// word/scalar pair, a kernel with no scalar reference, a pair no fuzz target
// reaches, an audited (suppressed) kernel, kernels that read and write words
// through encoding/binary, and a codec that is exempt.
package kern

import "encoding/binary"

func loadWord(p []byte) uint64 {
	return uint64(p[0])
}

func storeWord(p []byte, w uint64) {
	p[0] = byte(w)
}

// fooRegion/fooScalar is the healthy case: both reached by FuzzFoo.
func fooRegion(p []byte) {
	for i := 0; i+8 <= len(p); i += 8 {
		storeWord(p[i:], loadWord(p[i:]))
	}
}

func fooScalar(p []byte) {
	for i := range p {
		p[i] = p[i]
	}
}

func barRegion(p []byte) uint64 { // want "no scalar reference barScalar"
	return loadWord(p)
}

// bazRegion has its scalar, but no fuzz target exercises either.
func bazRegion(p []byte) uint64 { // want "not reached by any Fuzz target"
	return loadWord(p)
}

func bazScalar(p []byte) uint64 {
	return uint64(p[0])
}

//bigmap:kernel-ok audited: qux is pinned exhaustively by table-driven unit tests
func quxRegion(p []byte) uint64 {
	return loadWord(p)
}

// stdRegion reads its words through encoding/binary instead of loadWord: it
// is a kernel all the same.
func stdRegion(p []byte) uint64 { // want "no scalar reference stdScalar"
	return binary.LittleEndian.Uint64(p)
}

// putRegion writes its words through encoding/binary.
func putRegion(p []byte, w uint64) { // want "no scalar reference putScalar"
	binary.BigEndian.PutUint64(p, w)
}

// decodeWord parses a wire format, not a map: codecs are exempt.
func decodeWord(p []byte) uint64 {
	return binary.LittleEndian.Uint64(p)
}

// sumRegion only uses encoding/binary's 32-bit reads, which are not word
// accesses.
func sumRegion(p []byte) uint32 {
	return binary.LittleEndian.Uint32(p)
}
