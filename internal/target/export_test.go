package target

// Bridges for the external test package (package target_test), whose tests
// also drive the fuzzer and so cannot live inside package target.

// RefInterp is the reference tree-walking interpreter (refinterp_test.go).
type RefInterp = refInterp

// NewRefInterp creates a reference interpreter for prog.
func NewRefInterp(prog *Program) *RefInterp { return newRefInterp(prog) }
