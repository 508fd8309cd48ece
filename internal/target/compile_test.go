package target

import (
	"strconv"
	"testing"
	"unsafe"
)

// TestInstIs32Bytes pins the compiled instruction size the interpreter's
// cache footprint is planned around: two instructions per 64-byte line.
func TestInstIs32Bytes(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("the layout is planned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(inst{}); got != 32 {
		t.Fatalf("inst is %d bytes, want 32", got)
	}
}

// TestCompileOncePerProgram checks that every Interp of a program shares
// one compiled form.
func TestCompileOncePerProgram(t *testing.T) {
	prog, err := Generate(Profiles()[0].Spec(0.02))
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewInterp(prog), NewInterp(prog)
	if a.code != b.code || a.code == nil {
		t.Fatal("interpreters of one program do not share its compiled form")
	}
	if got, want := len(a.code.code), 1+prog.NumBlocks(); got != want {
		t.Fatalf("compiled %d instructions, want %d (sentinel + blocks)", got, want)
	}
}

// BenchmarkCompile sets the compile pass against Generate, which it follows
// once per program, on sqlite3 @ 0.25.
func BenchmarkCompile(b *testing.B) {
	p, ok := ProfileByName("sqlite3")
	if !ok {
		b.Fatal("sqlite3 profile missing")
	}
	spec := p.Spec(0.25)
	prog, err := Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("generate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Generate(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compile", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(prog.NumBlocks()), "blocks")
		for i := 0; i < b.N; i++ {
			compile(prog)
		}
	})
}
