package benchjson

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: github.com/bigmap/bigmap/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkClassifyKernel/scalar/bigmap/2M-8         	    1219	   1003885 ns/op	       0 B/op	       0 allocs/op
BenchmarkClassifyKernel/word/bigmap/8M-8           	     609	   1974000 ns/op	       0 B/op	       0 allocs/op
BenchmarkExecLoop/afl/64k-8                        	   80000	     14813 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig2CollisionRate-8                       	     100	    500000 ns/op
PASS
ok  	github.com/bigmap/bigmap/internal/core	4.2s
`

func TestParseGoBench(t *testing.T) {
	rep, err := ParseGoBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema {
		t.Errorf("schema %q, want %q", rep.Schema, Schema)
	}
	if rep.GoOS != "linux" || rep.GoArch != "amd64" || !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("preamble not captured: %q %q %q", rep.GoOS, rep.GoArch, rep.CPU)
	}
	if len(rep.Records) != 4 {
		t.Fatalf("got %d records, want 4", len(rep.Records))
	}

	r := rep.Records[1]
	if r.Name != "BenchmarkClassifyKernel/word/bigmap/8M" {
		t.Fatalf("record 1 named %q (GOMAXPROCS suffix not stripped?)", r.Name)
	}
	if r.Op != "ClassifyKernel" || r.Variant != "word" || r.Scheme != "bigmap" || r.MapSize != "8M" {
		t.Errorf("labels not derived: %+v", r)
	}
	if r.NsPerOp != 1974000 || r.AllocsPerOp != 0 || r.BytesPerOp != 0 || r.Iterations != 609 {
		t.Errorf("measurements wrong: %+v", r)
	}

	exec := rep.Records[2]
	if exec.Name != "BenchmarkExecLoop/afl/64k" || exec.Scheme != "afl" || exec.MapSize != "64k" || exec.Variant != "" {
		t.Errorf("exec-loop labels wrong: %+v", exec)
	}

	// A record without -benchmem must distinguish "not measured" from zero.
	fig2 := rep.Records[3]
	if fig2.Name != "BenchmarkFig2CollisionRate" || fig2.AllocsPerOp != -1 || fig2.BytesPerOp != -1 {
		t.Errorf("missing -benchmem should report -1: %+v", fig2)
	}
}

func TestParseGoBenchEmptyInputFails(t *testing.T) {
	if _, err := ParseGoBench(strings.NewReader("PASS\nok\n")); err == nil {
		t.Error("want error for input with no benchmark lines")
	}
}

func TestReportRoundTripsThroughJSON(t *testing.T) {
	rep, err := ParseGoBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	rep.Tables = append(rep.Tables, FromTable(
		"Figure 3", []string{"note"}, []string{"op", "ns"}, [][]string{{"classify", "42"}}))
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if len(back.Records) != len(rep.Records) || len(back.Tables) != 1 {
		t.Errorf("round trip lost data: %d records, %d tables", len(back.Records), len(back.Tables))
	}
	if back.Tables[0].Rows[0][1] != "42" {
		t.Errorf("table payload lost: %+v", back.Tables[0])
	}
}

func TestFromTableCopies(t *testing.T) {
	rows := [][]string{{"a", "b"}}
	tab := FromTable("t", nil, []string{"h"}, rows)
	rows[0][0] = "mutated"
	if tab.Rows[0][0] != "a" {
		t.Error("FromTable aliases caller rows")
	}
}

func TestSplitNameVariants(t *testing.T) {
	cases := []struct {
		name                      string
		op, variant, scheme, size string
	}{
		{"BenchmarkAddBatchKernel/addbatch/bigmap/8M", "AddBatchKernel", "addbatch", "bigmap", "8M"},
		{"BenchmarkFig3MapOps/classify/afl/64k", "Fig3MapOps", "classify", "afl", "64k"},
		{"BenchmarkHashKernel/word/bigmap/2M", "HashKernel", "word", "bigmap", "2M"},
		{"BenchmarkFig8CrashDedup", "Fig8CrashDedup", "", "", ""},
	}
	for _, c := range cases {
		op, variant, scheme, size := splitName(c.name)
		if op != c.op || variant != c.variant || scheme != c.scheme || size != c.size {
			t.Errorf("splitName(%q) = %q %q %q %q, want %q %q %q %q",
				c.name, op, variant, scheme, size, c.op, c.variant, c.scheme, c.size)
		}
	}
}
