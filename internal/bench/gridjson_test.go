package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

func sampleTable(cells ...string) tableJSON {
	return tableJSON{
		Title:  "Figure X: sample",
		Header: []string{"benchmark", "map", "edges"},
		Rows:   [][]string{append([]string{"gvn", "64k"}, cells...)},
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	rep := &gridReport{
		Schema: reportSchema,
		Tables: []tableJSON{sampleTable("12")},
	}
	if err := validateReport(rep); err != nil {
		t.Fatalf("well-formed report rejected: %v", err)
	}
}

// TestValidateEdgeCases is the table-driven "empty grid" sweep: every way an
// artifact can be hollow or ragged must be rejected with errSchema.
func TestValidateEdgeCases(t *testing.T) {
	ragged := sampleTable("12")
	ragged.Rows = append(ragged.Rows, []string{"too", "narrow"})
	noTitle := sampleTable("12")
	noTitle.Title = ""
	noHeader := sampleTable("12")
	noHeader.Header = nil
	blankCol := sampleTable("12")
	blankCol.Header = []string{"benchmark", "  ", "edges"}
	noRows := sampleTable("12")
	noRows.Rows = nil

	tests := []struct {
		name string
		rep  *gridReport
	}{
		{"nil report", nil},
		{"wrong schema", &gridReport{Schema: "bogus/v9", Tables: []tableJSON{sampleTable("1")}}},
		{"empty grid", &gridReport{Schema: reportSchema}},
		{"ragged table", &gridReport{Schema: reportSchema, Tables: []tableJSON{ragged}}},
		{"untitled table", &gridReport{Schema: reportSchema, Tables: []tableJSON{noTitle}}},
		{"headerless table", &gridReport{Schema: reportSchema, Tables: []tableJSON{noHeader}}},
		{"blank header column", &gridReport{Schema: reportSchema, Tables: []tableJSON{blankCol}}},
		{"rowless table", &gridReport{Schema: reportSchema, Tables: []tableJSON{noRows}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := validateReport(tc.rep); !errors.Is(err, errSchema) {
				t.Fatalf("got %v, want errSchema", err)
			}
		})
	}
}

// TestAggregateSingleRepeat: one repeat passes through verbatim — no ±0
// annotations, no reformatting. This is the "single-repeat stddev" edge: the
// stddev is undefined at n=1 and must not leak into the artifact.
func TestAggregateSingleRepeat(t *testing.T) {
	in := sampleTable("12.50")
	got, err := aggregateTables([]tableJSON{in})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("single repeat not a pass-through: %+v vs %+v", got, in)
	}
	// And the copy must not alias the input.
	got.Rows[0][0] = "mutated"
	if in.Rows[0][0] == "mutated" {
		t.Fatal("aggregate aliases the input table")
	}
}

func TestAggregateMeanAndStddev(t *testing.T) {
	got, err := aggregateTables([]tableJSON{
		sampleTable("10"), sampleTable("12"), sampleTable("14"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "12±2"; got.Rows[0][2] != want {
		t.Fatalf("mean cell = %q, want %q", got.Rows[0][2], want)
	}
}

func TestAggregateSuffixAndDecimals(t *testing.T) {
	got, err := aggregateTables([]tableJSON{
		sampleTable("1.00x"), sampleTable("3.00x"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "2.00±1.41x"; got.Rows[0][2] != want {
		t.Fatalf("suffixed cell = %q, want %q", got.Rows[0][2], want)
	}
}

func TestAggregateIdenticalNumericPassThrough(t *testing.T) {
	got, err := aggregateTables([]tableJSON{sampleTable("64"), sampleTable("64")})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][2] != "64" {
		t.Fatalf("identical numeric cell reformatted to %q", got.Rows[0][2])
	}
}

func TestAggregateZeroSpreadOmitsStddev(t *testing.T) {
	// Different strings, same value: zero spread, no ± annotation, and the
	// output adopts the widest decimal count seen.
	got, err := aggregateTables([]tableJSON{sampleTable("12"), sampleTable("12.0")})
	if err != nil {
		t.Fatal(err)
	}
	if want := "12.0"; got.Rows[0][2] != want {
		t.Fatalf("cell = %q, want %q (zero spread omits ±)", got.Rows[0][2], want)
	}
}

func TestAggregateRejectsMismatches(t *testing.T) {
	base := sampleTable("10")
	retitled := sampleTable("10")
	retitled.Title = "renamed"
	reheaded := sampleTable("10")
	reheaded.Header = []string{"benchmark", "map", "paths"}
	extraRow := sampleTable("10")
	extraRow.Rows = append(extraRow.Rows, []string{"licm", "2M", "5"})
	labelFlip := sampleTable("10")
	labelFlip.Rows[0][0] = "licm"

	tests := []struct {
		name string
		in   []tableJSON
	}{
		{"zero tables", nil},
		{"title drift", []tableJSON{base, retitled}},
		{"header drift", []tableJSON{base, reheaded}},
		{"row count drift", []tableJSON{base, extraRow}},
		{"label drift", []tableJSON{base, labelFlip}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := aggregateTables(tc.in); !errors.Is(err, errSchema) {
				t.Fatalf("got %v, want errSchema", err)
			}
		})
	}
}

func TestSplitNumeric(t *testing.T) {
	tests := []struct {
		in       string
		val      float64
		suffix   string
		decimals int
		ok       bool
	}{
		{"12", 12, "", 0, true},
		{"-3.50", -3.5, "", 2, true},
		{"25.64%", 25.64, "%", 2, true},
		{"2.50x", 2.5, "x", 2, true},
		{"64k", 64, "k", 0, true},
		{"gvn", 0, "", 0, false},
		{"", 0, "", 0, false},
		{"v1.2.3", 0, "", 0, false},
		{"merged", 0, "", 0, false},
	}
	for _, tc := range tests {
		val, suffix, dec, ok := splitNumeric(tc.in)
		if ok != tc.ok || (ok && (val != tc.val || suffix != tc.suffix || dec != tc.decimals)) {
			t.Errorf("splitNumeric(%q) = (%v,%q,%d,%v), want (%v,%q,%d,%v)",
				tc.in, val, suffix, dec, ok, tc.val, tc.suffix, tc.decimals, tc.ok)
		}
	}
}

func TestReportRoundTripsThroughJSON(t *testing.T) {
	rep := &gridReport{Schema: reportSchema}
	rep.Tables = append(rep.Tables, fromTable(
		"Figure 3", []string{"note"}, []string{"op", "ns"}, [][]string{{"classify", "42"}}))
	var buf bytes.Buffer
	if err := rep.write(&buf); err != nil {
		t.Fatal(err)
	}
	var back gridReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if back.Schema != reportSchema || len(back.Tables) != 1 {
		t.Errorf("round trip lost data: schema %q, %d tables", back.Schema, len(back.Tables))
	}
	if back.Tables[0].Rows[0][1] != "42" {
		t.Errorf("table payload lost: %+v", back.Tables[0])
	}
}

func TestFromTableCopies(t *testing.T) {
	rows := [][]string{{"a", "b"}}
	tab := fromTable("t", nil, []string{"h"}, rows)
	rows[0][0] = "mutated"
	if tab.Rows[0][0] != "a" {
		t.Error("fromTable aliases caller rows")
	}
}
