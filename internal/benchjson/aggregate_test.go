package benchjson

import (
	"errors"
	"reflect"
	"testing"
)

func sampleTable(cells ...string) TableJSON {
	return TableJSON{
		Title:  "Figure X: sample",
		Header: []string{"benchmark", "map", "edges"},
		Rows:   [][]string{append([]string{"gvn", "64k"}, cells...)},
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	rep := &Report{
		Schema: Schema,
		Tables: []TableJSON{sampleTable("12")},
	}
	if err := Validate(rep); err != nil {
		t.Fatalf("well-formed report rejected: %v", err)
	}
}

// TestValidateEdgeCases is the table-driven "empty grid" sweep: every way an
// artifact can be hollow or ragged must be rejected with ErrSchema.
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
		rep  *Report
	}{
		{"nil report", nil},
		{"wrong schema", &Report{Schema: "bogus/v9", Tables: []TableJSON{sampleTable("1")}}},
		{"empty grid", &Report{Schema: Schema}},
		{"ragged table", &Report{Schema: Schema, Tables: []TableJSON{ragged}}},
		{"untitled table", &Report{Schema: Schema, Tables: []TableJSON{noTitle}}},
		{"headerless table", &Report{Schema: Schema, Tables: []TableJSON{noHeader}}},
		{"blank header column", &Report{Schema: Schema, Tables: []TableJSON{blankCol}}},
		{"rowless table", &Report{Schema: Schema, Tables: []TableJSON{noRows}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := Validate(tc.rep); !errors.Is(err, ErrSchema) {
				t.Fatalf("got %v, want ErrSchema", err)
			}
		})
	}
}

// TestAggregateSingleRepeat: one repeat passes through verbatim — no ±0
// annotations, no reformatting. This is the "single-repeat stddev" edge: the
// stddev is undefined at n=1 and must not leak into the artifact.
func TestAggregateSingleRepeat(t *testing.T) {
	in := sampleTable("12.50")
	got, err := AggregateTables([]TableJSON{in})
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
	got, err := AggregateTables([]TableJSON{
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
	got, err := AggregateTables([]TableJSON{
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
	got, err := AggregateTables([]TableJSON{sampleTable("64"), sampleTable("64")})
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
	got, err := AggregateTables([]TableJSON{sampleTable("12"), sampleTable("12.0")})
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
		in   []TableJSON
	}{
		{"zero tables", nil},
		{"title drift", []TableJSON{base, retitled}},
		{"header drift", []TableJSON{base, reheaded}},
		{"row count drift", []TableJSON{base, extraRow}},
		{"label drift", []TableJSON{base, labelFlip}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := AggregateTables(tc.in); !errors.Is(err, ErrSchema) {
				t.Fatalf("got %v, want ErrSchema", err)
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
