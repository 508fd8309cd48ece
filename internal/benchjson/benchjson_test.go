package benchjson

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestReportRoundTripsThroughJSON(t *testing.T) {
	rep := &Report{Schema: Schema}
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
	if back.Schema != Schema || len(back.Tables) != 1 {
		t.Errorf("round trip lost data: schema %q, %d tables", back.Schema, len(back.Tables))
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
