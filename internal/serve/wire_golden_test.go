package serve

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire_golden.txt")

// atNanosRE matches an event timestamp, the one field of the pinned bodies
// that reads the clock.
var atNanosRE = regexp.MustCompile(`"at_ns": ([0-9]+)`)

// TestWireGolden pins the exact response bytes of the read endpoints whose
// bodies are lists — a finished campaign's crash buckets and event log —
// and of the error bodies for an unknown campaign (404) and a shed
// submission (429). Event timestamps are checked to be non-decreasing and
// then zeroed; every other byte is compared. Regenerate with -update only
// for a deliberate API change.
func TestWireGolden(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.TenantQuota = 1
	_, srv := httpDaemon(t, cfg)
	var log bytes.Buffer
	type reply struct {
		status     int
		retryAfter string
		body       []byte
	}
	exchange := func(method, path, body string) reply {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return reply{resp.StatusCode, resp.Header.Get("Retry-After"), data}
	}
	pin := func(method, path string, r reply) {
		fmt.Fprintf(&log, ">>> %s %s\n<<< %d", method, path, r.status)
		if r.retryAfter != "" {
			fmt.Fprintf(&log, " Retry-After: %s", r.retryAfter)
		}
		fmt.Fprintf(&log, "\n%s", r.body)
	}
	do := func(method, path, body string) {
		t.Helper()
		pin(method, path, exchange(method, path, body))
	}

	// A libpng campaign finds crash buckets within a few rounds; it runs to
	// completion so its buckets and events are fixed.
	id := submitID(t, exchange("POST", "/campaigns",
		`{"tenant":"acme","spec":{"bench":"libpng","scale":0.02,"map_size":4096,"seed":7,"seed_corpus":4,"sync_every":200,"rounds":8}}`).body)
	// The "finished" event is logged after the state turns terminal, so
	// wait for the event.
	var events reply
	for i := 0; ; i++ {
		events = exchange("GET", "/campaigns/"+id+"/events", "")
		if strings.Contains(string(events.body), `"name": "finished"`) {
			break
		}
		if i > 30000 {
			t.Fatal("campaign never finished")
		}
		time.Sleep(time.Millisecond)
	}
	do("GET", "/campaigns/"+id+"/crashes", "")
	if !strings.Contains(log.String(), `"stack_depth"`) {
		t.Fatal("the pinned campaign found no crash bucket")
	}
	last := int64(-1)
	for _, m := range atNanosRE.FindAllSubmatch(events.body, -1) {
		at, err := strconv.ParseInt(string(m[1]), 10, 64)
		if err != nil || at < last {
			t.Fatalf("event timestamp %s after %d", m[1], last)
		}
		last = at
	}
	events.body = atNanosRE.ReplaceAll(events.body, []byte(`"at_ns": 0`))
	pin("GET", "/campaigns/"+id+"/events", events)

	do("GET", "/campaigns/c424242", "")
	do("GET", "/campaigns/c424242/crashes", "")
	do("GET", "/campaigns/c424242/events", "")

	// With the tenant's one slot held by a long campaign, the next
	// submission is shed.
	busy := submitID(t, exchange("POST", "/campaigns",
		`{"tenant":"acme","spec":{"bench":"zlib","scale":0.02,"map_size":4096,"rounds":1048576}}`).body)
	do("POST", "/campaigns", `{"tenant":"acme","spec":{"bench":"zlib","rounds":1}}`)
	exchange("POST", "/campaigns/"+busy+"/cancel", "")

	golden := filepath.Join("testdata", "wire_golden.txt")
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, log.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := log.String(); got != string(want) {
		t.Fatalf("response bytes differ from %s (rerun with -update only for a deliberate API change):\ngot:\n%s", golden, got)
	}
}

// submitID extracts the campaign ID from a submission's response body.
func submitID(t *testing.T, body []byte) string {
	t.Helper()
	m := regexp.MustCompile(`"id": "([^"]+)"`).FindSubmatch(body)
	if m == nil {
		t.Fatalf("submission answered without an id: %s", body)
	}
	return string(m[1])
}
