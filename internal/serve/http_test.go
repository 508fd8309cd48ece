package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/bigmap/bigmap/internal/crash"
	"github.com/bigmap/bigmap/internal/dist"
	"github.com/bigmap/bigmap/internal/telemetry"
)

// httpDaemon boots a daemon behind an httptest server.
func httpDaemon(t *testing.T, cfg Config) (*Daemon, *httptest.Server) {
	t.Helper()
	d := openTest(t, cfg)
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	return d, srv
}

func doJSON(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode response: %v", method, url, err)
		}
	}
	return resp
}

// TestHTTPSession walks the README quickstart flow end to end over real
// HTTP: submit, inspect, pause, resume, observe, cancel.
func TestHTTPSession(t *testing.T) {
	_, srv := httpDaemon(t, testConfig(t.TempDir()))
	base := srv.URL

	var health map[string]string
	if resp := doJSON(t, "GET", base+"/healthz", nil, &health); resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// Submit.
	var info Info
	resp := doJSON(t, "POST", base+"/campaigns", SubmitRequest{Tenant: "acme", Spec: testSpec(1 << 18)}, &info)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/campaigns/"+info.ID {
		t.Fatalf("submit Location %q", loc)
	}

	// List and get.
	var list []Info
	doJSON(t, "GET", base+"/campaigns?tenant=acme", nil, &list)
	if len(list) != 1 || list[0].ID != info.ID {
		t.Fatalf("list: %+v", list)
	}
	var got Info
	if resp := doJSON(t, "GET", base+"/campaigns/"+info.ID, nil, &got); resp.StatusCode != 200 {
		t.Fatalf("get: %d", resp.StatusCode)
	}

	// Wait for progress through the HTTP surface only.
	deadline := 30 * time.Second / time.Millisecond
	var stats CampaignStats
	for i := time.Duration(0); ; i++ {
		doJSON(t, "GET", base+"/campaigns/"+info.ID+"/stats", nil, &stats)
		if stats.Rounds > 0 {
			break
		}
		if i > deadline {
			t.Fatal("campaign never progressed")
		}
		time.Sleep(time.Millisecond)
	}
	if stats.Execs == 0 {
		t.Fatalf("progress with zero execs: %+v", stats)
	}

	// Pause, resume.
	var paused Info
	if resp := doJSON(t, "POST", base+"/campaigns/"+info.ID+"/pause", nil, &paused); resp.StatusCode != 200 {
		t.Fatalf("pause: %d", resp.StatusCode)
	}
	if paused.State != StatePaused {
		t.Fatalf("pause ack state %s", paused.State)
	}
	var resumed Info
	if resp := doJSON(t, "POST", base+"/campaigns/"+info.ID+"/resume", nil, &resumed); resp.StatusCode != 200 {
		t.Fatalf("resume: %d", resp.StatusCode)
	}

	// Observability endpoints: every campaign records into its own registry.
	var events []telemetry.Event
	doJSON(t, "GET", base+"/campaigns/"+info.ID+"/events", nil, &events)
	seen := map[string]bool{}
	for _, e := range events {
		seen[e.Name] = true
	}
	for _, want := range []string{"paused", "resumed"} {
		if !seen[want] {
			t.Errorf("event log missing %q: have %v", want, seen)
		}
	}
	var buckets []crash.Record
	doJSON(t, "GET", base+"/campaigns/"+info.ID+"/crashes", nil, &buckets)

	metrics, err := http.Get(base + "/campaigns/" + info.ID + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	body, _ := io.ReadAll(metrics.Body)
	metrics.Body.Close()
	if metrics.StatusCode == 200 && !strings.Contains(string(body), "fuzz") {
		t.Errorf("campaign metrics look empty: %.120s", body)
	}

	var ds DaemonStats
	doJSON(t, "GET", base+"/stats", nil, &ds)
	if ds.Workers != 1 || len(ds.Campaigns) == 0 {
		t.Fatalf("daemon stats: %+v", ds)
	}

	// Cancel; further transitions conflict.
	var cancelled Info
	if resp := doJSON(t, "POST", base+"/campaigns/"+info.ID+"/cancel", nil, &cancelled); resp.StatusCode != 200 {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	if cancelled.State != StateCancelled {
		t.Fatalf("cancel ack state %s", cancelled.State)
	}
	var er dist.WireError
	if resp := doJSON(t, "POST", base+"/campaigns/"+info.ID+"/resume", nil, &er); resp.StatusCode != http.StatusConflict {
		t.Fatalf("resume after cancel: %d, want 409", resp.StatusCode)
	}
}

func TestHTTPErrors(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.TenantQuota = 1
	cfg.Chaos = false
	d, srv := httpDaemon(t, cfg)
	base := srv.URL

	// Malformed and invalid submissions: 400.
	resp, err := http.Post(base+"/campaigns", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d, want 400", resp.StatusCode)
	}
	var er dist.WireError
	if resp := doJSON(t, "POST", base+"/campaigns", SubmitRequest{Spec: Spec{Bench: "nope", Rounds: 1}}, &er); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d, want 400", resp.StatusCode)
	}
	if er.Error == "" {
		t.Fatal("error response has empty message")
	}

	// Unknown campaign: 404.
	if resp := doJSON(t, "GET", base+"/campaigns/c424242", nil, &er); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign: %d, want 404", resp.StatusCode)
	}

	// Chaos endpoint hidden when disabled: 404.
	var info Info
	doJSON(t, "POST", base+"/campaigns", SubmitRequest{Tenant: "acme", Spec: testSpec(1 << 18)}, &info)
	if resp := doJSON(t, "POST", base+"/campaigns/"+info.ID+"/kill", nil, &er); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("kill without chaos: %d, want 404", resp.StatusCode)
	}

	// Quota exceeded: 429 with a Retry-After hint, while the admitted
	// campaign keeps running.
	resp = doJSON(t, "POST", base+"/campaigns", SubmitRequest{Tenant: "acme", Spec: testSpec(2)}, &er)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over quota: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	var stats CampaignStats
	for i := 0; ; i++ {
		doJSON(t, "GET", base+fmt.Sprintf("/campaigns/%s/stats", info.ID), nil, &stats)
		if stats.Rounds > 0 {
			break
		}
		if i > 30000 {
			t.Fatal("admitted campaign starved while daemon shed load")
		}
		time.Sleep(time.Millisecond)
	}

	// Draining: healthz and submissions answer 503.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	resp = doJSON(t, "POST", base+"/campaigns", SubmitRequest{Tenant: "zed", Spec: testSpec(2)}, &er)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", hresp.StatusCode)
	}
}

// TestSubmitRejectsUnknownFields pins the strict decoder on POST /campaigns:
// a field the spec does not define — including the retired "selective" and
// "batch_size" knobs — is a 400 that names the field, never a silently
// ignored option.
func TestSubmitRejectsUnknownFields(t *testing.T) {
	_, srv := httpDaemon(t, testConfig(t.TempDir()))
	spec, err := json.Marshal(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	withField := func(field string) string {
		return `{"tenant":"acme","spec":{"` + field + `,` + string(spec[1:]) + `}`
	}
	cases := []struct{ field, body string }{
		{"selective", withField(`selective":true`)},
		{"batch_size", withField(`batch_size":8`)},
		{"turbo", withField(`turbo":1`)},
		{"priority", `{"tenant":"acme","priority":3,"spec":` + string(spec) + `}`},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+"/campaigns", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var er dist.WireError
		decErr := json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", c.field, resp.StatusCode)
		}
		if decErr != nil {
			t.Fatalf("%s: decode error response: %v", c.field, decErr)
		}
		if !strings.Contains(er.Error, `"`+c.field+`"`) {
			t.Fatalf("%s: error %q does not name the field", c.field, er.Error)
		}
	}
}

// TestCrashesEmptyIsArray pins that a campaign without crash buckets
// answers GET /campaigns/{id}/crashes with [], never null.
func TestCrashesEmptyIsArray(t *testing.T) {
	d, srv := httpDaemon(t, testConfig(t.TempDir()))
	spec := testSpec(1)
	spec.Bench = "sqlite3"
	info := submit(t, d, "acme", spec)
	final := waitFor(t, d, info.ID, "finished", func(i *Info) bool { return i.State == StateFinished })
	if final.Stats == nil || final.Stats.UniqueCrashes != 0 {
		t.Fatalf("campaign found crash buckets, want none: %+v", final.Stats)
	}
	resp, err := http.Get(srv.URL + "/campaigns/" + info.ID + "/crashes")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || string(body) != "[]\n" {
		t.Fatalf("crashes: %d %q, %v; want 200 \"[]\\n\"", resp.StatusCode, body, err)
	}
}
