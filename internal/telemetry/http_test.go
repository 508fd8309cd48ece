package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerEndpoints(t *testing.T) {
	r := New()
	r.Counter("execs_total").Add(42)
	r.Histogram("exec_ns").Observe(100)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "bigmap_execs_total 42") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	code, body := get("/stats")
	if code != 200 {
		t.Fatalf("/stats = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/stats is not JSON: %v\n%s", err, body)
	}
	if snap.Counters["execs_total"] != 42 {
		t.Fatalf("/stats counters = %+v", snap.Counters)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index = %d:\n%s", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("unknown path = %d, want 404", code)
	}
}

func TestHandlerNilRegistry(t *testing.T) {
	srv := httptest.NewServer(Handler(nil))
	defer srv.Close()
	for path, want := range map[string]int{
		"/metrics":             http.StatusServiceUnavailable,
		"/stats":               http.StatusServiceUnavailable,
		"/debug/pprof/cmdline": http.StatusOK,
		"/":                    http.StatusOK,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}
