package corpusd

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/bigmap/bigmap/internal/dist"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire_golden.txt")

// recordWire wraps h so that every exchange is appended to log: the request
// line and body exactly as the client sent them, then the status, content
// type and body exactly as the handler wrote them.
func recordWire(h http.Handler, log *bytes.Buffer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		fmt.Fprintf(log, ">>> %s %s\n%s\n", r.Method, r.URL.RequestURI(), body)
		fmt.Fprintf(log, "<<< %d %s\n%s", rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes())
		if !bytes.HasSuffix(rec.Body.Bytes(), []byte("\n")) {
			log.WriteByte('\n')
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes()) //bigmap:err-ok the client reads the recorded copy; a failed write fails its request
	})
}

// TestWireGolden pins the exact bytes of the v1 corpus protocol: every
// request body the dist.Client marshals and every response body the
// handler writes, including the error bodies with and without a code, a
// replayed push, empty pulls and an empty crash list (which must be [],
// never null). Regenerate with -update only for a deliberate protocol
// change.
func TestWireGolden(t *testing.T) {
	s, err := New(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var log bytes.Buffer
	srv := httptest.NewServer(recordWire(s.Handler(), &log))
	defer srv.Close()

	cl, err := dist.NewClient(srv.URL, "wire")
	if err != nil {
		t.Fatal(err)
	}
	cl.Retries = 0
	get := func(path string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustFail := func(err error) {
		t.Helper()
		if err == nil {
			t.Fatal("request succeeded, want an error response")
		}
	}

	get("/healthz")
	must(cl.EnsureCampaign(64))
	must(cl.EnsureCampaign(64))
	mustFail(cl.EnsureCampaign(128))
	_, err = cl.Push("ghost", dist.Batch{Seq: 1})
	mustFail(err)
	_, err = cl.Join("w1")
	must(err)
	_, err = cl.Join("w2")
	must(err)
	batch := dist.Batch{
		Seq:    1,
		Inputs: [][]byte{[]byte("alpha"), []byte("beta"), []byte("alpha")},
		Crashes: []dist.Crash{
			{Key: 11, Site: 5, StackDepth: 3, Input: []byte("crash")},
			{Key: 1 << 63, Site: 9, StackDepth: 0},
		},
		Delta: testDelta(t, 64, map[int]byte{2: 0x0F, 17: 0xF0}),
	}
	_, err = cl.Push("w1", batch)
	must(err)
	_, err = cl.Push("w1", batch) // replay: the stored receipt comes back
	must(err)
	_, err = cl.Push("w1", dist.Batch{Seq: 5})
	mustFail(err)
	_, err = cl.Pull("w2")
	must(err)
	_, err = cl.Pull("w2") // empty: nothing new since the last pull
	must(err)
	_, err = cl.Pull("w1") // empty: a worker never pulls its own inputs
	must(err)
	_, err = cl.Pull("ghost")
	mustFail(err)
	_, err = cl.Push("w2", dist.Batch{Seq: 1, Inputs: [][]byte{[]byte("beta"), []byte("gamma")}})
	must(err)
	_, err = cl.Push("w2", dist.Batch{Seq: 2}) // an empty batch
	must(err)
	_, err = cl.Join("w1") // a re-join reports the resume state
	must(err)
	_, err = cl.Stats()
	must(err)
	post("/v1/campaigns/wire/push", `{"worker":"w1","seq":2,"bogus":true}`)
	post("/v1/campaigns/wire/join", `{"worker":`)
	get("/v1/campaigns/wire/inputs/" + dist.HashInput([]byte("gamma")))
	get("/v1/campaigns/wire/inputs/00")
	get("/v1/campaigns/wire/crashes")
	get("/v1/campaigns/wire/ledger")

	empty, err := dist.NewClient(srv.URL, "empty")
	if err != nil {
		t.Fatal(err)
	}
	empty.Retries = 0
	must(empty.EnsureCampaign(128))
	get("/v1/campaigns/empty/crashes")
	get("/v1/campaigns/empty/ledger")
	_, err = empty.Stats()
	must(err)
	get("/v1/campaigns")
	get("/stats")
	get("/v1/campaigns/nope")

	golden := filepath.Join("testdata", "wire_golden.txt")
	if *updateWire {
		if err := os.WriteFile(golden, log.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := log.String(); got != string(want) {
		t.Fatalf("wire bytes differ from %s (rerun with -update only for a deliberate protocol change):\n%s",
			golden, firstDiff(got, string(want)))
	}
}

// firstDiff reports the first line at which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "(no line differs)"
}
