package serve

import (
	"net/http/httptest"
	"testing"

	"github.com/bigmap/bigmap/internal/corpusd"
)

// TestCampaignSyncsThroughCorpusService runs a daemon with CorpusURL pointed
// at a real corpusd behind HTTP: the campaign must attach, push its corpus
// and coverage through the service, and still finish normally.
func TestCampaignSyncsThroughCorpusService(t *testing.T) {
	store, err := corpusd.New("", nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(store.Handler())
	defer srv.Close()

	cfg := testConfig(t.TempDir())
	cfg.CorpusURL = srv.URL
	d := openTest(t, cfg)
	spec := testSpec(4)
	spec.Instances = 2
	info := submit(t, d, "acme", spec)
	waitFor(t, d, info.ID, "finished", func(i *Info) bool { return i.State == StateFinished })

	st, err := store.Stats(info.ID)
	if err != nil {
		t.Fatalf("service has no campaign %s: %v", info.ID, err)
	}
	if st.Workers != 2 {
		t.Errorf("service workers = %d, want 2", st.Workers)
	}
	if st.Batches == 0 || st.Inputs == 0 || st.UnionDiscovered == 0 {
		t.Errorf("service saw no traffic: %+v", st)
	}

	events, err := d.Events(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	attached := false
	for _, ev := range events {
		if ev.Name == "corpus_attached" {
			attached = true
		}
		if ev.Name == "sync_error" {
			t.Errorf("sync error against a live service: %s", ev.Detail)
		}
	}
	if !attached {
		t.Fatal("no corpus_attached event")
	}
}

// TestCorpusServiceUnreachableDegrades pins the overlay contract: a dead
// corpus URL must not fail submissions — the campaign runs local-only with a
// corpus_unreachable event.
func TestCorpusServiceUnreachableDegrades(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.CorpusURL = "http://127.0.0.1:1" // nothing listens on port 1
	d := openTest(t, cfg)
	info := submit(t, d, "acme", testSpec(2))
	waitFor(t, d, info.ID, "finished", func(i *Info) bool { return i.State == StateFinished })

	events, err := d.Events(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	unreachable := false
	for _, ev := range events {
		if ev.Name == "corpus_unreachable" {
			unreachable = true
		}
	}
	if !unreachable {
		t.Fatal("no corpus_unreachable event")
	}
}
