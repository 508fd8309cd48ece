package telemetry

import (
	"sync"
	"testing"
)

// TestSnapshotUnderConcurrentRecording hammers Snapshot (and the Prometheus
// renderer) while recorder goroutines write every metric kind. Run under
// -race this proves the lock discipline: registration under the registry
// mutex, metric updates lock-free atomics, event log under its own mutex.
func TestSnapshotUnderConcurrentRecording(t *testing.T) {
	r := New()
	const (
		recorders = 8
		iters     = 2000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(recorders)
	for g := 0; g < recorders; g++ {
		go func(g int) {
			defer wg.Done()
			c := r.Counter("execs_total")
			h := r.Histogram("exec_ns")
			gauge := r.Gauge("queue_paths")
			for i := 0; i < iters; i++ {
				c.Inc()
				h.Observe(uint64(g*iters + i))
				gauge.Set(int64(i))
				if i%256 == 0 {
					// Cold-path writes: new registrations and events.
					r.Counter("late_total").Inc()
					r.Event("tick", "")
				}
			}
		}(g)
	}

	// Concurrent readers: snapshots and renders must never race or crash.
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = WritePrometheus(discard{}, r.Snapshot())
			}
		}
	}()

	wg.Wait()
	close(stop)
	readers.Wait()

	s := r.Snapshot()
	if want := uint64(recorders * iters); s.Counters["execs_total"] != want {
		t.Fatalf("execs_total = %d, want %d", s.Counters["execs_total"], want)
	}
	if s.Histograms["exec_ns"].Count != uint64(recorders*iters) {
		t.Fatalf("exec_ns count = %d, want %d", s.Histograms["exec_ns"].Count, recorders*iters)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
