package telemetry

import "sync"

// eventLogSize is the ring capacity: enough to hold a long campaign's cold
// milestones (checkpoints, revivals, saturation, signals) without growing.
const eventLogSize = 256

// Event is one timestamped campaign milestone. AtNanos is monotonic
// nanoseconds since process start (see Now), not wall-clock time.
type Event struct {
	AtNanos int64  `json:"at_ns"`
	Name    string `json:"name"`
	Detail  string `json:"detail,omitempty"`
}

// EventLog is a fixed-capacity ring buffer of events. Add is cheap but takes
// a mutex — events are cold-path by design (a checkpoint save, an instance
// revival), never per-execution. A nil *EventLog ignores writes.
type EventLog struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total uint64
}

func newEventLog(capacity int) *EventLog {
	return &EventLog{buf: make([]Event, 0, capacity)}
}

// Add appends an event, evicting the oldest once the ring is full.
func (l *EventLog) Add(name, detail string) {
	if l == nil {
		return
	}
	e := Event{AtNanos: Now(), Name: name, Detail: detail}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
		return
	}
	l.buf[l.next] = e
	l.next = (l.next + 1) % len(l.buf)
}

// Snapshot returns the retained events oldest-first and the total number
// ever recorded (which exceeds len(events) once the ring has wrapped).
func (l *EventLog) Snapshot() ([]Event, uint64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out, l.total
}
