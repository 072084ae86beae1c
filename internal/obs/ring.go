package obs

import "sync"

// DefaultRingCapacity bounds the event ring of a fresh Registry. It holds
// the full GC and iteration event stream of a typical repro run; at 72
// bytes per Event a full ring is about 295 KB, allocated only as events
// arrive.
const DefaultRingCapacity = 4096

// Event is one runtime occurrence: a collection, an iteration boundary, a
// page-manager release. Kind names the occurrence, Label refines it, and
// A/B/C carry kind-specific payloads (documented at the Ev* constants).
type Event struct {
	Seq   uint64 `json:"seq"`
	Nanos int64  `json:"t_ns"` // nanoseconds since the registry was created
	Kind  string `json:"kind"`
	Label string `json:"label,omitempty"`
	A     int64  `json:"a,omitempty"`
	B     int64  `json:"b,omitempty"`
	C     int64  `json:"c,omitempty"`
}

// Ring is a bounded event buffer: when full, new events overwrite the
// oldest. Sequence numbers are global, so a snapshot reveals how many
// events were dropped.
type Ring struct {
	mu    sync.Mutex
	buf   []Event // grows to limit as events arrive
	limit int
	next  uint64 // total events ever appended
}

// NewRing creates a ring holding up to capacity events. It allocates no
// event storage until the first Append.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{limit: capacity}
}

// Append records an event, assigning its sequence number.
func (r *Ring) Append(e Event) {
	r.mu.Lock()
	e.Seq = r.next
	if len(r.buf) < r.limit {
		if len(r.buf) == cap(r.buf) {
			// Double, but never past the limit: append's own growth
			// would overshoot it on the last step.
			grown := make([]Event, len(r.buf), min(max(2*len(r.buf), 16), r.limit))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next%uint64(r.limit)] = e
	}
	r.next++
	r.mu.Unlock()
}

// Len returns the number of events currently buffered.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns the number of events ever appended (including overwritten
// ones).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Snapshot returns the buffered events oldest-first.
func (r *Ring) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.buf))
	if len(r.buf) < r.limit {
		copy(out, r.buf)
		return out
	}
	head := int(r.next % uint64(r.limit)) // oldest element
	n := copy(out, r.buf[head:])
	copy(out[n:], r.buf[:head])
	return out
}
