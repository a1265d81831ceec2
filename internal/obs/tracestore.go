package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Tail-sampling trace store: a bounded ring of completed request traces
// that decides retention after the request finishes, when its latency,
// status and Las Vegas attempt count are known — the opposite of head
// sampling, which must guess up front and therefore misses exactly the
// requests worth keeping. Every slow, errored or unlucky (more than one
// attempt) request is admitted; of the boring rest a deterministic 1-in-N
// sample survives so the store also shows what "normal" looks like. The
// ring evicts oldest-first regardless of why an entry was kept, bounding
// memory under any traffic mix.

// Trace-store telemetry on /metrics (kp_trace_store_…).
var (
	tracesKept    = NewCounter("trace.store.kept")
	tracesSampled = NewCounter("trace.store.sampled_out")
	tracesSize    = NewGauge("trace.store.size")
)

// Retention reasons recorded on RequestTrace.Kept.
const (
	KeptSlow    = "slow"    // wall time ≥ SlowThreshold
	KeptError   = "error"   // HTTP status ≥ 400 (429/503/422/504/5xx)
	KeptUnlucky = "unlucky" // more than one Las Vegas attempt
	KeptSampled = "sampled" // the 1-in-SampleEvery background sample
)

// RequestTrace is one completed request as retained by the TraceStore: the
// request summary plus its span tree (the scope's collected SpanRecords,
// each tagged with the trace id).
type RequestTrace struct {
	TraceID      string        `json:"trace_id"`
	SpanID       string        `json:"span_id"`                  // this process's root span id
	ParentSpanID string        `json:"parent_span_id,omitempty"` // caller's span id from the incoming traceparent
	Route        string        `json:"route"`
	N            int           `json:"n,omitempty"`
	Status       int           `json:"status"`
	Cache        string        `json:"cache,omitempty"`
	Attempts     int           `json:"attempts"`
	Error        string        `json:"error,omitempty"`
	Start        time.Time     `json:"start"`
	Wall         time.Duration `json:"wall_ns"`
	QueueWait    time.Duration `json:"queue_wait_ns"`
	Kept         string        `json:"kept"` // retention reason (one of the Kept* constants)
	Spans        []SpanRecord  `json:"spans,omitempty"`
	SpansDropped int64         `json:"spans_dropped,omitempty"`
}

// TraceStoreConfig configures a TraceStore; zero values select defaults.
type TraceStoreConfig struct {
	// Capacity bounds the ring (default 256 traces).
	Capacity int
	// SlowThreshold marks a request slow (always retained); default 250ms.
	SlowThreshold time.Duration
	// SampleEvery keeps 1 in SampleEvery boring requests (default 16;
	// 1 keeps everything). The sample is a deterministic counter, not a
	// coin flip, so retention is reproducible under test.
	SampleEvery int
}

// TraceStore is the bounded tail-sampling ring. Safe for concurrent use.
type TraceStore struct {
	cfg TraceStoreConfig

	mu     sync.Mutex
	ring   []RequestTrace
	next   int64 // traces ever admitted; ring slot is next % len(ring)
	boring int64 // boring requests seen, for the 1-in-N sample
}

// NewTraceStore returns a store for the config, resolving zero values.
func NewTraceStore(cfg TraceStoreConfig) *TraceStore {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = 250 * time.Millisecond
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 16
	}
	return &TraceStore{cfg: cfg, ring: make([]RequestTrace, 0, cfg.Capacity)}
}

// Config returns the resolved configuration.
func (ts *TraceStore) Config() TraceStoreConfig { return ts.cfg }

// Record applies the tail-sampling policy to one completed request. It
// stamps rt.Kept with the retention reason and returns whether the trace
// was admitted; sampled-out traces are counted and discarded.
func (ts *TraceStore) Record(rt RequestTrace) bool {
	switch {
	case rt.Status >= 400:
		rt.Kept = KeptError
	case rt.Wall >= ts.cfg.SlowThreshold:
		rt.Kept = KeptSlow
	case rt.Attempts > 1:
		rt.Kept = KeptUnlucky
	default:
		ts.mu.Lock()
		ts.boring++
		sampled := ts.boring%int64(ts.cfg.SampleEvery) == 1 || ts.cfg.SampleEvery == 1
		ts.mu.Unlock()
		if !sampled {
			tracesSampled.Inc()
			return false
		}
		rt.Kept = KeptSampled
	}
	ts.mu.Lock()
	if len(ts.ring) < cap(ts.ring) {
		ts.ring = append(ts.ring, rt)
	} else {
		ts.ring[ts.next%int64(cap(ts.ring))] = rt
	}
	ts.next++
	size := len(ts.ring)
	ts.mu.Unlock()
	tracesKept.Inc()
	tracesSize.Set(int64(size))
	return true
}

// Traces returns the retained traces, newest first.
func (ts *TraceStore) Traces() []RequestTrace {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]RequestTrace, 0, len(ts.ring))
	for k := int64(1); k <= int64(len(ts.ring)); k++ {
		out = append(out, ts.ring[(ts.next-k)%int64(cap(ts.ring))])
	}
	return out
}

// Get returns the retained trace with the given id.
func (ts *TraceStore) Get(traceID string) (RequestTrace, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for i := range ts.ring {
		if ts.ring[i].TraceID == traceID {
			return ts.ring[i], true
		}
	}
	return RequestTrace{}, false
}

// Len returns the number of retained traces.
func (ts *TraceStore) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.ring)
}

// activeStore is the process-global trace store /debug/traces serves and
// the kpd request pipeline records into; nil disables tail sampling.
var activeStore atomic.Pointer[TraceStore]

// SetTraceStore installs ts as the process-global trace store (nil
// disables).
func SetTraceStore(ts *TraceStore) { activeStore.Store(ts) }

// ActiveTraceStore returns the installed trace store, or nil.
func ActiveTraceStore() *TraceStore { return activeStore.Load() }
