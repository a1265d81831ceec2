package obs

import (
	"bytes"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Triggered profile store: a bounded ring of short pprof captures fired by
// the conditions worth profiling — a request slower than the trace store's
// slow threshold, the admission queue bouncing work with 429s, an RNS
// bad-prime replacement storm — instead of a human racing to attach pprof
// while the anomaly is still happening. Each capture is tagged with the
// trace id that tripped it, so /debug/traces entries cross-link to the
// profiles recorded while they ran and vice versa. A heap capture is
// synchronous (one WriteTo into a buffer); a CPU capture runs for a short
// fixed window on a background goroutine, guarded so only one is in flight
// process-wide (the runtime allows a single CPU profile at a time, and a
// second trigger during the window would add nothing but contention).

// Trigger reasons recorded on ProfileCapture.Trigger.
const (
	TriggerSlowRequest     = "slow_request"     // wall time ≥ the -trace-slow threshold
	TriggerQueueSaturation = "queue_saturation" // admission queue full, request bounced
	TriggerBadPrimeStorm   = "bad_prime_storm"  // RNS replaced many primes in a short window
	TriggerManual          = "manual"           // explicit capture (tests, operators)
)

// Profile-store telemetry on /metrics (kp_profile_store_…).
var (
	profilesCaptured   = NewCounter("profile.store.captured")
	profilesSuppressed = NewCounter("profile.store.suppressed")
)

// ProfileCapture is one retained pprof capture. Data is the raw pprof
// protobuf (gzip), served by /debug/profiles?id=.
type ProfileCapture struct {
	ID      int64         `json:"id"`
	Kind    string        `json:"kind"` // "heap" or "cpu"
	Trigger string        `json:"trigger"`
	TraceID string        `json:"trace_id,omitempty"`
	Detail  string        `json:"detail,omitempty"`
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"duration_ns"`
	Size    int           `json:"size_bytes"`

	data []byte
}

// ProfileStoreConfig configures a ProfileStore; zero values select
// defaults.
type ProfileStoreConfig struct {
	// Capacity bounds the ring (default 32 captures).
	Capacity int
	// CPUDuration is the CPU profiling window per trigger (default 250ms;
	// negative disables CPU capture, heap-only).
	CPUDuration time.Duration
	// Cooldown is the minimum interval between captures for the same
	// trigger reason (default 10s) — a storm of slow requests must produce
	// one profile, not a profiling storm.
	Cooldown time.Duration
}

// ProfileStore is the bounded triggered-capture ring. Safe for concurrent
// use.
type ProfileStore struct {
	cfg ProfileStoreConfig

	mu   sync.Mutex
	ring []ProfileCapture
	next int64                // captures ever admitted; ring slot is next % cap
	seq  int64                // id source
	last map[string]time.Time // last capture time per trigger (cooldown)

	cpuBusy atomic.Bool
}

// NewProfileStore returns a store for the config, resolving zero values.
func NewProfileStore(cfg ProfileStoreConfig) *ProfileStore {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 32
	}
	if cfg.CPUDuration == 0 {
		cfg.CPUDuration = 250 * time.Millisecond
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 10 * time.Second
	}
	return &ProfileStore{
		cfg:  cfg,
		ring: make([]ProfileCapture, 0, cfg.Capacity),
		last: make(map[string]time.Time),
	}
}

// Config returns the resolved configuration.
func (ps *ProfileStore) Config() ProfileStoreConfig { return ps.cfg }

// Trigger fires one capture round for the given reason: a synchronous heap
// capture plus, when configured and no other CPU profile is running, an
// asynchronous CPU capture over cfg.CPUDuration. It returns the heap
// capture's id (0 when the trigger was suppressed by the per-reason
// cooldown). The CPU capture lands in the ring when its window closes.
func (ps *ProfileStore) Trigger(trigger, traceID, detail string) int64 {
	ps.mu.Lock()
	now := time.Now()
	if t, ok := ps.last[trigger]; ok && now.Sub(t) < ps.cfg.Cooldown {
		ps.mu.Unlock()
		profilesSuppressed.Inc()
		return 0
	}
	ps.last[trigger] = now
	ps.mu.Unlock()

	id := ps.captureHeap(trigger, traceID, detail)
	if ps.cfg.CPUDuration > 0 {
		ps.captureCPU(trigger, traceID, detail)
	}
	return id
}

// captureHeap snapshots the heap profile synchronously — deterministic for
// tests and cheap enough (one allocation-record walk) for a request path
// that already blew its latency budget.
func (ps *ProfileStore) captureHeap(trigger, traceID, detail string) int64 {
	start := time.Now()
	var buf bytes.Buffer
	p := pprof.Lookup("heap")
	if p == nil {
		return 0
	}
	if err := p.WriteTo(&buf, 0); err != nil {
		return 0
	}
	return ps.admit(ProfileCapture{
		Kind: "heap", Trigger: trigger, TraceID: traceID, Detail: detail,
		Start: start, Dur: time.Since(start), Size: buf.Len(), data: buf.Bytes(),
	})
}

// captureCPU runs one CPU profiling window on a background goroutine. The
// runtime supports a single CPU profile process-wide, so a second trigger
// while one is running is dropped (counted as suppressed).
func (ps *ProfileStore) captureCPU(trigger, traceID, detail string) {
	if !ps.cpuBusy.CompareAndSwap(false, true) {
		profilesSuppressed.Inc()
		return
	}
	go func() {
		defer ps.cpuBusy.Store(false)
		start := time.Now()
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			// Someone else (net/http/pprof, a test) holds the profiler.
			profilesSuppressed.Inc()
			return
		}
		time.Sleep(ps.cfg.CPUDuration)
		pprof.StopCPUProfile()
		ps.admit(ProfileCapture{
			Kind: "cpu", Trigger: trigger, TraceID: traceID, Detail: detail,
			Start: start, Dur: time.Since(start), Size: buf.Len(), data: buf.Bytes(),
		})
	}()
}

// admit appends a capture to the ring, evicting oldest-first, and returns
// its id.
func (ps *ProfileStore) admit(c ProfileCapture) int64 {
	ps.mu.Lock()
	ps.seq++
	c.ID = ps.seq
	if len(ps.ring) < cap(ps.ring) {
		ps.ring = append(ps.ring, c)
	} else {
		ps.ring[ps.next%int64(cap(ps.ring))] = c
	}
	ps.next++
	ps.mu.Unlock()
	profilesCaptured.Inc()
	return c.ID
}

// Profiles returns the retained capture summaries, newest first, without
// profile bytes.
func (ps *ProfileStore) Profiles() []ProfileCapture {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := make([]ProfileCapture, 0, len(ps.ring))
	for k := int64(1); k <= int64(len(ps.ring)); k++ {
		c := ps.ring[(ps.next-k)%int64(cap(ps.ring))]
		c.data = nil
		out = append(out, c)
	}
	return out
}

// Get returns the capture with the given id and its pprof bytes.
func (ps *ProfileStore) Get(id int64) (ProfileCapture, []byte, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for i := range ps.ring {
		if ps.ring[i].ID == id {
			return ps.ring[i], ps.ring[i].data, true
		}
	}
	return ProfileCapture{}, nil, false
}

// IDsForTrace returns the ids of retained captures tagged with the trace
// id — the cross-link /debug/traces surfaces beside each entry.
func (ps *ProfileStore) IDsForTrace(traceID string) []int64 {
	if traceID == "" {
		return nil
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var ids []int64
	for i := range ps.ring {
		if ps.ring[i].TraceID == traceID {
			ids = append(ids, ps.ring[i].ID)
		}
	}
	return ids
}

// Len returns the number of retained captures.
func (ps *ProfileStore) Len() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.ring)
}

// activeProfiles is the process-global profile store /debug/profiles serves
// and the trigger sites fire into; nil disables triggered profiling.
var activeProfiles atomic.Pointer[ProfileStore]

// SetProfileStore installs ps as the process-global profile store (nil
// disables).
func SetProfileStore(ps *ProfileStore) { activeProfiles.Store(ps) }

// ActiveProfileStore returns the installed profile store, or nil.
func ActiveProfileStore() *ProfileStore { return activeProfiles.Load() }

// TriggerProfile fires the process-global store when one is installed; the
// trigger sites (server slow path, admission 429, bad-prime storm) call
// this without caring whether profiling is on.
func TriggerProfile(trigger, traceID, detail string) int64 {
	if ps := ActiveProfileStore(); ps != nil {
		return ps.Trigger(trigger, traceID, detail)
	}
	return 0
}

// Bad-prime storm detection. Every RNS prime replacement lands here (one
// mutex hold); when stormThreshold replacements arrive within stormWindow,
// the bad_prime_storm profile trigger fires. Occasional replacements are
// the Las Vegas design working as intended — a storm means the prime pool
// or the input distribution changed character, which is worth a capture.
var badPrimeStorm struct {
	mu    sync.Mutex
	times []time.Time
}

// Storm parameters: package vars so the storm test can tighten them.
var (
	stormWindow    = 10 * time.Second
	stormThreshold = 8
)

// NoteBadPrimeReplacement records one RNS bad-prime replacement and fires
// the storm trigger when the recent-replacement rate crosses the
// threshold. traceID attributes the capture to the request whose solve
// tripped it ("" when no trace context was active).
func NoteBadPrimeReplacement(traceID string) {
	now := time.Now()
	badPrimeStorm.mu.Lock()
	keep := badPrimeStorm.times[:0]
	for _, t := range badPrimeStorm.times {
		if now.Sub(t) < stormWindow {
			keep = append(keep, t)
		}
	}
	badPrimeStorm.times = append(keep, now)
	storm := len(badPrimeStorm.times) >= stormThreshold
	if storm {
		// Reset so the next storm is detected afresh; the profile store's
		// cooldown also rate-limits captures if replacements keep coming.
		badPrimeStorm.times = badPrimeStorm.times[:0]
	}
	badPrimeStorm.mu.Unlock()
	if storm {
		TriggerProfile(TriggerBadPrimeStorm, traceID, "rns bad-prime replacement storm")
	}
}
