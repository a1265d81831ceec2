// Package obs is the solver-wide telemetry pipeline: hierarchical spans
// over the Kaltofen–Pan solve phases, named counters/gauges and lock-free
// log-bucketed histograms (phase latencies, retry counts, batch sizes,
// pool samples), Las Vegas attempt statistics compared against the paper's
// failure bounds (BoundsReport), an always-on flight recorder of recent
// solve summaries, and exporters — Chrome trace_event JSON and an
// embeddable HTTP Handler serving Prometheus text at /metrics plus a JSON
// /snapshot and /healthz — that make the paper's per-phase work/depth
// accounting and probabilistic claims measurable instead of asserted.
//
// The layer is off by default and built around a nil fast path: with no
// active Observer, StartPhase returns a nil *Span whose methods are no-ops,
// so an instrumented solve path costs one atomic pointer load per phase
// boundary (see BenchmarkSpanDisabled). Installing an Observer — via
// core.Options.Observer or obs.SetActive — turns the same call sites into
// real measurements.
//
// Spans record wall time, goroutine id, and the field-operation count that
// matrix.Instrumented folds into the innermost open span. Phase names
// follow the paper's algorithm steps (the constants below), so a trace of
// Theorem 4 reads as: precondition → krylov → minpoly → backsolve.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// phaseLatencyHists caches the per-phase latency histogram ("phase.latency.ns"
// family, one labeled series per phase name) so Span.End pays one sync.Map
// load instead of a registry lock per close.
var phaseLatencyHists sync.Map // phase name -> *Histogram

func phaseLatencyHist(name string) *Histogram {
	if h, ok := phaseLatencyHists.Load(name); ok {
		return h.(*Histogram)
	}
	h, _ := phaseLatencyHists.LoadOrStore(name, NewLabeledHistogram("phase.latency.ns", "phase", name))
	return h.(*Histogram)
}

// The canonical phase families are registered eagerly so /metrics and
// /snapshot expose every phase.latency.ns series — the rns/* ones included —
// from process start, not only after the first solve of that kind ran. The
// exposition-parity regression test leans on this: a family registered
// anywhere must appear on both endpoints.
func init() {
	for _, name := range []string{
		PhasePrecondition, PhaseKrylov, PhaseMinPoly, PhaseBacksolve,
		PhaseBatchPrecondition, PhaseBatchKrylov, PhaseBatchMinPoly,
		PhaseBatchBacksolve, PhaseBatchVerify,
		PhaseRNSPrimes, PhaseRNSResidue, PhaseRNSCRT, PhaseRNSVerify,
	} {
		phaseLatencyHist(name)
	}
}

// Span taxonomy: the KP91 (SPAA 1991) algorithm steps. Theorem 4 emits
// exactly these four top-level phases per attempt; the black-box
// (Wiedemann) route reuses the same names so phase totals aggregate across
// solvers.
const (
	// PhasePrecondition is Ã = A·H·D (Theorem 2 + equation (1)).
	PhasePrecondition = "precondition"
	// PhaseKrylov is the Krylov sequence {Ãⁱv} and its projection — the
	// doubling of display (9) in the traced circuit and on kernel-less
	// fields, iterative applies of Ã on concrete fields.
	PhaseKrylov = "krylov"
	// PhaseMinPoly is the minimum/characteristic-polynomial recovery: the
	// Lemma 1 Toeplitz system (§3) or Berlekamp–Massey.
	PhaseMinPoly = "minpoly"
	// PhaseBacksolve is the Cayley–Hamilton back-substitution and the
	// undoing of the preconditioner.
	PhaseBacksolve = "backsolve"
)

// Batch-engine phases: the multi-RHS solve engine (kp.SolveBatch /
// kp.Factor) shares one preconditioning, Krylov sequence and minimum
// polynomial across k right-hand sides, so its spans carry a "batch/"
// prefix to keep the amortized work distinguishable from the per-solve
// phases above. A Factored handle replays only batch/backsolve (and
// batch/verify) — the absence of further batch/krylov spans is the
// measurable statement that the Krylov phase was skipped.
const (
	// PhaseBatchPrecondition is the shared Ã = A·H·D of a batch attempt.
	PhaseBatchPrecondition = "batch/precondition"
	// PhaseBatchKrylov is the shared Krylov sequence and projection
	// (computed once per attempt, reused by every right-hand side).
	PhaseBatchKrylov = "batch/krylov"
	// PhaseBatchMinPoly is the shared characteristic-polynomial recovery.
	PhaseBatchMinPoly = "batch/minpoly"
	// PhaseBatchBacksolve is the fused multi-RHS Cayley–Hamilton
	// back-substitution and preconditioner undo.
	PhaseBatchBacksolve = "batch/backsolve"
	// PhaseBatchVerify is the blocked A·X = B verification.
	PhaseBatchVerify = "batch/verify"
)

// RNS/CRT multi-modulus phases: the ring-ℤ/ℚ engine (kp.IntEngine) splits
// an exact integer or rational problem into independent word-prime residue
// solves and recombines. The "rns/" prefix keeps the number-theoretic
// bookkeeping distinguishable from the per-residue Theorem 4 phases, which
// nest under each rns/residue span with their usual batch/* names.
const (
	// PhaseRNSPrimes is the certified prime-set generation: Hadamard/Cramer
	// bound → residue count → NTT-friendly word primes.
	PhaseRNSPrimes = "rns/primes"
	// PhaseRNSResidue is one residue field's solve: reduce mod p, factor
	// (or hit the per-prime factorization cache), backsolve. One span per
	// residue; they run concurrently across the worker pool.
	PhaseRNSResidue = "rns/residue"
	// PhaseRNSCRT is the Chinese-remainder combination and, for solves, the
	// per-coordinate rational reconstruction (the half-gcd lattice step).
	PhaseRNSCRT = "rns/crt"
	// PhaseRNSVerify is the a-posteriori exact check over ℤ: A·num = den·b
	// (solve) or a fresh check-prime residue comparison (det).
	PhaseRNSVerify = "rns/verify"
)

// SpanRecord is one completed span as stored in the Observer's ring (and,
// for spans opened under a request TraceScope, in the scope's collection
// serialized by the /debug/traces trace store).
type SpanRecord struct {
	ID       int64         `json:"id"`        // 1-based span id, unique per Observer
	Parent   int64         `json:"parent"`    // enclosing span's id, 0 for a top-level span
	Name     string        `json:"name"`      // phase name
	Start    time.Duration `json:"start_ns"`  // offset from the Observer's epoch
	Dur      time.Duration `json:"dur_ns"`    // wall time between StartPhase and End
	GID      int64         `json:"gid"`       // goroutine that started the span
	FieldOps uint64        `json:"field_ops"` // field operations folded in via AddFieldOps
	MulCalls uint64        `json:"mul_calls"` // multiplier invocations folded in
	// ApplyNs/ApplyCalls account the black-box matrix-vector products folded
	// in via AddApplyTime — the implicit-preconditioning pipeline's unit of
	// work, where MulCalls (dense matrix-matrix products) stays zero.
	ApplyNs    int64   `json:"apply_ns,omitempty"`
	ApplyCalls uint64  `json:"apply_calls,omitempty"`
	Trace      TraceID `json:"trace"` // owning request's trace id (zero for unscoped spans)
}

// Observer collects completed spans into a fixed-capacity ring buffer and
// anchors the trace timeline. One Observer watches one logical run; the
// process-global active Observer (SetActive) is what the solve-path
// call sites report to.
type Observer struct {
	epoch   time.Time
	ids     atomic.Int64
	current atomic.Pointer[Span]

	mu      sync.Mutex
	ring    []SpanRecord
	next    int64 // records ever completed; ring slot is next % len(ring)
	dropped int64
}

// DefaultCapacity is the span-ring capacity New uses for capacity ≤ 0.
// A Theorem 4 solve emits 4 spans per Las Vegas attempt, so the default
// holds thousands of attempts before wrapping.
const DefaultCapacity = 4096

// New returns an Observer whose ring holds capacity completed spans
// (DefaultCapacity if capacity ≤ 0). When the ring wraps, the oldest
// records are overwritten and Dropped reports how many were lost.
func New(capacity int) *Observer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Observer{epoch: time.Now(), ring: make([]SpanRecord, capacity)}
}

// active is the process-global Observer the package-level helpers report
// to; nil means observability is disabled (the fast path).
var active atomic.Pointer[Observer]

// SetActive installs o as the process-global active Observer (nil disables
// observability). The solve paths are instrumented against the active
// Observer, so concurrent solvers share it; per-run isolation is obtained
// by running one traced solve at a time, which is what the CLI tools do.
func SetActive(o *Observer) {
	if o == nil {
		active.Store(nil)
		return
	}
	active.Store(o)
}

// Active returns the process-global active Observer, or nil when
// observability is disabled.
func Active() *Observer { return active.Load() }

// Span is one open phase. A nil *Span (the disabled fast path) accepts
// every method as a no-op, so call sites never branch on enablement.
type Span struct {
	obs        *Observer
	scope      *TraceScope // owning request scope; nil for Observer-global spans
	parent     *Span
	id         int64
	pid        int64
	name       string
	start      time.Duration
	gid        int64
	ops        atomic.Uint64
	calls      atomic.Uint64
	applyNs    atomic.Int64
	applyCalls atomic.Uint64
	ended      atomic.Bool
}

// StartPhase opens a span on the active Observer (nil, at the cost of one
// atomic load, when observability is disabled). The new span becomes the
// innermost open span: AddFieldOps and nested StartPhase calls attach to
// it until End.
func StartPhase(name string) *Span { return active.Load().StartSpan(name) }

// StartSpan opens a span on o; a nil Observer returns a nil (no-op) span.
// Span nesting is tracked with a single current-span pointer, matching the
// solve paths, which open and close phases from one orchestrating
// goroutine (the data parallelism lives inside the phases, on the matrix
// pool).
func (o *Observer) StartSpan(name string) *Span {
	if o == nil {
		return nil
	}
	s := &Span{
		obs:   o,
		name:  name,
		start: time.Since(o.epoch),
		gid:   goroutineID(),
		id:    o.ids.Add(1),
	}
	if parent := o.current.Load(); parent != nil {
		s.parent = parent
		s.pid = parent.id
	}
	o.current.Store(s)
	return s
}

// AddFieldOps attributes ops field operations (and calls multiplier
// invocations) to the span.
func (s *Span) AddFieldOps(ops, calls uint64) {
	if s == nil {
		return
	}
	s.ops.Add(ops)
	s.calls.Add(calls)
}

// AddFieldOps attributes ops field operations to the innermost open span
// of the active Observer. This is the hook matrix.Instrumented reports
// through; with observability disabled it is two atomic loads.
func AddFieldOps(ops, calls uint64) {
	o := active.Load()
	if o == nil {
		return
	}
	o.current.Load().AddFieldOps(ops, calls)
}

// AddApplyTime attributes d of black-box apply wall time (and calls apply
// invocations) to the span.
func (s *Span) AddApplyTime(d time.Duration, calls uint64) {
	if s == nil {
		return
	}
	s.applyNs.Add(d.Nanoseconds())
	s.applyCalls.Add(calls)
}

// AddApplyTime attributes black-box apply time to the innermost open span
// of the active Observer — the hook the kp implicit-preconditioning boxes
// report through, surfacing as the span's apply_ns/apply_calls fields.
func AddApplyTime(d time.Duration, calls uint64) {
	o := active.Load()
	if o == nil {
		return
	}
	o.current.Load().AddApplyTime(d, calls)
}

// End closes the span and commits its record to the Observer's ring. The
// enclosing span (if any) becomes the innermost open span again. End is
// idempotent: the second and later calls are no-ops, so call sites close
// spans eagerly for tight timing AND via defer as a leak guard on error,
// cancellation and panic paths.
func (s *Span) End() {
	if s == nil || s.ended.Swap(true) {
		return
	}
	o := s.obs
	if s.scope != nil {
		s.scope.current.CompareAndSwap(s, s.parent)
	} else {
		o.current.CompareAndSwap(s, s.parent)
	}
	rec := SpanRecord{
		ID:         s.id,
		Parent:     s.pid,
		Name:       s.name,
		Start:      s.start,
		Dur:        time.Since(o.epoch) - s.start,
		GID:        s.gid,
		FieldOps:   s.ops.Load(),
		MulCalls:   s.calls.Load(),
		ApplyNs:    s.applyNs.Load(),
		ApplyCalls: s.applyCalls.Load(),
	}
	if s.scope != nil {
		rec.Trace = s.scope.tc.Trace
		s.scope.append(rec)
	}
	o.mu.Lock()
	if int(o.next) >= len(o.ring) {
		o.dropped++
	}
	o.ring[o.next%int64(len(o.ring))] = rec
	o.next++
	o.mu.Unlock()
	// Trace-scoped spans stamp the latency sample as the bucket's exemplar,
	// so a phase-latency band on /metrics links to the /debug/traces entry
	// that produced it.
	phaseLatencyHist(s.name).ObserveExemplar(rec.Dur.Nanoseconds(), rec.Trace.String())
}

// OpenSpanName returns the name of the innermost open span, or "" when no
// span is open — the invariant tests assert after cancellation: a returned
// driver must leave no span open (and no stale current pointer) behind.
func (o *Observer) OpenSpanName() string {
	if o == nil {
		return ""
	}
	if s := o.current.Load(); s != nil {
		return s.name
	}
	return ""
}

// Records returns the completed spans in completion order (oldest
// surviving record first when the ring has wrapped).
func (o *Observer) Records() []SpanRecord {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := o.next
	cap64 := int64(len(o.ring))
	if n <= cap64 {
		out := make([]SpanRecord, n)
		copy(out, o.ring[:n])
		return out
	}
	out := make([]SpanRecord, cap64)
	head := n % cap64
	copy(out, o.ring[head:])
	copy(out[cap64-head:], o.ring[:head])
	return out
}

// Dropped returns how many completed spans the ring overwrote.
func (o *Observer) Dropped() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.dropped
}

// PhaseTotal aggregates the spans sharing one name.
type PhaseTotal struct {
	Count      int           // completed spans with this name
	Wall       time.Duration // summed span durations
	FieldOps   uint64        // summed field operations
	MulCalls   uint64        // summed multiplier invocations
	ApplyTime  time.Duration // summed black-box apply wall time
	ApplyCalls uint64        // summed black-box apply invocations
}

// PhaseTotals aggregates the recorded spans by name — the per-phase
// work/time split the paper states its cost claims in.
func (o *Observer) PhaseTotals() map[string]PhaseTotal {
	totals := make(map[string]PhaseTotal)
	for _, r := range o.Records() {
		t := totals[r.Name]
		t.Count++
		t.Wall += r.Dur
		t.FieldOps += r.FieldOps
		t.MulCalls += r.MulCalls
		t.ApplyTime += time.Duration(r.ApplyNs)
		t.ApplyCalls += r.ApplyCalls
		totals[r.Name] = t
	}
	return totals
}

// PhaseNames returns the recorded phase names, KP91 phases first in
// algorithm order, then any others alphabetically.
func (o *Observer) PhaseNames() []string {
	totals := o.PhaseTotals()
	canonical := []string{
		PhasePrecondition, PhaseKrylov, PhaseMinPoly, PhaseBacksolve,
		PhaseBatchPrecondition, PhaseBatchKrylov, PhaseBatchMinPoly,
		PhaseBatchBacksolve, PhaseBatchVerify,
	}
	var names []string
	for _, n := range canonical {
		if _, ok := totals[n]; ok {
			names = append(names, n)
			delete(totals, n)
		}
	}
	var rest []string
	for n := range totals {
		rest = append(rest, n)
	}
	sort.Strings(rest)
	return append(names, rest...)
}

// TotalFieldOps sums the field operations over every recorded span. Ops
// are attributed to the innermost open span only, so the sum counts each
// operation exactly once — it must match the matrix.Instrumented total
// for the same run.
func (o *Observer) TotalFieldOps() uint64 {
	var total uint64
	for _, r := range o.Records() {
		total += r.FieldOps
	}
	return total
}
