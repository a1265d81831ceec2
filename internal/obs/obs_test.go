package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// withObserver installs o as the active observer for the test's duration.
// The active observer is process-global, so tests that install one must
// not run in parallel.
func withObserver(t *testing.T, o *Observer) {
	t.Helper()
	prev := Active()
	SetActive(o)
	t.Cleanup(func() { SetActive(prev) })
}

func TestDisabledFastPathIsNilSafe(t *testing.T) {
	SetActive(nil)
	sp := StartPhase(PhaseKrylov)
	if sp != nil {
		t.Fatal("disabled StartPhase must return nil")
	}
	sp.AddFieldOps(10, 1) // must not panic
	sp.End()
	AddFieldOps(10, 1)
}

func TestSpanHierarchyAndTotals(t *testing.T) {
	o := New(16)
	withObserver(t, o)

	root := StartPhase("solve")
	pre := StartPhase(PhasePrecondition)
	AddFieldOps(100, 2)
	pre.End()
	kry := StartPhase(PhaseKrylov)
	AddFieldOps(300, 3)
	kry.End()
	AddFieldOps(7, 1) // falls back to the reopened root span
	root.End()

	recs := o.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName[PhasePrecondition].Parent != byName["solve"].ID {
		t.Fatal("precondition span must be a child of solve")
	}
	if byName[PhaseKrylov].Parent != byName["solve"].ID {
		t.Fatal("krylov span must be a child of solve")
	}
	if byName["solve"].Parent != 0 {
		t.Fatal("solve must be top-level")
	}
	if byName[PhasePrecondition].FieldOps != 100 || byName[PhaseKrylov].FieldOps != 300 {
		t.Fatalf("ops misattributed: %+v", byName)
	}
	if byName["solve"].FieldOps != 7 {
		t.Fatalf("root ops = %d, want 7 (ops after child End reattach to parent)", byName["solve"].FieldOps)
	}
	if got := o.TotalFieldOps(); got != 407 {
		t.Fatalf("TotalFieldOps = %d, want 407", got)
	}
	totals := o.PhaseTotals()
	if totals[PhaseKrylov].MulCalls != 3 || totals[PhaseKrylov].Count != 1 {
		t.Fatalf("phase totals wrong: %+v", totals[PhaseKrylov])
	}
	if recs[0].GID <= 0 {
		t.Fatalf("goroutine id not recorded: %d", recs[0].GID)
	}
}

func TestRingWrapDropsOldest(t *testing.T) {
	o := New(4)
	withObserver(t, o)
	for i := 0; i < 10; i++ {
		StartPhase("p").End()
	}
	if got := o.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	recs := o.Records()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	// Oldest surviving first: ids 7,8,9,10.
	if recs[0].ID != 7 || recs[3].ID != 10 {
		t.Fatalf("wrap order wrong: %v .. %v", recs[0].ID, recs[3].ID)
	}
}

func TestPhaseNamesCanonicalOrder(t *testing.T) {
	o := New(8)
	withObserver(t, o)
	for _, n := range []string{"zeta", PhaseBacksolve, PhaseKrylov, PhasePrecondition, PhaseMinPoly, "alpha"} {
		StartPhase(n).End()
	}
	want := []string{PhasePrecondition, PhaseKrylov, PhaseMinPoly, PhaseBacksolve, "alpha", "zeta"}
	got := o.PhaseNames()
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestConcurrentAddFieldOps(t *testing.T) {
	o := New(8)
	withObserver(t, o)
	sp := StartPhase(PhaseKrylov)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				AddFieldOps(1, 1)
			}
		}()
	}
	wg.Wait()
	sp.End()
	if got := o.TotalFieldOps(); got != 8000 {
		t.Fatalf("TotalFieldOps = %d, want 8000", got)
	}
}

func TestWriteTraceIsValidTraceEventJSON(t *testing.T) {
	o := New(8)
	withObserver(t, o)
	sp := StartPhase(PhasePrecondition)
	AddFieldOps(42, 1)
	time.Sleep(time.Millisecond)
	sp.End()

	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			Args struct {
				FieldOps uint64 `json:"field_ops"`
				Parent   int64  `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != 1 {
		t.Fatalf("got %d events", len(parsed.TraceEvents))
	}
	ev := parsed.TraceEvents[0]
	if ev.Name != PhasePrecondition || ev.Ph != "X" || ev.Args.FieldOps != 42 || ev.Args.Parent != 0 {
		t.Fatalf("event wrong: %+v", ev)
	}
	if ev.Dur < 900 { // slept 1ms; dur is in microseconds
		t.Fatalf("duration %f µs too small", ev.Dur)
	}
}

func TestCountersAndGauges(t *testing.T) {
	c := NewCounter("test.counter")
	if again := NewCounter("test.counter"); again != c {
		t.Fatal("NewCounter must dedupe by name")
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	g := NewGauge("test.gauge")
	g.Add(3)
	g.Add(2)
	g.Add(-4)
	if g.Value() != 1 || g.Max() != 5 {
		t.Fatalf("gauge = %d max %d", g.Value(), g.Max())
	}
	g.Set(2)
	if g.Value() != 2 || g.Max() != 5 {
		t.Fatalf("gauge after Set = %d max %d", g.Value(), g.Max())
	}
	snap := MetricsSnapshot()
	if snap["test.counter"] != 5 || snap["test.gauge"] != 2 || snap["test.gauge.max"] != 5 {
		t.Fatalf("snapshot wrong: %v", snap)
	}
	found := false
	for _, n := range MetricNames() {
		if n == "test.gauge.max" {
			found = true
		}
	}
	if !found {
		t.Fatal("MetricNames missing test.gauge.max")
	}
}

// BenchmarkSpanDisabled measures the nil fast path: the full per-phase
// call pattern (StartPhase + AddFieldOps + End) with no active observer.
// This is the overhead an instrumented-but-disabled solve pays per phase
// boundary; it must stay in the nanoseconds.
func BenchmarkSpanDisabled(b *testing.B) {
	SetActive(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := StartPhase(PhaseKrylov)
		AddFieldOps(1000, 1)
		sp.End()
	}
}

// BenchmarkSpanEnabled is the enabled-path cost for comparison.
func BenchmarkSpanEnabled(b *testing.B) {
	o := New(64)
	SetActive(o)
	defer SetActive(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := StartPhase(PhaseKrylov)
		AddFieldOps(1000, 1)
		sp.End()
	}
}

func TestEndIsIdempotent(t *testing.T) {
	o := New(8)
	withObserver(t, o)
	sp := StartPhase(PhaseKrylov)
	sp.End()
	sp.End() // defer-guard second close: must not commit a second record
	sp.End()
	if recs := o.Records(); len(recs) != 1 {
		t.Fatalf("got %d records after repeated End, want 1", len(recs))
	}
	if got := o.OpenSpanName(); got != "" {
		t.Fatalf("open span %q after End, want none", got)
	}
}

func TestOpenSpanName(t *testing.T) {
	var nilObs *Observer
	if got := nilObs.OpenSpanName(); got != "" {
		t.Fatalf("nil observer open span = %q", got)
	}
	o := New(8)
	withObserver(t, o)
	if got := o.OpenSpanName(); got != "" {
		t.Fatalf("fresh observer open span = %q", got)
	}
	root := StartPhase("solve")
	inner := StartPhase(PhaseKrylov)
	if got := o.OpenSpanName(); got != PhaseKrylov {
		t.Fatalf("open span = %q, want %q", got, PhaseKrylov)
	}
	inner.End()
	if got := o.OpenSpanName(); got != "solve" {
		t.Fatalf("open span after inner End = %q, want solve", got)
	}
	root.End()
	if got := o.OpenSpanName(); got != "" {
		t.Fatalf("open span after root End = %q, want none", got)
	}
}

func TestRingWrapMultipleTimes(t *testing.T) {
	o := New(4)
	withObserver(t, o)
	const total = 103 // 25 full wraps plus a partial one
	for i := 0; i < total; i++ {
		StartPhase("p").End()
	}
	if got := o.Dropped(); got != total-4 {
		t.Fatalf("dropped = %d, want %d", got, total-4)
	}
	recs := o.Records()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if want := int64(total - 3 + i); r.ID != want {
			t.Fatalf("record %d has id %d, want %d (oldest surviving first)", i, r.ID, want)
		}
	}
}

func TestPhaseTotalsSurviveWrap(t *testing.T) {
	o := New(4)
	withObserver(t, o)
	// 3 "a" spans then 5 "b" spans through a 4-slot ring: every "a" is
	// evicted, the last 4 "b"s survive. PhaseTotals must aggregate exactly
	// the surviving records — no double count from revisited ring slots, no
	// ghosts of evicted spans.
	for i := 0; i < 3; i++ {
		sp := o.StartSpan("a")
		sp.AddFieldOps(10, 1)
		sp.End()
	}
	for i := 0; i < 5; i++ {
		sp := o.StartSpan("b")
		sp.AddFieldOps(100, 1)
		sp.End()
	}
	totals := o.PhaseTotals()
	if _, ok := totals["a"]; ok {
		t.Fatalf("evicted phase still in totals: %+v", totals)
	}
	bt := totals["b"]
	if bt.Count != 4 || bt.FieldOps != 400 || bt.MulCalls != 4 {
		t.Fatalf("post-wrap totals for b = %+v, want Count 4 FieldOps 400 MulCalls 4", bt)
	}
	if got := o.Dropped(); got != 4 {
		t.Fatalf("dropped = %d, want 4", got)
	}
}

func TestParseGoroutineID(t *testing.T) {
	cases := []struct {
		in   string
		id   int64
		ok   bool
		note string
	}{
		{"goroutine 1 [running]:\nmain.main()", 1, true, "canonical header"},
		{"goroutine 6120 [running]:", 6120, true, "multi-digit id"},
		{"goroutine 123456789012345678901234567890", 0, false, "id truncated before the separator must not parse"},
		{"goroutine ", 0, false, "empty id"},
		{"goroutine  [running]:", 0, false, "missing id"},
		{"goroutine x [running]:", 0, false, "non-numeric id"},
		{"", 0, false, "empty input"},
	}
	for _, c := range cases {
		id, ok := parseGoroutineID([]byte(c.in))
		if ok != c.ok || (ok && id != c.id) {
			t.Errorf("%s: parseGoroutineID(%q) = (%d, %v), want (%d, %v)", c.note, c.in, id, ok, c.id, c.ok)
		}
	}
}

func TestGoroutineIDCurrent(t *testing.T) {
	if id := goroutineID(); id <= 0 {
		t.Fatalf("goroutineID() = %d for a live goroutine, want > 0", id)
	}
}

// TestGoroutineIDDistinct runs goroutines at the same time: each must see
// the same id on every call (the cached lookup included), and no two may
// share one.
func TestGoroutineIDDistinct(t *testing.T) {
	const workers = 16
	ids := make([]int64, workers)
	var ready, done sync.WaitGroup
	ready.Add(workers)
	done.Add(workers)
	release := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer done.Done()
			first := goroutineID()
			ready.Done()
			<-release // every worker is alive while the others look up
			if again := goroutineID(); again != first {
				t.Errorf("worker %d: goroutineID changed from %d to %d", w, first, again)
			}
			ids[w] = first
		}()
	}
	ready.Wait()
	close(release)
	done.Wait()
	seen := make(map[int64]bool)
	for w, id := range ids {
		if id <= 0 || seen[id] {
			t.Errorf("worker %d: id %d is not positive or not unique among live goroutines", w, id)
		}
		seen[id] = true
	}
}
