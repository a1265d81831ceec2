package kp

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"testing"

	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// withApplyHook installs hook on every counted apply of Ã (call numbers
// from 1) for the rest of the test — the lever the cancellation and panic
// tests use to fail mid-phase, while a span is open, rather than at the
// driver's own checkpoints.
func withApplyHook(t *testing.T, hook func(call int)) {
	t.Helper()
	calls := 0
	applyHook = func() {
		calls++
		hook(calls)
	}
	t.Cleanup(func() { applyHook = nil })
}

// TestSolveCancellationLeavesNoOpenSpan cancels the context from inside the
// Krylov phase (the second apply of Ã happens under the krylov span)
// and asserts the driver surfaces ctx.Err() with every span closed — the
// defer guards must unwind the Observer's current-span chain on the
// cancellation path, or later spans would attach to a stale parent.
func TestSolveCancellationLeavesNoOpenSpan(t *testing.T) {
	src := ff.NewSource(311)
	f, a := randomNonsingularP62(src, 6)
	b := ff.SampleVec[uint64](f, src, 6, f.Modulus())

	o := obs.New(0)
	prev := obs.Active()
	obs.SetActive(o)
	defer obs.SetActive(prev)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withApplyHook(t, func(call int) {
		if call == 2 {
			cancel()
		}
	})
	_, err := Solve[uint64](f, classical(), a, b, Params{Src: ff.NewSource(5), Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if open := o.OpenSpanName(); open != "" {
		t.Fatalf("span %q left open after cancellation", open)
	}
}

// TestSolvePanicLeavesNoOpenSpan panics out of the Krylov loop and
// asserts the defer guards still closed every span during unwinding.
func TestSolvePanicLeavesNoOpenSpan(t *testing.T) {
	src := ff.NewSource(313)
	f, a := randomNonsingularP62(src, 6)
	b := ff.SampleVec[uint64](f, src, 6, f.Modulus())

	o := obs.New(0)
	prev := obs.Active()
	obs.SetActive(o)
	defer obs.SetActive(prev)

	withApplyHook(t, func(call int) {
		if call == 3 {
			panic("mid-krylov failure injection")
		}
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the injected panic to propagate")
			}
		}()
		Solve[uint64](f, classical(), a, b, Params{Src: ff.NewSource(5)})
	}()
	if open := o.OpenSpanName(); open != "" {
		t.Fatalf("span %q left open after panic", open)
	}
	// The spans closed by the unwind must have committed records.
	totals := o.PhaseTotals()
	if totals[obs.PhasePrecondition].Count == 0 {
		t.Fatal("precondition span not committed before the panic")
	}
	if totals[obs.PhaseKrylov].Count == 0 {
		t.Fatal("krylov span not committed by its defer guard")
	}
}

// TestSolveRecordsAttemptTelemetry pins the always-on side of the pipeline:
// one successful Solve leaves an attempt record (feeding BoundsReport) and
// one flight-ring entry with no Observer and no Logger configured.
func TestSolveRecordsAttemptTelemetry(t *testing.T) {
	obs.ResetAttempts()
	obs.ResetFlight()
	t.Cleanup(func() {
		obs.ResetAttempts()
		obs.ResetFlight()
	})
	src := ff.NewSource(317)
	f, a := randomNonsingularP62(src, 5)
	b := ff.SampleVec[uint64](f, src, 5, f.Modulus())
	if _, err := Solve[uint64](f, matrix.Classical[uint64]{}, a, b, Params{Src: ff.NewSource(5)}); err != nil {
		t.Fatal(err)
	}
	lines := obs.BoundsReport()
	var found bool
	for _, l := range lines {
		if l.Solver == "kp.solve" && l.N == 5 {
			found = true
			if l.ByOutcome[obs.OutcomeSuccess] == 0 {
				t.Fatalf("no success outcome recorded: %+v", l)
			}
		}
	}
	if !found {
		t.Fatalf("no kp.solve attempt group: %+v", lines)
	}
	entries := obs.FlightEntries()
	if len(entries) != 1 {
		t.Fatalf("flight entries = %d, want 1", len(entries))
	}
	if e := entries[0]; e.Op != "kp.solve" || e.N != 5 || e.Outcome != "ok" || e.Attempts < 1 {
		t.Fatalf("flight entry wrong: %+v", e)
	}
}

// TestSolveStructuredLogging wires a slog.Logger through Params and checks
// the per-attempt and per-call records come out with the documented keys.
func TestSolveStructuredLogging(t *testing.T) {
	src := ff.NewSource(331)
	f, a := randomNonsingularP62(src, 5)
	b := ff.SampleVec[uint64](f, src, 5, f.Modulus())
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	if _, err := Solve[uint64](f, matrix.Classical[uint64]{}, a, b, Params{Src: ff.NewSource(5), Logger: logger}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"msg":"kp.attempt"`, `"msg":"kp.done"`, `"solver":"kp.solve"`, `"outcome":"success"`, `"outcome":"ok"`, `"n":5`} {
		if !strings.Contains(out, want) {
			t.Fatalf("log output missing %s:\n%s", want, out)
		}
	}
}

// TestPhaseErrorTagging covers the error → (outcome, phase) classification
// the attempt statistics are built from.
func TestPhaseErrorTagging(t *testing.T) {
	if got := failurePhase(inPhase(obs.PhaseMinPoly, ff.ErrDivisionByZero)); got != obs.PhaseMinPoly {
		t.Fatalf("failurePhase = %q", got)
	}
	if got := failurePhase(errors.New("plain")); got != "" {
		t.Fatalf("untagged failurePhase = %q", got)
	}
	if inPhase("any", nil) != nil {
		t.Fatal("inPhase(nil) must stay nil")
	}
	wrapped := inPhase(obs.PhaseBacksolve, ff.ErrDivisionByZero)
	if !errors.Is(wrapped, ff.ErrDivisionByZero) {
		t.Fatal("inPhase must preserve errors.Is on the sentinel")
	}
	if got := outcomeOf(wrapped); got != obs.OutcomeDivZero {
		t.Fatalf("outcomeOf(div) = %q", got)
	}
	if got := outcomeOf(matrix.ErrSingular); got != obs.OutcomeDivZero {
		t.Fatalf("outcomeOf(singular) = %q", got)
	}
	if got := outcomeOf(errors.New("boom")); got != obs.OutcomeError {
		t.Fatalf("outcomeOf(other) = %q", got)
	}
	if got := outcomeOf(nil); got != obs.OutcomeSuccess {
		t.Fatalf("outcomeOf(nil) = %q", got)
	}
}
