package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// marshalSnapshot renders the /snapshot document. It is a variable so the
// handler test can force a marshal failure; production code never replaces
// it.
var marshalSnapshot = func(doc SnapshotDoc) ([]byte, error) {
	return json.MarshalIndent(doc, "", "  ")
}

// Embeddable HTTP exposition of the telemetry pipeline. Handler returns a
// mux any server can mount:
//
//	/metrics   Prometheus text format (counters, gauges, histograms,
//	           attempt statistics with the paper's failure bounds)
//	/snapshot  one JSON document with everything /metrics has, plus the
//	           flight-recorder ring and the active Observer's phase totals
//	/healthz   liveness: 200 "ok"
//	/debug/traces  the tail-sampled request trace store (JSON list;
//	           ?id=<trace-id> for one span tree, &format=chrome for a
//	           Chrome trace_event export) — 404 until SetTraceStore
//
// kpd and kpsolve -serve mount it on their listeners (kpsolve next to
// /debug/pprof/); an embedder mounts it on its own mux.

// SnapshotDoc is the /snapshot JSON document.
type SnapshotDoc struct {
	// Metrics is the counter/gauge registry (gauges contribute
	// "<name>.max" beside their current value).
	Metrics map[string]int64 `json:"metrics"`
	// Histograms are the log-bucketed distributions (phase latencies,
	// retry counts, batch sizes, pool samples).
	Histograms []HistSnapshot `json:"histograms"`
	// Attempts is the Las Vegas bounds report: observed failure rates
	// beside the equation (2) / Lemma 2 / Theorem 2 bounds.
	Attempts []BoundsLine `json:"attempts"`
	// Flight is the flight-recorder ring, oldest first.
	Flight []FlightEntry `json:"flight"`
	// Runtime is the runtime/metrics gauge set (GC pauses, scheduler
	// latency, goroutines, heap) also exported on /metrics.
	Runtime map[string]float64 `json:"runtime"`
	// PhaseTotals and DroppedSpans reflect the active Observer, when one
	// is installed.
	PhaseTotals  map[string]PhaseTotal `json:"phase_totals,omitempty"`
	DroppedSpans int64                 `json:"dropped_spans,omitempty"`
}

// Snapshot assembles the full telemetry state as one document.
func Snapshot() SnapshotDoc {
	doc := SnapshotDoc{
		Metrics:    MetricsSnapshot(),
		Histograms: Histograms(),
		Attempts:   BoundsReport(),
		Flight:     FlightEntries(),
		Runtime:    RuntimeSnapshot(),
	}
	if o := Active(); o != nil {
		doc.PhaseTotals = o.PhaseTotals()
		doc.DroppedSpans = o.Dropped()
	}
	return doc
}

// TraceSummary is one /debug/traces list entry: the request summary
// without the span tree (fetch the full trace by id for that).
type TraceSummary struct {
	TraceID   string        `json:"trace_id"`
	Route     string        `json:"route"`
	N         int           `json:"n,omitempty"`
	Status    int           `json:"status"`
	Cache     string        `json:"cache,omitempty"`
	Attempts  int           `json:"attempts"`
	Error     string        `json:"error,omitempty"`
	Start     time.Time     `json:"start"`
	Wall      time.Duration `json:"wall_ns"`
	QueueWait time.Duration `json:"queue_wait_ns"`
	Kept      string        `json:"kept"`
	Spans     int           `json:"spans"`
	// ProfileIDs cross-link to /debug/profiles?id= captures fired while
	// this request ran (same trace id).
	ProfileIDs []int64 `json:"profile_ids,omitempty"`
}

// tracesDoc is the /debug/traces list document.
type tracesDoc struct {
	Capacity      int            `json:"capacity"`
	SlowThreshold time.Duration  `json:"slow_threshold_ns"`
	SampleEvery   int            `json:"sample_every"`
	Traces        []TraceSummary `json:"traces"`
}

// handleTraces serves the tail-sampled trace store:
//
//	/debug/traces                     JSON list, newest first
//	/debug/traces?id=<trace-id>       one full trace (span tree included)
//	/debug/traces?id=<id>&format=chrome  the trace as Chrome trace_event JSON
func handleTraces(w http.ResponseWriter, r *http.Request) {
	ts := ActiveTraceStore()
	if ts == nil {
		http.Error(w, "trace store not enabled", http.StatusNotFound)
		return
	}
	if id := r.URL.Query().Get("id"); id != "" {
		rt, ok := ts.Get(id)
		if !ok {
			http.Error(w, "trace "+id+" not retained (evicted or sampled out)", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			var buf bytes.Buffer
			if err := WriteRequestTrace(&buf, rt); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Write(buf.Bytes())
			return
		}
		detail := struct {
			RequestTrace
			ProfileIDs []int64 `json:"profile_ids,omitempty"`
		}{RequestTrace: rt}
		if ps := ActiveProfileStore(); ps != nil {
			detail.ProfileIDs = ps.IDsForTrace(rt.TraceID)
		}
		writeJSONDoc(w, detail)
		return
	}
	traces := ts.Traces()
	doc := tracesDoc{
		Capacity:      ts.Config().Capacity,
		SlowThreshold: ts.Config().SlowThreshold,
		SampleEvery:   ts.Config().SampleEvery,
		Traces:        make([]TraceSummary, 0, len(traces)),
	}
	ps := ActiveProfileStore()
	for _, rt := range traces {
		sum := TraceSummary{
			TraceID: rt.TraceID, Route: rt.Route, N: rt.N, Status: rt.Status,
			Cache: rt.Cache, Attempts: rt.Attempts, Error: rt.Error,
			Start: rt.Start, Wall: rt.Wall, QueueWait: rt.QueueWait,
			Kept: rt.Kept, Spans: len(rt.Spans),
		}
		if ps != nil {
			sum.ProfileIDs = ps.IDsForTrace(rt.TraceID)
		}
		doc.Traces = append(doc.Traces, sum)
	}
	writeJSONDoc(w, doc)
}

// profilesDoc is the /debug/profiles list document.
type profilesDoc struct {
	Capacity    int              `json:"capacity"`
	CPUDuration time.Duration    `json:"cpu_duration_ns"`
	Cooldown    time.Duration    `json:"cooldown_ns"`
	Profiles    []ProfileCapture `json:"profiles"`
}

// handleProfiles serves the triggered profile store:
//
//	/debug/profiles          JSON list of capture summaries, newest first
//	/debug/profiles?id=<n>   the raw pprof bytes of one capture
func handleProfiles(w http.ResponseWriter, r *http.Request) {
	ps := ActiveProfileStore()
	if ps == nil {
		http.Error(w, "profile store not enabled", http.StatusNotFound)
		return
	}
	if idStr := r.URL.Query().Get("id"); idStr != "" {
		id, err := strconv.ParseInt(idStr, 10, 64)
		if err != nil {
			http.Error(w, "bad profile id "+idStr, http.StatusBadRequest)
			return
		}
		c, data, ok := ps.Get(id)
		if !ok {
			http.Error(w, "profile "+idStr+" not retained (evicted or never captured)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%s-%d.pprof", c.Kind, c.ID))
		w.Write(data)
		return
	}
	cfg := ps.Config()
	writeJSONDoc(w, profilesDoc{
		Capacity:    cfg.Capacity,
		CPUDuration: cfg.CPUDuration,
		Cooldown:    cfg.Cooldown,
		Profiles:    ps.Profiles(),
	})
}

// timelineDoc is the /debug/timeline document.
type timelineDoc struct {
	Capacity int              `json:"capacity"`
	Interval time.Duration    `json:"interval_ns"`
	Samples  []TimelineSample `json:"samples"`
}

// handleTimeline serves the metrics timeline ring, oldest sample first.
func handleTimeline(w http.ResponseWriter, r *http.Request) {
	tl := ActiveTimeline()
	if tl == nil {
		http.Error(w, "timeline not enabled", http.StatusNotFound)
		return
	}
	cfg := tl.Config()
	writeJSONDoc(w, timelineDoc{
		Capacity: cfg.Capacity,
		Interval: cfg.Interval,
		Samples:  tl.Samples(),
	})
}

// writeJSONDoc marshals into memory first (the /snapshot discipline: a late
// encode error must not corrupt a committed 200).
func writeJSONDoc(w http.ResponseWriter, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// wantsOpenMetrics reports whether the scrape asked for OpenMetrics, via
// the Accept header (how Prometheus negotiates) or ?format=openmetrics
// (how a human curls it).
func wantsOpenMetrics(r *http.Request) bool {
	if r.URL.Query().Get("format") == "openmetrics" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
}

// Handler returns the telemetry mux serving /metrics, /snapshot,
// /healthz, /debug/traces, /debug/profiles and /debug/timeline.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if wantsOpenMetrics(r) {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteMetrics(w)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		// Marshal into memory before touching the ResponseWriter: encoding
		// straight into w means a mid-document failure has already committed
		// the 200 status and a partial body, so the http.Error afterwards is
		// a superfluous WriteHeader and the client sees corrupt JSON. With
		// the buffer, an error path writes exactly one clean 500 and the
		// success path writes exactly one complete document.
		body, err := marshalSnapshot(Snapshot())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(body, '\n'))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// With an SLO engine installed the liveness check becomes a
		// readiness verdict: a breaching objective flips it to 503 with
		// the burning objectives named, so the cheapest probe an operator
		// (or a load balancer) already has tells them where to look next.
		if e := ActiveSLOEngine(); e != nil {
			if degraded, reasons := e.Verdict(); degraded {
				w.WriteHeader(http.StatusServiceUnavailable)
				w.Write([]byte("degraded\n"))
				for _, reason := range reasons {
					w.Write([]byte(reason + "\n"))
				}
				return
			}
		}
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, r *http.Request) {
		e := ActiveSLOEngine()
		if e == nil {
			http.Error(w, "slo engine not enabled", http.StatusNotFound)
			return
		}
		writeJSONDoc(w, struct {
			FastWindow time.Duration     `json:"fast_window_ns"`
			SlowWindow time.Duration     `json:"slow_window_ns"`
			Burn       float64           `json:"burn_threshold"`
			Objectives []ObjectiveStatus `json:"objectives"`
		}{e.Config().FastWindow, e.Config().SlowWindow, e.Config().Burn, e.Status()})
	})
	mux.HandleFunc("/debug/traces", handleTraces)
	mux.HandleFunc("/debug/profiles", handleProfiles)
	mux.HandleFunc("/debug/timeline", handleTimeline)
	return mux
}
