package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// benchmarkFile is the part of BENCHMARK.json the test checks the
// program's metric lists against.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		prog []spec
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.json), len(c.prog))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the program %s [%s]", c.kind, i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}

// TestQuickRuns runs every workload at tiny sizes, untraced and traced, and
// checks that each run reports exactly its metrics, that every answer
// checked and that no operation failed.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds kpd and runs every workload")
	}
	dir := t.TempDir()
	kpd := filepath.Join(dir, "kpd")
	if out, err := exec.Command("go", "build", "-o", kpd, "repro/cmd/kpd").CombinedOutput(); err != nil {
		t.Fatalf("build kpd: %v\n%s", err, out)
	}
	start := time.Now()
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			c := config{workload: w, seed: 7, seconds: 0.5, trace: trace, quick: true, kpd: kpd,
				traceOut: filepath.Join(dir, w+".trace.json")}
			var out bytes.Buffer
			res, err := run(c, &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", w, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, s := range want {
				if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%t: metric %s missing or not in %s", w, trace, s.name, s.unit)
				}
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Errorf("%s trace=%t: last line is not the result: %v", w, trace, err)
			}
			if !trace {
				continue
			}
			if f := res.Metrics["kp.phase_cover_frac"].Value; f < 0.95 || f > 1 {
				t.Errorf("%s: the four kp phases cover %.3f of the core.solve span, want within 5%%", w, f)
			}
			raw, err := os.ReadFile(c.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct{ Name string } `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("%s: trace file holds no trace_event document (%v)", w, err)
			}
		}
	}
	t.Logf("eight quick runs took %s", time.Since(start).Round(time.Millisecond))
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	recs := []obs.SpanRecord{
		{ID: 1, Name: "op", Start: 0, Dur: 10 * ms, GID: 1},
		{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, Dur: 4 * ms, GID: 1},
		{ID: 3, Parent: 1, Name: "b", Start: 3 * ms, Dur: 4 * ms, GID: 1}, // overlaps a
		{ID: 4, Parent: 1, Name: "w", Start: 0, Dur: 10 * ms, GID: 2},     // another goroutine
		{ID: 5, Parent: 2, Name: "c", Start: 2 * ms, Dur: 1 * ms, GID: 1},
	}
	got := selfTimes(recs)
	want := map[string]time.Duration{"op": 4 * ms, "a": 3 * ms, "b": 4 * ms, "w": 10 * ms, "c": 1 * ms}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self(%s) = %v, want %v", name, got[name], d)
		}
	}
}
