package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Named counters and gauges, registered at package init of the subsystems
// that own them (the matrix worker pool, the solvers). Unlike spans they
// are process-lifetime and always on: one uncontended atomic add is cheaper
// than a branch worth maintaining, and the pool amortizes every add over a
// grain-sized chunk of work. Snapshot them with MetricsSnapshot, or serve
// them over HTTP through Handler (/metrics and /snapshot).

// Counter is a monotonically increasing metric.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// Gauge is a settable level metric that also tracks its high-water mark
// (exported as "<name>.max").
type Gauge struct {
	name string
	mu   sync.Mutex
	v    int64
	max  int64
}

// Set sets the gauge to v.
func (g *Gauge) Set(v int64) {
	g.mu.Lock()
	g.v = v
	if v > g.max {
		g.max = v
	}
	g.mu.Unlock()
}

// Add moves the gauge by d (negative d decreases it) and updates the
// high-water mark.
func (g *Gauge) Add(d int64) {
	g.mu.Lock()
	g.v += d
	if g.v > g.max {
		g.max = g.v
	}
	g.mu.Unlock()
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Max returns the high-water mark.
func (g *Gauge) Max() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

var registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewCounter registers (or, for an already registered name, returns) the
// named counter.
func NewCounter(name string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.counters == nil {
		registry.counters = make(map[string]*Counter)
	}
	if c, ok := registry.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	registry.counters[name] = c
	return c
}

// NewGauge registers (or, for an already registered name, returns) the
// named gauge.
func NewGauge(name string) *Gauge {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.gauges == nil {
		registry.gauges = make(map[string]*Gauge)
	}
	if g, ok := registry.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	registry.gauges[name] = g
	return g
}

// MetricsSnapshot returns every registered counter and gauge by name
// (gauges additionally contribute "<name>.max").
func MetricsSnapshot() map[string]int64 {
	registry.mu.Lock()
	counters := make([]*Counter, 0, len(registry.counters))
	for _, c := range registry.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(registry.gauges))
	for _, g := range registry.gauges {
		gauges = append(gauges, g)
	}
	registry.mu.Unlock()

	out := make(map[string]int64, len(counters)+2*len(gauges))
	for _, c := range counters {
		out[c.name] = c.Value()
	}
	for _, g := range gauges {
		out[g.name] = g.Value()
		out[g.name+".max"] = g.Max()
	}
	return out
}

// MetricNames returns the snapshot keys in sorted order (for stable
// human-readable dumps).
func MetricNames() []string {
	snap := MetricsSnapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
