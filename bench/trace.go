package main

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/poly"
)

const (
	// traceCapacity bounds the spans a traced run keeps in memory; a run
	// that records more fails instead of reporting from a partial trace.
	traceCapacity = 1 << 17
	// probeBatches is the number of timed batches a layer probe takes the
	// median of.
	probeBatches = 7
	// probeSeed fixes the inputs of the layer probes, so that the counted
	// abstract-field solve repeats exactly.
	probeSeed = 91
)

// tracedOp is one operation of a traced pass: its task, the latency of its
// public call, and the spans it recorded.
type tracedOp struct {
	task task
	ms   float64
	recs []obs.SpanRecord
}

// runTraced is a traced run: the layer probes, a traced pass of the named
// workload a quarter of c.seconds long, and a short traced pass of every
// other workload, so that every per-layer metric is measured in every
// traced run, at the workloads' sizes. The bench's spans around each public
// call and each answer check, and the program's own phase spans, are kept
// in memory and written to c.traceOut at the end.
func runTraced(c config, sz sizes) (values, tally, error) {
	v := values{}
	var t tally
	if err := probeLayers(sz, v); err != nil {
		return nil, t, err
	}
	o := obs.New(traceCapacity)
	pass := seconds(c.seconds / 4)
	for _, name := range workloadNames {
		named := name == c.workload
		var (
			pt  tally
			err error
		)
		switch {
		case name == "kpd-mixed" && named:
			pt, err = traceKpd(c, sz, o, pass, true, v)
		case name == "kpd-mixed":
			pt, err = traceKpd(c, sz, o, sz.kpdSlice, false, v)
		case named:
			pt, err = traceLibrary(name, sz, c.seed, o, 0, pass, v)
		default:
			pt, err = traceLibrary(name, sz, c.seed, o, sz.sliceOps, 0, v)
		}
		if err != nil {
			return nil, t, fmt.Errorf("%s traced pass: %w", name, err)
		}
		t.add(pt)
	}
	if d := o.Dropped(); d > 0 {
		return nil, t, fmt.Errorf("the trace overflowed its %d-span buffer by %d spans", traceCapacity, d)
	}
	if err := o.WriteTraceFile(c.traceOut); err != nil {
		return nil, t, fmt.Errorf("write trace: %w", err)
	}
	return v, t, nil
}

// traceLibrary runs a traced pass of a library workload after one warm-up
// operation. A slice (ops > 0) makes ops traced operations. A named pass
// (ops == 0) runs for dur and alternates traced and untraced operations;
// their median latencies give obs.trace_overhead_frac.
func traceLibrary(name string, sz sizes, seed uint64, o *obs.Observer, ops int, dur time.Duration, v values) (tally, error) {
	w := newLibWorkload(name, sz)
	root := ff.NewSource(seed)
	setupSrc, opSrc := root.Split(), root.Split()
	var t tally
	if err := w.setup(); err != nil {
		return t, err
	}
	if err := warmUp(w, setupSrc); err != nil {
		return t, err
	}
	var (
		traced []tracedOp
		plain  []float64
	)
	start := time.Now()
	more := func(i int) bool {
		if ops > 0 {
			return i < ops
		}
		return i < 2 || time.Since(start) < dur // at least one traced and one untraced
	}
	for i := 0; more(i); i++ {
		if ops == 0 && i%2 == 1 {
			if d, ok := attempt(w.next(opSrc, false), &t); ok {
				plain = append(plain, d)
			}
			continue
		}
		op := w.next(opSrc, true)
		mark := len(o.Records())
		obs.SetActive(o)
		sp := obs.StartPhase("bench.op")
		d, ok := attempt(op, &t)
		sp.End()
		obs.SetActive(nil)
		if ok {
			traced = append(traced, tracedOp{task: op, ms: d, recs: o.Records()[mark:]})
		}
	}
	if len(traced) == 0 || ops == 0 && len(plain) == 0 {
		return t, errors.New("no traced or no untraced operation succeeded")
	}
	w.layers(traced, v)
	if ops == 0 {
		lat := make([]float64, len(traced))
		for i, op := range traced {
			lat[i] = op.ms
		}
		v["obs.trace_overhead_frac"] = overhead(lat, plain)
	}
	return t, nil
}

// overhead is the median traced latency over the median untraced latency,
// minus 1.
func overhead(traced, plain []float64) sample {
	return sample{median(traced)/median(plain) - 1, len(traced) + len(plain)}
}

// selfTimes sums, per span name, each span's duration minus the part of it
// that its children on the same goroutine cover. Children on other
// goroutines (the ring engine's residue workers) run while their parent
// waits, and that wait stays in the parent's self time.
func selfTimes(recs []obs.SpanRecord) map[string]time.Duration {
	kids := make(map[int64][]obs.SpanRecord)
	for _, r := range recs {
		kids[r.Parent] = append(kids[r.Parent], r)
	}
	self := make(map[string]time.Duration)
	for _, r := range recs {
		self[r.Name] += r.Dur - covered(r, kids[r.ID])
	}
	return self
}

// covered returns how much of p's interval the union of its same-goroutine
// children's intervals covers.
func covered(p obs.SpanRecord, kids []obs.SpanRecord) time.Duration {
	type interval struct{ lo, hi time.Duration }
	var ivs []interval
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.Start+k.Dur, p.Start+p.Dur)
		if k.GID == p.GID && hi > lo {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end time.Duration
	for _, iv := range ivs {
		lo := max(iv.lo, end)
		if iv.hi > lo {
			total += iv.hi - lo
		}
		end = max(end, iv.hi)
	}
	return total
}

// probeLayers times the field kernels, the NTT and the two multipliers
// through their public functions at the workloads' sizes, and counts the
// field operations of one solve over an abstract field.
func probeLayers(sz sizes, v values) error {
	f := ff.MustFp64(ff.PNTT62)
	src := ff.NewSource(probeSeed)
	mod := f.Modulus()

	a, b := ff.SampleVec[uint64](f, src, 128, mod), ff.SampleVec[uint64](f, src, 128, mod)
	dst, s := make([]uint64, 128), ff.Sample[uint64](f, src, mod)
	var sink uint64
	v["ff.dot_ns_per_elem"] = perUnit(sz.probeBatch, 128, func() { sink += f.DotInto(a, b) })
	v["ff.muladd_ns_per_elem"] = perUnit(sz.probeBatch, 128, func() { f.MulAddVec(dst, s, a) })

	plan, err := poly.NewNTTPlan[uint64](f, 1024)
	if err != nil {
		return err
	}
	x := ff.SampleVec[uint64](f, src, plan.Len(), mod)
	butterflies := plan.Len() / 2 * (bits.Len(uint(plan.Len())) - 1)
	v["poly.ntt_ns_per_butterfly"] = perUnit(sz.probeBatch, butterflies, func() { sink += plan.Transform(x)[1] })

	ma, mb := matrix.Random[uint64](f, src, 128, 128, mod), matrix.Random[uint64](f, src, 128, 128, mod)
	v["matrix.mul_ms.classical_n128"] = nsToMS(perUnit(sz.probeBatch, 1, func() { matrix.Classical[uint64]{}.Mul(f, ma, mb) }))
	g := ff.MustFp64(ff.P62)
	pa, pb := matrix.Random[uint64](g, src, 48, 48, g.Modulus()), matrix.Random[uint64](g, src, 48, 48, g.Modulus())
	v["matrix.mul_ms.parallel_n48_p62"] = nsToMS(perUnit(sz.probeBatch, 1, func() { matrix.Parallel[uint64]{}.Mul(g, pa, pb) }))
	_ = sink

	// The paper's unit-cost model: every field operation of the abstract
	// path (no fused kernels, no NTT) counts one.
	cf := ff.NewCounting[uint64](f)
	cs, err := core.NewSolver[uint64](cf, core.Options{})
	if err != nil {
		return err
	}
	n := sz.abstractN
	ca, cb := matrix.Random[uint64](f, src, n, n, mod), ff.SampleVec[uint64](f, src, n, mod)
	cx, err := cs.Solve(ca, cb)
	if err != nil {
		return fmt.Errorf("counted solve: %w", err)
	}
	if !ff.VecEqual[uint64](f, ca.MulVec(f, cx), cb) {
		return errors.New("counted solve: wrong answer")
	}
	v["kp.field_ops_abstract"] = sample{float64(cf.Counts().Total()), 1}
	return nil
}

// perUnit times fn in probeBatches batches, each repeating fn long enough to
// last about batch, and returns the median time per unit of work in ns.
func perUnit(batch time.Duration, units int, fn func()) sample {
	k := 1
	for {
		t0 := time.Now()
		for range k {
			fn()
		}
		if time.Since(t0) >= batch {
			break
		}
		k *= 2
	}
	per := make([]float64, probeBatches)
	for j := range per {
		t0 := time.Now()
		for range k {
			fn()
		}
		per[j] = float64(time.Since(t0).Nanoseconds()) / float64(k*units)
	}
	return sample{median(per), probeBatches}
}

func nsToMS(s sample) sample { return sample{s.v / 1e6, s.n} }
