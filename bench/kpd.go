package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/rns"
	"repro/internal/server"
)

const (
	// kpdConns is the number of client connections in kpd-mixed, and of
	// goroutines sending on them.
	kpdConns = 2
	// kpdRate is kpd-mixed's open-loop arrival rate in requests per second,
	// frozen at about 20% of the mix's closed-loop capacity over kpdConns
	// connections: low enough that the median request does not queue and
	// that the server stays short of saturation when the host runs at half
	// speed (README.md records the numbers).
	kpdRate = 44.0
	// kpdSLOMS is the latency limit of kpd-mixed's slo_ok_frac.
	kpdSLOMS = 100.0
	// kpdSetupReps is how many times an untraced kpd-mixed run starts kpd;
	// setup_s is the median.
	kpdSetupReps = 5
	kpdDeadline  = 30 * time.Second
)

type kpdKind int

const (
	kpdHit  kpdKind = iota // solve on a hot-pool matrix the server has cached
	kpdMiss                // solve on a fresh matrix: factor, insert, evict
	kpdZZ                  // exact ℤ solve of a fresh small system
)

// kpdBlock is the request mix: each block of ten consecutive requests holds
// exactly these kinds, in a seeded random order.
var kpdBlock = []kpdKind{kpdHit, kpdHit, kpdHit, kpdHit, kpdHit, kpdHit, kpdHit, kpdMiss, kpdMiss, kpdZZ}

// kpdMix generates kpd-mixed's requests from the seed: 70% solves over P62
// on a Zipf-weighted pool of hot matrices, 20% solves on fresh matrices and
// 10% exact ℤ solves of fresh small systems.
type kpdMix struct {
	sz    sizes
	f     ff.Fp64
	hot   []*matrix.Dense[uint64]
	rng   *rand.Rand
	zipf  *rand.Zipf
	src   *ff.Source
	block []kpdKind // kinds left in the current block
}

func newKpdMix(sz sizes, seed uint64) *kpdMix {
	f := ff.MustFp64(ff.P62)
	rng := rand.New(rand.NewPCG(seed, 0x6b7064))
	m := &kpdMix{
		sz: sz, f: f, rng: rng, src: ff.NewSource(seed),
		zipf: rand.NewZipf(rng, 1.1, 1, uint64(sz.kpdHot-1)),
	}
	for range sz.kpdHot {
		m.hot = append(m.hot, matrix.Random[uint64](f, m.src, sz.kpdN, sz.kpdN, f.Modulus()))
	}
	return m
}

// kpdReq is one generated request and what its answer is checked against.
type kpdReq struct {
	kind kpdKind
	req  server.SolveRequest
	a    *matrix.Dense[uint64] // fp system
	b    []uint64
	az   *rns.IntMat // zz system
	bz   []*big.Int
}

func (m *kpdMix) next() kpdReq {
	if len(m.block) == 0 {
		m.block = slices.Clone(kpdBlock)
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	kind := m.block[0]
	m.block = m.block[1:]
	switch kind {
	case kpdHit:
		return m.fpReq(kpdHit, m.hot[m.zipf.Uint64()])
	case kpdMiss:
		return m.fpReq(kpdMiss, matrix.Random[uint64](m.f, m.src, m.sz.kpdN, m.sz.kpdN, m.f.Modulus()))
	default:
		return m.zzReq()
	}
}

func (m *kpdMix) fpReq(kind kpdKind, a *matrix.Dense[uint64]) kpdReq {
	b := ff.SampleVec[uint64](m.f, m.src, a.Rows, m.f.Modulus())
	rows := make([][]uint64, a.Rows)
	for i := range rows {
		rows[i] = a.Data[i*a.Cols : (i+1)*a.Cols]
	}
	return kpdReq{kind: kind, a: a, b: b, req: server.SolveRequest{
		P: m.f.Modulus(), A: rows, B: b, DeadlineMS: kpdDeadline.Milliseconds(),
	}}
}

func (m *kpdMix) zzReq() kpdReq {
	a, b := randomIntSystem(m.src, m.sz.kpdZZN, m.sz.zzMax)
	az := make([][]string, a.Rows)
	for i := range az {
		az[i] = make([]string, a.Cols)
		for j := range az[i] {
			az[i][j] = a.At(i, j).String()
		}
	}
	bz := make([]string, len(b))
	for i, v := range b {
		bz[i] = v.String()
	}
	return kpdReq{kind: kpdZZ, az: a, bz: b, req: server.SolveRequest{
		Ring: "zz", Az: az, Bz: bz, DeadlineMS: kpdDeadline.Milliseconds(),
	}}
}

// check verifies a response locally: A·x = b mod p, or exactly over ℚ.
func (m *kpdMix) check(r kpdReq, resp *server.SolveResponse) bool {
	if r.kind == kpdZZ {
		return solvesExactlyRats(r.az, resp.Xr, r.bz)
	}
	return len(resp.X) == r.a.Cols && ff.VecEqual[uint64](m.f, r.a.MulVec(m.f, resp.X), r.b)
}

// kpdAnswer is what one request observed.
type kpdAnswer struct {
	kind      kpdKind
	ok        bool // answered and verified
	wrong     bool // answered wrongly
	hit       bool // the server's factorization cache answered
	lat       time.Duration
	call      time.Duration // the public call alone
	lag       time.Duration // how late the generator released the request
	elapsedMS float64       // server-side wall time the response reports
}

// send makes one request through server.Client and checks the answer
// outside the timed region. Latency runs from due. A traced request records
// bench spans under a trace scope of its own, whose trace id kpd continues.
func (m *kpdMix) send(cl *server.Client, r kpdReq, due time.Time, traced bool) kpdAnswer {
	a := kpdAnswer{kind: r.kind}
	ctx := context.Background()
	if traced {
		ctx = obs.ContextWithScope(ctx, obs.NewScope(obs.NewTraceContext()))
		defer obs.StartPhaseCtx(ctx, "bench.op").End()
	}
	sp := startIf(traced, ctx, "server.client_solve")
	t0 := time.Now()
	resp, err := cl.Solve(ctx, r.req)
	done := time.Now()
	sp.End()
	a.call, a.lat = done.Sub(t0), done.Sub(due)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return a
	}
	a.elapsedMS, a.hit = resp.ElapsedMS, resp.Cache == "hit"
	sp = startIf(traced, ctx, "bench.verify")
	a.ok = m.check(r, resp)
	sp.End()
	a.wrong = !a.ok
	return a
}

// startIf opens a span under ctx's scope when on is set, else returns the
// nil no-op span.
func startIf(on bool, ctx context.Context, name string) *obs.Span {
	if !on {
		return nil
	}
	return obs.StartPhaseCtx(ctx, name)
}

// schedule returns n send offsets in [0, d): a Poisson process conditioned
// on n arrivals, that is n uniform draws in increasing order.
func schedule(rng *rand.Rand, n int, d time.Duration) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = time.Duration(rng.Int64N(int64(d)))
	}
	slices.Sort(s)
	return s
}

// openLoop sends the scheduled requests over kpdConns connections. A
// generator goroutine builds each request ahead of its slot and releases it
// at the scheduled time; the kpdConns senders take released requests in
// order, so a stall also delays the requests queued behind it.
func openLoop(cl *server.Client, mix *kpdMix, sched []time.Duration, traced func(i int) bool) ([]kpdAnswer, time.Duration) {
	type job struct {
		i   int
		r   kpdReq
		lag time.Duration
	}
	// Sized to the number of sends, so the generator never blocks and its
	// lag measures its own lateness only.
	jobs := make(chan job, len(sched))
	out := make([]kpdAnswer, len(sched))
	start := time.Now()
	go func() {
		defer close(jobs)
		for i, due := range sched {
			r := mix.next()
			// A sleeping goroutine wakes up to a millisecond late, a good
			// share of a cache hit's latency: sleep to just short of the
			// slot and yield until it comes.
			at := start.Add(due)
			time.Sleep(time.Until(at) - time.Millisecond)
			for time.Now().Before(at) {
				runtime.Gosched()
			}
			jobs <- job{i: i, r: r, lag: time.Since(start) - due}
		}
	}()
	var wg sync.WaitGroup
	for range kpdConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				out[j.i] = mix.send(cl, j.r, start.Add(sched[j.i]), traced(j.i))
				out[j.i].lag = j.lag
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// summarize counts the answers and collects the latencies, in ms, of the
// verified ones.
func summarize(ans []kpdAnswer) (t tally, lat []float64, sloOK int) {
	for _, a := range ans {
		t.attempted++
		if !a.ok {
			t.failed++
			if a.wrong {
				t.wrong++
			}
			continue
		}
		d := ms(a.lat)
		lat = append(lat, d)
		if d <= kpdSLOMS {
			sloOK++
		}
	}
	return t, lat, sloOK
}

// runKpd is an untraced kpd-mixed run: kpdSetupReps set-ups, then the open
// loop at kpdRate for c.seconds.
func runKpd(c config, sz sizes) (values, tally, error) {
	k, mix, cl, setup, err := setupKpd(c, sz, kpdSetupReps)
	if err != nil {
		return nil, tally{}, err
	}
	d := seconds(c.seconds)
	n := max(1, int(math.Round(kpdRate*d.Seconds())))
	ans, wall := openLoop(cl, mix, schedule(mix.rng, n, d), func(int) bool { return false })
	if err := k.stop(cl); err != nil {
		return nil, tally{}, err
	}
	t, lat, sloOK := summarize(ans)
	if lag := lagP99(ans); lag > 5 {
		fmt.Fprintf(os.Stderr, "bench: the generator ran %.1f ms behind its schedule at p99; latencies of this run are suspect\n", lag)
	}
	return endToEndValues(setup, lat, sloOK, t, wall), t, nil
}

func lagP99(ans []kpdAnswer) float64 {
	lag := make([]float64, len(ans))
	for i, a := range ans {
		lag[i] = ms(a.lag)
	}
	return quantile(lag, 0.99)
}

// traceKpd is kpd-mixed's traced pass of length d. A named pass alternates
// traced and untraced requests, and obs.trace_overhead_frac compares the
// median call times of the cache hits among them: the bench's spans are
// the only tracing on the client side, and a hit's call time carries
// neither the cache misses' work nor the wait behind it.
func traceKpd(c config, sz sizes, o *obs.Observer, d time.Duration, named bool, v values) (tally, error) {
	k, mix, cl, _, err := setupKpd(c, sz, 1)
	if err != nil {
		return tally{}, err
	}
	before, err := minpolyNS(cl)
	if err != nil {
		_ = k.stop(cl) // the scrape error is the one to report
		return tally{}, err
	}
	// At least two blocks of the mix, so that every request kind is
	// answered, traced and untraced.
	n := max(2*len(kpdBlock), int(math.Round(kpdRate*d.Seconds())))
	d = seconds(float64(n) / kpdRate)
	traced := func(i int) bool { return !named || i%2 == 0 }
	obs.SetActive(o)
	ans, _ := openLoop(cl, mix, schedule(mix.rng, n, d), traced)
	obs.SetActive(nil)
	after, err := minpolyNS(cl)
	if serr := k.stop(cl); err == nil {
		err = serr
	}
	if err != nil {
		return tally{}, err
	}
	t, _, _ := summarize(ans)

	var hit, miss, zz, wire, tracedHits, plainHits []float64
	hits, fps := 0, 0
	for i, a := range ans {
		if !a.ok {
			continue
		}
		wire = append(wire, ms(a.call)-a.elapsedMS)
		switch {
		case a.kind == kpdZZ:
			zz = append(zz, a.elapsedMS)
		case a.hit:
			hit = append(hit, a.elapsedMS)
		default:
			miss = append(miss, a.elapsedMS)
		}
		if a.kind != kpdZZ {
			fps++
			if a.hit {
				hits++
			}
		}
		switch {
		case !a.hit:
		case traced(i):
			tracedHits = append(tracedHits, ms(a.call))
		default:
			plainHits = append(plainHits, ms(a.call))
		}
	}
	if len(hit) == 0 || len(miss) == 0 || len(zz) == 0 || named && (len(tracedHits) == 0 || len(plainHits) == 0) {
		return t, errors.New("some request kind got no verified answer")
	}
	v["server.hit_ratio"] = sample{float64(hits) / float64(fps), fps}
	v["server.hit_ms_p50"] = sample{median(hit), len(hit)}
	v["server.miss_ms_p50"] = sample{median(miss), len(miss)}
	v["server.zz_ms_p50"] = sample{median(zz), len(zz)}
	v["server.wire_ms_p50"] = sample{median(wire), len(wire)}
	v["server.minpoly_ms_per_req"] = sample{(after - before) / 1e6 / float64(len(ans)), len(ans)}
	v["loadgen.lag_p99_ms"] = sample{lagP99(ans), len(ans)}
	if named {
		v["obs.trace_overhead_frac"] = overhead(tracedHits, plainHits)
	}
	return t, nil
}

// kpdCapacity measures the mix's closed-loop capacity: kpdConns senders,
// each sending its next request as soon as the previous one is answered.
func kpdCapacity(c config, sz sizes) (values, tally, error) {
	k, mix, cl, _, err := setupKpd(c, sz, 1)
	if err != nil {
		return nil, tally{}, err
	}
	var (
		mu  sync.Mutex
		ans []kpdAnswer
		wg  sync.WaitGroup
	)
	start := time.Now()
	for range kpdConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < seconds(c.seconds) {
				mu.Lock()
				r := mix.next()
				mu.Unlock()
				a := mix.send(cl, r, time.Now(), false)
				mu.Lock()
				ans = append(ans, a)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if err := k.stop(cl); err != nil {
		return nil, tally{}, err
	}
	t, lat, _ := summarize(ans)
	return values{"capacity_ops_s": {float64(len(lat)) / wall.Seconds(), len(lat)}}, t, nil
}

// setupKpd starts kpd reps times. Each set-up generates the mix's inputs,
// starts kpd, waits for /healthz and checks one warm-up request; all but
// the last instance are stopped again. The hot pool is then factored into
// the last instance's cache outside the timed set-up, so that the run
// measures the cache in its steady state.
func setupKpd(c config, sz sizes, reps int) (k *kpdProc, mix *kpdMix, cl *server.Client, setup []float64, err error) {
	defer func() {
		if err != nil && k != nil {
			_ = k.stop(cl) // the set-up error is the one to report
		}
	}()
	ctx := context.Background()
	for i := range reps {
		if k != nil {
			if err := k.stop(cl); err != nil {
				return nil, nil, nil, nil, err
			}
		}
		t0 := time.Now()
		mix = newKpdMix(sz, c.seed)
		if k, err = startKpd(c.kpd); err != nil {
			return nil, nil, nil, nil, err
		}
		cl = &server.Client{BaseURL: k.url, HTTP: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: kpdConns, MaxIdleConnsPerHost: kpdConns},
			Timeout:   time.Minute,
		}}
		warm := mix.fpReq(kpdHit, mix.hot[0])
		resp, werr := cl.Solve(ctx, warm.req)
		setup = append(setup, time.Since(t0).Seconds())
		if werr == nil && !mix.check(warm, resp) {
			werr = errors.New("wrong answer")
		}
		if werr != nil {
			return k, nil, cl, nil, fmt.Errorf("kpd warm-up request %d: %w", i, werr)
		}
	}
	for _, a := range mix.hot {
		if _, err := cl.Factor(ctx, mix.fpReq(kpdHit, a).req); err != nil {
			return k, nil, cl, nil, fmt.Errorf("factor the hot pool: %w", err)
		}
	}
	return k, mix, cl, setup, nil
}

// minpolyNS scrapes kpd's /metrics for the total time its solves have
// spent in the minpoly phase.
func minpolyNS(cl *server.Client) (float64, error) {
	resp, err := cl.HTTP.Get(cl.BaseURL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	const key = `kp_phase_latency_ns_sum{phase="batch/minpoly"} `
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), key); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("/metrics has no batch/minpoly latency sum")
}

// kpdProc is a kpd child process serving on a loopback port.
type kpdProc struct {
	cmd     *exec.Cmd
	url     string
	drained chan struct{} // closed once the child's stderr reaches EOF
}

// startKpd starts kpd with its default flags on an ephemeral loopback port
// and waits until /healthz answers.
func startKpd(path string) (*kpdProc, error) {
	cmd := exec.Command(path, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = childProcAttr()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start kpd: %w", err)
	}
	k := &kpdProc{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(k.drained)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "kpd: serving on "); ok && !sent {
				addr <- strings.Fields(rest)[0]
				sent = true
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case k.url = <-addr:
	case <-k.drained:
		_ = k.stop(nil) // it has exited already; the missing address is the error
		return nil, errors.New("kpd exited before serving")
	case <-time.After(10 * time.Second):
		_ = k.stop(nil) // the missing address is the error to report
		return nil, errors.New("kpd did not report its address within 10s")
	}
	hc := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := hc.Get(k.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return k, nil
			}
		}
		if time.Now().After(deadline) {
			_ = k.stop(nil) // the health check is the error to report
			return nil, fmt.Errorf("kpd /healthz did not answer 200 within 10s (last error: %v)", err)
		}
	}
}

// stop closes the client's idle connections, asks kpd to drain and exit,
// kills it if it has not exited within 15s, and waits for it.
func (k *kpdProc) stop(cl *server.Client) error {
	if cl != nil {
		cl.HTTP.CloseIdleConnections()
	}
	if err := k.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		k.cmd.Process.Kill()
	}
	select {
	case <-k.drained:
	case <-time.After(15 * time.Second):
		k.cmd.Process.Kill()
		<-k.drained
	}
	if err := k.cmd.Wait(); err != nil {
		return fmt.Errorf("kpd: %w", err)
	}
	return nil
}
