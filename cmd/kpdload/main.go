// Command kpdload is the kpd load-test driver: it hammers a running daemon
// with concurrent clients cycling through a pool of distinct matrices and
// reports throughput, latency quantiles (p50/p90/p99), cache hit rate and
// the status breakdown — the numbers that tell you whether the
// factorization cache and the admission control are doing their jobs.
//
// Usage:
//
//	kpdload -addr http://127.0.0.1:8080 -c 8 -requests 200 -n 64
//	kpdload -c 16 -requests 500 -n 64 -matrices 4   # 4 distinct matrices → high hit rate
//	kpdload -c 32 -requests 200 -n 96 -matrices 200 # all-miss: stress factoring + queue
//	kpdload -c 8 -requests 200 -n 64 -json          # machine-readable kpdload/v1 report
//
// A non-zero exit means requests failed for reasons other than 429
// backpressure (which is load shedding working as designed, reported but
// tolerated).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/server"
)

// loadSchema identifies the -json report layout for downstream tooling.
const loadSchema = "kpdload/v1"

// loadReport is the kpdload -json document: the run configuration plus the
// throughput / latency-quantile / cache / error numbers the text report
// prints, machine-readable for CI trend tracking.
type loadReport struct {
	Schema      string  `json:"schema"`
	GoVersion   string  `json:"go_version"`
	NumCPU      int     `json:"num_cpu"`
	Addr        string  `json:"addr"`
	Clients     int     `json:"clients"`
	Requests    int     `json:"requests"`
	Dim         int     `json:"n"`
	Matrices    int     `json:"matrices"`
	Rhs         int     `json:"rhs,omitempty"`
	WallNs      int64   `json:"wall_ns"`
	Throughput  float64 `json:"throughput_rps"`
	OK          int64   `json:"ok"`
	P50Ns       int64   `json:"p50_ns"`
	P90Ns       int64   `json:"p90_ns"`
	P99Ns       int64   `json:"p99_ns"`
	MaxNs       int64   `json:"max_ns"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	HitRate     float64 `json:"hit_rate"`
	Rejected    int64   `json:"rejected"`
	Failed      int64   `json:"failed"`
	Wrong       int64   `json:"wrong"`
	// Statuses maps HTTP status code (as a string, for JSON) to count.
	Statuses map[string]int `json:"statuses"`
}

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "kpd base URL")
		clients  = flag.Int("c", 8, "concurrent clients")
		requests = flag.Int("requests", 100, "total requests across all clients")
		n        = flag.Int("n", 48, "system dimension")
		mats     = flag.Int("matrices", 4, "distinct matrices cycled through (fewer = higher cache hit rate)")
		rhs      = flag.Int("rhs", 0, "use /v1/solve_batch with this many right-hand sides (0 = /v1/solve)")
		p        = flag.Uint64("p", ff.P62, "prime field modulus")
		seed     = flag.Uint64("seed", 1, "matrix generation seed")
		deadline = flag.Duration("deadline", 30*time.Second, "per-request deadline")
		jsonOut  = flag.Bool("json", false, "emit the kpdload/v1 JSON report on stdout instead of the text summary")
	)
	flag.Parse()
	if *clients < 1 || *requests < 1 || *n < 1 || *mats < 1 {
		fmt.Fprintln(os.Stderr, "kpdload: -c, -requests, -n and -matrices want positive values")
		os.Exit(2)
	}

	f, err := ff.NewFp64(*p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kpdload:", err)
		os.Exit(2)
	}
	src := ff.NewSource(*seed)
	type instance struct {
		a   *matrix.Dense[uint64]
		req server.SolveRequest
	}
	pool := make([]instance, *mats)
	for i := range pool {
		a := matrix.Random[uint64](f, src, *n, *n, f.Modulus())
		req := server.SolveRequest{P: *p, DeadlineMS: deadline.Milliseconds()}
		req.A = make([][]uint64, *n)
		for r := 0; r < *n; r++ {
			req.A[r] = a.Row(r)
		}
		if *rhs > 0 {
			bs := matrix.Random[uint64](f, src, *n, *rhs, f.Modulus())
			req.Bs = make([][]uint64, *rhs)
			for j := 0; j < *rhs; j++ {
				req.Bs[j] = bs.Col(j)
			}
		} else {
			req.B = ff.SampleVec[uint64](f, src, *n, f.Modulus())
		}
		pool[i] = instance{a: a, req: req}
	}

	var (
		next      atomic.Int64
		hits      atomic.Int64
		misses    atomic.Int64
		rejected  atomic.Int64
		failed    atomic.Int64
		wrong     atomic.Int64
		latMu     sync.Mutex
		latencies []time.Duration
		statusMu  sync.Mutex
		statuses  = make(map[int]int)
	)
	client := &server.Client{BaseURL: *addr}
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(*requests) {
					return
				}
				inst := pool[int(i)%len(pool)]
				t0 := time.Now()
				var resp *server.SolveResponse
				var err error
				if *rhs > 0 {
					resp, err = client.SolveBatch(ctx, inst.req)
				} else {
					resp, err = client.Solve(ctx, inst.req)
				}
				lat := time.Since(t0)
				if err != nil {
					var apiErr *server.APIError
					if errors.As(err, &apiErr) {
						statusMu.Lock()
						statuses[apiErr.Status]++
						statusMu.Unlock()
						if apiErr.Status == 429 {
							rejected.Add(1)
							continue
						}
					}
					failed.Add(1)
					fmt.Fprintln(os.Stderr, "kpdload:", err)
					continue
				}
				statusMu.Lock()
				statuses[200]++
				statusMu.Unlock()
				latMu.Lock()
				latencies = append(latencies, lat)
				latMu.Unlock()
				if resp.Cache == "hit" {
					hits.Add(1)
				} else {
					misses.Add(1)
				}
				// Spot-verify: A·x = b for the first returned column.
				x := resp.X
				var b []uint64
				if *rhs > 0 {
					x, b = resp.Xs[0], inst.req.Bs[0]
				} else {
					b = inst.req.B
				}
				if !ff.VecEqual[uint64](f, inst.a.MulVec(f, x), b) {
					wrong.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	ok := int64(len(latencies))
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	q := func(p float64) time.Duration {
		if ok == 0 {
			return 0
		}
		return latencies[min(int(p*float64(ok)), int(ok)-1)]
	}
	hitRate := float64(hits.Load()) / float64(max(hits.Load()+misses.Load(), 1))

	if *jsonOut {
		report := loadReport{
			Schema:      loadSchema,
			GoVersion:   runtime.Version(),
			NumCPU:      runtime.NumCPU(),
			Addr:        *addr,
			Clients:     *clients,
			Requests:    *requests,
			Dim:         *n,
			Matrices:    *mats,
			Rhs:         *rhs,
			WallNs:      elapsed.Nanoseconds(),
			Throughput:  float64(ok) / elapsed.Seconds(),
			OK:          ok,
			P50Ns:       q(0.50).Nanoseconds(),
			P90Ns:       q(0.90).Nanoseconds(),
			P99Ns:       q(0.99).Nanoseconds(),
			CacheHits:   hits.Load(),
			CacheMisses: misses.Load(),
			HitRate:     hitRate,
			Rejected:    rejected.Load(),
			Failed:      failed.Load(),
			Wrong:       wrong.Load(),
			Statuses:    make(map[string]int),
		}
		if ok > 0 {
			report.MaxNs = latencies[ok-1].Nanoseconds()
		}
		statusMu.Lock()
		for c, count := range statuses {
			report.Statuses[strconv.Itoa(c)] = count
		}
		statusMu.Unlock()
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "kpdload:", err)
			os.Exit(1)
		}
	} else {
		fmt.Printf("kpdload: %d requests, %d clients, n=%d, %d distinct matrices, rhs=%d\n",
			*requests, *clients, *n, *mats, *rhs)
		fmt.Printf("  wall %s, throughput %.1f req/s\n", elapsed.Round(time.Millisecond), float64(ok)/elapsed.Seconds())
		if ok > 0 {
			fmt.Printf("  latency p50 %s  p90 %s  p99 %s  max %s\n",
				q(0.50).Round(time.Microsecond), q(0.90).Round(time.Microsecond),
				q(0.99).Round(time.Microsecond), latencies[ok-1].Round(time.Microsecond))
		}
		fmt.Printf("  cache: %d hits, %d misses (%.1f%% hit rate)\n",
			hits.Load(), misses.Load(), 100*hitRate)
		fmt.Printf("  rejected (429 backpressure): %d\n", rejected.Load())
		statusMu.Lock()
		codes := make([]int, 0, len(statuses))
		for c := range statuses {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		fmt.Printf("  status:")
		for _, c := range codes {
			fmt.Printf(" %d×%d", c, statuses[c])
		}
		fmt.Println()
		statusMu.Unlock()
	}
	if w := wrong.Load(); w > 0 {
		fmt.Fprintf(os.Stderr, "kpdload: %d responses FAILED local verification\n", w)
		os.Exit(1)
	}
	if f := failed.Load(); f > 0 {
		fmt.Fprintf(os.Stderr, "kpdload: %d requests failed\n", f)
		os.Exit(1)
	}
}
