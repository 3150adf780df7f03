// Command e2ebench is the end-to-end benchmark of the fastscd compile
// path. It drives the daemon's real request path in-process — server.New
// with the default Config, Handler().ServeHTTP on POST /v1/compile NDJSON
// requests, no sockets — from one closed-loop client that waits for each
// reply before sending the next request, and checks every reply.
//
//	e2ebench --workload fig9-warm --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer metrics, which need an untraced run (for the responses' own
// counts) and a traced replay of the same requests. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Any wrong output makes the command exit nonzero. See
// README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"fastsc/internal/compile"
	"fastsc/internal/server"
)

func main() { os.Exit(run()) }

func run() int {
	workloadName := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", defaultSeed, "seed of the timed request stream")
	seconds := flag.Int("seconds", 10, "measured seconds of one run")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of an untraced run and a traced replay")
	workDir := flag.String("work-dir", filepath.Join(".bench_build", "e2ebench"), "directory for snapshots and span files")
	writeExp := flag.String("write-expected", "", "record the correctness gate's expected results to this file and exit")
	flag.Parse()

	runtime.GOMAXPROCS(runtime.NumCPU())
	if *writeExp != "" {
		if err := writeExpected(*writeExp); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: want --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	w, err := newWorkload(*workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	exp, err := parseExpected(expectedTSV)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workDir, w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	ref, err := newRefKernel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	b := &runner{w: w, seed: *seed, exp: exp, dir: dir, ref: ref}
	budget := time.Duration(*seconds) * time.Second
	var metrics map[string]metric
	if *trace == 0 {
		metrics, err = b.endToEnd(budget)
	} else {
		spans := filepath.Join(*workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		metrics, err = b.perLayer(budget, spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	for i, p := range b.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "e2ebench: ... %d more problems\n", len(b.problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "e2ebench: wrong output:", p)
	}
	correct := b.failed == 0 && len(b.problems) == 0
	out, err := json.Marshal(result{Correct: correct, Attempted: b.attempted, Failed: b.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner is one benchmark run of one workload.
type runner struct {
	w    *workload
	seed int64
	exp  expected
	dir  string // per-run scratch directory
	snap string // fig9-warm's warm-set snapshot
	ref  *refKernel
	// setupSpeed is the machine's speed while the set-ups ran.
	setupSpeed speed

	attempted, failed int
	problems          []string
}

// newServer is the daemon under test: the default Config, as fastscd runs
// it without flags.
func newServer() *server.Server { return server.New(server.Config{}) }

// Set-ups repeat back to back until at least minSetups have run and they
// have taken setupSpan together, so a fast set-up is sampled over a stretch
// of time rather than one instant; setup_s is their median. The first few
// set-ups in a new process run slower than the rest, and a 60 ms set-up
// needs seconds of samples to outlast a short slow stretch of the host.
const (
	minSetups = 31
	setupSpan = 3 * time.Second
)

// minRequests is the fewest timed requests a run takes, so its p90 leaves
// minAboveP90 samples above it.
const minRequests = 10 * minAboveP90

// maxTimed bounds a timed phase that has not reached minRequests.
const maxTimed = 100 * time.Second

// phase is the record of one untraced timed phase.
type phase struct {
	requests, jobs int
	wall           time.Duration
	use            usage
	// lats holds each request's latency.
	lats  []time.Duration
	self  []time.Duration
	cache cacheCounts
	// results holds each request's job results in stream order.
	results [][]jobResult
	// harnessAlloc is what the harness allocated between timed stretches:
	// request generation and reply checks.
	harnessAlloc uint64
	// speed is the machine's speed between the timed stretches.
	speed speed
}

// check verifies one reply, folds its outcome into the run's totals and
// returns it. requireRecord demands an expected record for every job,
// which set-up requests always have.
func (b *runner) check(r request, status int, raw []byte, requireRecord bool) reply {
	rp := checkReply(r, status, raw, b.exp)
	b.attempted += len(r.strategies)
	b.failed += rp.failed
	b.problems = append(b.problems, rp.problems...)
	if requireRecord {
		for i := range r.strategies {
			if _, ok := b.exp[r.jobKey(i)]; !ok {
				b.problems = append(b.problems, "no expected record for set-up job "+r.jobKey(i))
			}
		}
	}
	return rp
}

// prepare runs the untimed pre-phase: for a warm workload, one cold pass
// of the set-up requests saved as the snapshot every set-up restarts from.
func (b *runner) prepare() error {
	if !b.w.warm {
		return nil
	}
	srv := newServer()
	h := srv.Handler()
	for _, r := range b.w.setup {
		status, raw, _ := post(h, r.body)
		b.check(r, status, raw, true)
	}
	b.snap = filepath.Join(b.dir, "warm.snap")
	if err := srv.Cache().Save(b.snap); err != nil {
		return fmt.Errorf("saving the warm-set snapshot: %w", err)
	}
	return nil
}

// setUp performs back-to-back set-ups, each from a fresh
// server.New: attach the warm set (warm workloads) and serve one pass of
// the set-up requests. It returns the last server, which serves the timed
// phase, each set-up's duration in seconds, and the warm-set hits per job
// of the last set-up.
func (b *runner) setUp() (srv *server.Server, times []float64, warmHitsPerJob float64) {
	type sent struct {
		status int
		raw    []byte
	}
	var total time.Duration
	for len(times) < minSetups || total < setupSpan {
		runtime.GC()
		out := make([]sent, 0, len(b.w.setup))
		start := time.Now()
		srv = newServer()
		if b.w.warm {
			srv.AttachWarmSet(compile.OpenWarmSet(b.snap))
		}
		h := srv.Handler()
		for _, r := range b.w.setup {
			status, raw, _ := post(h, r.body)
			out = append(out, sent{status, raw})
		}
		d := time.Since(start)
		total += d
		times = append(times, d.Seconds())
		var warm, jobs float64
		for j, s := range out {
			if rp := b.check(b.w.setup[j], s.status, s.raw, true); rp.cache != nil {
				warm += float64(rp.cache.WarmHits)
			}
			jobs += float64(len(b.w.setup[j].strategies))
		}
		warmHitsPerJob = warm / jobs
		b.setupSpeed.measure(b.ref, refUnitsPerSetup)
	}
	return srv, times, warmHitsPerJob
}

// timed runs the closed loop on h over the seeded stream for budget (and
// at least minRequests requests). Requests are generated in untimed chunks
// of the workload's chunk size; replies are checked after each timed
// stretch. A forced GC before each stretch sweeps the harness's garbage —
// the chunk just generated and the previous chunk's checks — so the GC
// cycles of a stretch are paid for the program's own allocation.
// keepResults keeps every job's result for a traced replay to compare
// against.
func (b *runner) timed(h http.Handler, budget time.Duration, keepResults bool) *phase {
	next := b.w.stream(b.seed)
	p := &phase{}
	type sent struct {
		status int
		raw    []byte
		lat    time.Duration
	}
	last := readUsage()
	for p.wall < maxTimed && (p.wall < budget || p.requests < minRequests) {
		reqs := make([]request, b.w.chunk)
		for i := range reqs {
			reqs[i] = next()
		}
		out := make([]sent, 0, len(reqs))
		runtime.GC()
		before := readUsage()
		p.harnessAlloc += before.alloc - last.alloc
		start := time.Now()
		for _, r := range reqs {
			status, raw, lat := post(h, r.body)
			out = append(out, sent{status, raw, lat})
			if p.wall+time.Since(start) >= budget && p.requests+len(out) >= minRequests {
				break
			}
		}
		p.wall += time.Since(start)
		last = readUsage()
		p.use.add(before, last)
		p.speed.measure(b.ref, refUnitsPerStretch)
		for i, s := range out {
			r := reqs[i]
			rp := b.check(r, s.status, s.raw, false)
			p.requests++
			p.jobs += len(r.strategies)
			p.lats = append(p.lats, s.lat)
			p.self = append(p.self, s.lat-rp.elapsed)
			if keepResults {
				p.results = append(p.results, rp.results)
			}
			if rp.cache != nil {
				p.cache.add(rp.cache)
			}
		}
	}
	return p
}

// endToEnd is the --trace 0 run: set-up, then the timed closed loop. Its
// time-based metrics are scaled to the reference machine (see speed.go).
func (b *runner) endToEnd(budget time.Duration) (map[string]metric, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	srv, setupTimes, _ := b.setUp()
	p := b.timed(srv.Handler(), budget, false)
	p50, p90, err := latencyPercentiles(p.lats)
	if err != nil {
		return nil, err
	}
	b.info(p, setupTimes)
	jobs := float64(p.jobs)
	setup, rate, cpu := median(setupTimes), jobs/p.wall.Seconds(), float64(p.use.cpu)/1e6/jobs
	fmt.Printf("# unscaled: setup_s=%.6f jobs_per_s=%.2f request_p50_ms=%.4f request_p90_ms=%.4f cpu_ms_per_job=%.5f; speed (cpu/wall) setup=%.4f/%.4f timed=%.4f/%.4f over %d+%d reference units\n",
		setup, rate, p50, p90, cpu, b.setupSpeed.cpuFactor(), b.setupSpeed.wallFactor(), p.speed.cpuFactor(), p.speed.wallFactor(), b.setupSpeed.units, p.speed.units)
	wall := p.speed.wallFactor()
	return map[string]metric{
		"setup_s":          {setup * b.setupSpeed.wallFactor(), "s"},
		"jobs_per_s":       {rate / wall, "1/s"},
		"request_p50_ms":   {p50 * wall, "ms"},
		"request_p90_ms":   {p90 * wall, "ms"},
		"cpu_ms_per_job":   {cpu * p.speed.cpuFactor(), "ms"},
		"alloc_kb_per_job": {float64(p.use.alloc) / 1024 / jobs, "KiB"},
		"peak_rss_mb":      {peakRSSMB(), "MiB"},
	}, nil
}

// info prints the run's configuration and sample counts ahead of the
// result line.
func (b *runner) info(p *phase, setupTimes []float64) {
	sorted := append([]float64(nil), setupTimes...)
	sort.Float64s(sorted)
	fmt.Printf("# workload=%s seed=%d gomaxprocs=%d server=default-config(workers=%d) client=closed-loop(1) requests=%d jobs=%d timed_s=%.2f above_p90=%d setups=%d setup_ms_min/p50/max=%.2f/%.2f/%.2f harness_kb_per_job=%.1f\n",
		b.w.name, b.seed, runtime.GOMAXPROCS(0), runtime.GOMAXPROCS(0), p.requests, p.jobs, p.wall.Seconds(),
		samplesAbove(p.requests, 90), len(sorted), sorted[0]*1e3, median(sorted)*1e3, sorted[len(sorted)-1]*1e3,
		float64(p.harnessAlloc)/1024/float64(p.jobs))
}

// regions are the compile cache regions the benchmark reports, in report
// order.
var regions = []string{
	compile.RegionRoute, compile.RegionCircuit, compile.RegionSlice, compile.RegionSMT,
	compile.RegionParking, compile.RegionStatic, compile.RegionXtalk,
}

// counterMetrics derives the per-layer metrics an untraced timed phase
// reads from its own responses and the Go runtime.
func counterMetrics(p *phase) map[string]metric {
	jobs := float64(p.jobs)
	m := map[string]metric{
		"runtime.gc_per_job":      {float64(p.use.gcs) / jobs, "count"},
		"runtime.gc_cpu_fraction": {ratio(p.use.gcCPU, p.use.totalCPU), "ratio"},
	}
	for _, name := range regions {
		st := p.cache.regions[name]
		lookups := st.Hits + st.WarmHits + st.Misses
		m["compile."+name+".misses_per_job"] = metric{float64(st.Misses) / jobs, "count"}
		m["compile."+name+".hit_ratio"] = metric{ratio(float64(lookups-st.Misses), float64(lookups)), "ratio"}
	}
	self := make([]float64, len(p.self))
	for i, d := range p.self {
		self[i] = float64(d) / 1e6
	}
	sort.Float64s(self)
	m["server.self_ms_p50"] = metric{nearestRank(self, 50), "ms"}
	return m
}

// ratio is num/den, or 0 when den is 0 (a region with no lookups).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer is the --trace 1 run: set-up and an untraced closed loop for a
// third of the budget, whose responses give the counter metrics, then an
// untraced and a traced replay of the same requests through the same
// cache set-up, which take about the rest.
func (b *runner) perLayer(budget time.Duration, spansPath string) (map[string]metric, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	srv, setupTimes, warmHits := b.setUp()
	p := b.timed(srv.Handler(), budget/3, true)
	if _, _, err := latencyPercentiles(p.lats); err != nil {
		return nil, err
	}
	b.info(p, setupTimes)
	m := counterMetrics(p)
	m["compile.warm_hits_per_job"] = metric{warmHits, "count"}

	tr, err := b.traced(p)
	if err != nil {
		return nil, err
	}
	if err := tr.writeSpans(spansPath); err != nil {
		return nil, err
	}
	for k, v := range tr.metrics() {
		m[k] = v
	}
	return m, nil
}
