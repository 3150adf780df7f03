package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"fastsc/internal/circuit"
	"fastsc/internal/compile"
	"fastsc/internal/core"
	"fastsc/internal/mapping"
	"fastsc/internal/noise"
	"fastsc/internal/phys"
	"fastsc/internal/qasm"
	"fastsc/internal/schedule"
	"fastsc/internal/server"
	"fastsc/internal/topology"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the ID of the span that caused it, -1 for a request's
// root span.
type span struct {
	ID     int32         `json:"id"`
	Parent int32         `json:"parent"`
	Req    int32         `json:"req"`
	Name   string        `json:"name"`
	Attr   string        `json:"attr,omitempty"` // a job's strategy
	Start  time.Duration `json:"start_ns"`       // since the trace epoch
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, req int32, attr string) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Attr: attr, Start: start})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children, such as
// jobs on parallel workers, count once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, kids[i])
	}
	return self
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// decodeCircuit builds a job's circuit from its wire form the way the
// server does: qasm.Parse for QASM (wrapped in a qasm.parse span when tr
// records), native gate-list assembly otherwise.
func decodeCircuit(js server.JobSpec, tr *tracer, parent, req int32) (*circuit.Circuit, error) {
	if js.QASM != "" {
		s := tr.begin("qasm.parse", parent, req, "")
		parsed, err := qasm.Parse(js.QASM)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		return parsed.Circuit, nil
	}
	if js.Circuit == nil {
		return nil, fmt.Errorf("job %q carries no circuit", js.ID)
	}
	c := circuit.New(js.Circuit.Qubits)
	for _, g := range js.Circuit.Gates {
		kind, ok := circuit.KindByName(g.Op)
		if !ok {
			return nil, fmt.Errorf("job %q: unknown op %q", js.ID, g.Op)
		}
		c.Add(circuit.Gate{Kind: kind, Qubits: g.Qubits, Theta: g.Theta})
	}
	return c, nil
}

// tracedRun replays requests through the compile engine the way the
// server runs them — one shared compile.Context{Cache}, Scoped(workers)
// per request, Context.RunBatchCtx over the jobs — with spans around the
// public calls core.CompileCtx makes.
type tracedRun struct {
	tr       *tracer
	base     *compile.Context
	workers  int
	systems  map[string]*phys.System
	submits  []time.Duration // per traced request: when its batch was submitted
	warmLoad time.Duration
	// wall sums the request times of the replay and of its untraced twin.
	wall, untracedWall time.Duration
}

// systemFor resolves a device spec as the server does (default
// fabrication seed when omitted), memoized per spec.
func (t *tracedRun) systemFor(d server.DeviceSpec) (*phys.System, error) {
	seed := int64(server.DefaultDeviceSeed)
	if d.Seed != nil {
		seed = *d.Seed
	}
	key := fmt.Sprintf("%s/%d/%d", d.Topology, d.Qubits, seed)
	if sys, ok := t.systems[key]; ok {
		return sys, nil
	}
	dev, err := topology.FromSpec(d.Topology, d.Qubits)
	if err != nil {
		return nil, err
	}
	sys := phys.NewSystem(dev, phys.DefaultParams(), seed)
	t.systems[key] = sys
	return sys, nil
}

// request compiles one request body; tr nil runs it untraced.
func (t *tracedRun) request(body []byte, tr *tracer, req int32) ([]jobResult, error) {
	root := tr.begin("server.request", -1, req, "")
	s := tr.begin("wire.decode", root, req, "")
	var cr server.CompileRequest
	err := json.Unmarshal(body, &cr)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	sys, err := t.systemFor(cr.Device)
	if err != nil {
		return nil, err
	}
	o := cr.Options
	mopts := mapping.Options{Placement: o.Placement, Router: mapping.RouterConfig{Algorithm: o.Router, Window: o.Window, Decay: o.Decay}}
	sopts := schedule.Options{MaxColors: o.MaxColors, XtalkDistance: o.Distance, Residual: o.Residual}
	nopt := noise.DefaultOptions()
	jobs := make([]compile.Job, len(cr.Jobs))
	for i, js := range cr.Jobs {
		circ, err := decodeCircuit(js, tr, root, req)
		if err != nil {
			return nil, err
		}
		strategy := js.Strategy
		if strategy == "" {
			strategy = core.ColorDynamic
		}
		comp := schedule.ByName(strategy)
		if comp == nil {
			return nil, fmt.Errorf("unknown strategy %q", strategy)
		}
		jobs[i] = compile.Job{Key: js.ID, Run: func(c *compile.Context) (any, error) {
			job := tr.begin("compile.job", root, req, strategy)
			defer tr.end(job)
			s := tr.begin("mapping.route", job, req, "")
			routed, err := c.Route(circ, sys.Device, mopts)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			s = tr.begin("schedule.compile", job, req, strategy)
			sched, err := comp.Compile(c, routed.Routed, sys, sopts)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			s = tr.begin("noise.evaluate", job, req, "")
			rep := noise.Evaluate(sched, nopt)
			tr.end(s)
			return jobResult{rep.Success, sched.Depth(), sched.CompiledDepth, routed.SwapCount, sched.MaxColorsUsed}, nil
		}}
	}
	if tr != nil {
		t.submits = append(t.submits, tr.now())
	}
	results := make([]jobResult, len(jobs))
	var firstErr error
	for out := range t.base.Scoped(t.workers).RunBatchCtx(context.Background(), jobs) {
		if out.Err != nil {
			if firstErr == nil {
				firstErr = out.Err
			}
			continue
		}
		results[out.Index] = out.Value.(jobResult)
	}
	tr.end(root)
	return results, firstErr
}

// loadWarmSet forces a warm set's one-time load and times it.
func loadWarmSet(ws *compile.WarmSet) (time.Duration, error) {
	start := time.Now()
	res, err := ws.Result()
	if err == nil && res.Degraded != "" {
		err = fmt.Errorf("warm set %s degraded: %s", ws.Path(), res.Degraded)
	}
	return time.Since(start), err
}

// replayer returns a tracedRun after the same cache set-up as the
// untraced phase: the warm set attached (its load forced and timed) for a
// warm workload, then one untraced pass of the set-up requests.
func (b *runner) replayer() (*tracedRun, error) {
	t := &tracedRun{
		base:    &compile.Context{Cache: compile.NewCache(0)},
		workers: runtime.GOMAXPROCS(0),
		systems: make(map[string]*phys.System),
	}
	if b.w.warm {
		ws := compile.OpenWarmSet(b.snap)
		t.base.Cache.AttachWarmSet(ws)
		d, err := loadWarmSet(ws)
		if err != nil {
			return nil, err
		}
		t.warmLoad = d
	}
	for _, r := range b.w.setup {
		if _, err := t.request(r.body, nil, -1); err != nil {
			return nil, fmt.Errorf("replay set-up %s: %w", r.label, err)
		}
	}
	return t, nil
}

// traced replays the untraced phase's requests — the same seed, so the
// same stream — twice, through twin replayers with identical cache
// histories: one traced, one not. Each request runs on both, alternating
// which goes first, so the machine's drift and warm CPU caches fall on
// both sides alike and the difference of their times is what tracing
// costs. Every job's result on either must equal the untraced phase's.
//
// compile.warmset_load_ms is the forced load of the warm set a restart
// would use: for a warm workload the one its set-up attaches, timed during
// set-up; otherwise a snapshot of the primed cache, saved and loaded after
// set-up without being attached.
func (b *runner) traced(p *phase) (*tracedRun, error) {
	t, err := b.replayer()
	if err != nil {
		return nil, err
	}
	plain, err := b.replayer()
	if err != nil {
		return nil, err
	}
	if !b.w.warm {
		snap := filepath.Join(b.dir, "primed.snap")
		if err := t.base.Cache.Save(snap); err != nil {
			return nil, fmt.Errorf("saving the primed snapshot: %w", err)
		}
		d, err := loadWarmSet(compile.OpenWarmSet(snap))
		if err != nil {
			return nil, err
		}
		t.warmLoad = d
	}

	next := b.w.stream(b.seed)
	// Each request records a root, a decode and up to five spans per job;
	// room for all of them up front keeps slice growth out of the spans.
	t.tr = &tracer{epoch: time.Now(), spans: make([]span, 0, 2*p.requests+5*p.jobs)}
	runtime.GC()
	for i := 0; i < p.requests; i++ {
		r := next()
		for k := 0; k < 2; k++ {
			run, tr, wall := t, t.tr, &t.wall
			if (i+k)%2 == 1 {
				run, tr, wall = plain, nil, &t.untracedWall
			}
			start := time.Now()
			got, err := run.request(r.body, tr, int32(i))
			*wall += time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("replayed request %d (%s): %w", i, r.label, err)
			}
			b.attempted += len(got)
			for j := range got {
				if got[j] != p.results[i][j] {
					b.failed++
					b.problems = append(b.problems, fmt.Sprintf("%s: replayed (traced=%t) result %+v differs from untraced %+v", r.jobKey(j), tr != nil, got[j], p.results[i][j]))
				}
			}
		}
	}
	return t, nil
}

// spanUnits maps each span name to the count its time is reported per.
var spanUnits = map[string]string{
	"server.request":   "request",
	"wire.decode":      "request",
	"qasm.parse":       "job",
	"compile.job":      "job",
	"mapping.route":    "job",
	"schedule.compile": "job",
	"noise.evaluate":   "job",
}

// metrics derives the per-layer metrics of the traced replay.
func (t *tracedRun) metrics() map[string]metric {
	spans := t.tr.spans
	self := selfTimes(spans)
	total := make(map[string]time.Duration)
	selfTotal := make(map[string]time.Duration)
	byStrategy := make(map[string]time.Duration)
	var requests, jobs, covered90, queue, reqTime, jobTime, jobCovered time.Duration
	for i, s := range spans {
		d := s.End - s.Start
		total[s.Name] += d
		selfTotal[s.Name] += self[i]
		switch s.Name {
		case "server.request":
			requests++
			reqTime += d
		case "compile.job":
			jobs++
			jobTime += d
			jobCovered += d - self[i]
			queue += s.Start - t.submits[s.Req]
			if 10*(d-self[i]) >= 9*d {
				covered90++
			}
		case "schedule.compile":
			byStrategy[s.Attr] += d
		}
	}
	per := map[string]float64{"request": float64(requests), "job": float64(jobs)}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	m := make(map[string]metric)
	for name, unit := range spanUnits {
		m[name+"_ms_per_"+unit] = metric{ms(total[name]) / per[unit], "ms"}
		m[name+".self_ms_per_"+unit] = metric{ms(selfTotal[name]) / per[unit], "ms"}
	}
	for _, s := range core.Strategies() {
		m["schedule.compile_share."+strings.ReplaceAll(s, " ", "")] = metric{100 * ratio(float64(byStrategy[s]), float64(total["schedule.compile"])), "%"}
	}
	m["compile.engine.queue_ms_per_job"] = metric{ms(queue) / per["job"], "ms"}
	m["compile.engine.busy_ratio"] = metric{float64(jobTime) / (float64(reqTime) * float64(t.workers)), "ratio"}
	m["compile.warmset_load_ms"] = metric{ms(t.warmLoad), "ms"}
	m["trace.overhead_pct"] = metric{100 * (float64(t.wall)/float64(t.untracedWall) - 1), "%"}
	m["trace.job_coverage"] = metric{float64(jobCovered) / float64(jobTime), "ratio"}
	m["trace.jobs_covered_90pct"] = metric{100 * float64(covered90) / float64(jobs), "%"}
	return m
}

// writeSpans writes every span as one JSON line to path.
func (t *tracedRun) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
