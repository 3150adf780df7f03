package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"fastsc/internal/server"
)

func TestNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := nearestRank(sorted, c.p); got != c.want {
			t.Errorf("nearestRank(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := nearestRank([]float64{42}, 90); got != 42 {
		t.Errorf("nearestRank of one sample = %v, want 42", got)
	}
}

func TestSamplesAboveP90(t *testing.T) {
	for _, c := range []struct{ n, want int }{{100, 10}, {99, 9}, {109, 10}, {110, 11}, {10, 1}, {1, 0}} {
		if got := samplesAbove(c.n, 90); got != c.want {
			t.Errorf("samplesAbove(%d, 90) = %d, want %d", c.n, got, c.want)
		}
	}
	lat := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(n-i) * time.Millisecond // unsorted on purpose
		}
		return out
	}
	if _, _, err := latencyPercentiles(lat(99)); err == nil {
		t.Error("99 samples leave 9 above p90; want an error")
	}
	p50, p90, err := latencyPercentiles(lat(minRequests))
	if err != nil {
		t.Fatalf("minRequests samples: %v", err)
	}
	if p50 != 50 || p90 != 90 {
		t.Errorf("p50, p90 of 1..100 ms = %v, %v; want 50, 90", p50, p90)
	}
}

func TestSpeedFactor(t *testing.T) {
	// Four units at 2 × refNominal of CPU each, and 4 × refNominal of wall
	// time: the CPUs ran at half speed and were held half the time.
	s := speed{cpu: 8 * refNominal, wall: 16 * refNominal, units: 4}
	if got := s.cpuFactor(); got != 0.5 {
		t.Errorf("cpuFactor = %v, want 0.5", got)
	}
	if got := s.wallFactor(); got != 0.25 {
		t.Errorf("wallFactor = %v, want 0.25", got)
	}
	k, err := newRefKernel()
	if err != nil {
		t.Fatal(err)
	}
	var m speed
	m.measure(k, 3)
	if m.units != 3 || m.cpu <= 0 || m.wall < m.cpu/2 {
		t.Errorf("measure(3) = %d units, %v CPU, %v wall; want 3 units and some time", m.units, m.cpu, m.wall)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 10 * ms},       // root
		{ID: 1, Parent: 0, Start: 1 * ms, End: 3 * ms},    // overlaps span 2
		{ID: 2, Parent: 0, Start: 2 * ms, End: 5 * ms},    // has a child
		{ID: 3, Parent: 0, Start: 8 * ms, End: 12 * ms},   // runs past its parent's end
		{ID: 4, Parent: 2, Start: 2 * ms, End: 4 * ms},    // grandchild of the root
		{ID: 5, Parent: -1, Start: 20 * ms, End: 21 * ms}, // second root, no children
	}
	// Root: children cover [1,5] and [8,10] = 6 ms of its 10.
	want := []time.Duration{4 * ms, 2 * ms, 1 * ms, 4 * ms, 2 * ms, 1 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// take draws n requests from a fresh stream of w under seed.
func take(t *testing.T, w *workload, seed int64, n int) []request {
	t.Helper()
	next := w.stream(seed)
	out := make([]request, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

func TestStreamsDeterministic(t *testing.T) {
	counts := map[string]int{"fig9-warm": 30, "unique-cold": 40, "deep100": 3}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			w2, _ := newWorkload(name)
			for i, r := range w.setup {
				if !bytes.Equal(r.body, w2.setup[i].body) {
					t.Fatalf("set-up request %d differs between two builds", i)
				}
			}
			a, b := take(t, w, 5, counts[name]), take(t, w2, 5, counts[name])
			for i := range a {
				if !bytes.Equal(a[i].body, b[i].body) {
					t.Fatalf("request %d differs between two streams of seed 5", i)
				}
			}
			c := take(t, w, 6, counts[name])
			same := true
			for i := range a {
				same = same && bytes.Equal(a[i].body, c[i].body)
			}
			if same {
				t.Error("seeds 5 and 6 give the same stream")
			}
		})
	}
}

func TestUniqueColdNeverRepeats(t *testing.T) {
	w, err := newWorkload("unique-cold")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]string)
	for _, r := range w.setup {
		seen[bodySignature(r.body)] = r.label
	}
	perClass := make(map[string]int)
	for i, r := range take(t, w, 9, 20*len(uniqueClasses)) {
		sig := bodySignature(r.body)
		if prev, dup := seen[sig]; dup {
			t.Fatalf("request %d (%s) repeats the circuit of %s", i, r.label, prev)
		}
		seen[sig] = r.label
		perClass[strings.Split(r.label, "-")[0]]++
	}
	if len(perClass) != len(uniqueClasses) {
		t.Errorf("stream covers %d classes, want %d", len(perClass), len(uniqueClasses))
	}
	for class, n := range perClass {
		if n != 20 {
			t.Errorf("class %s carried %d times in 20 rounds, want 20", class, n)
		}
	}
}

func TestExpectedCoversSetUp(t *testing.T) {
	exp, err := parseExpected(expectedTSV)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		w, err := newWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		reqs := append(append([]request(nil), w.setup...), take(t, w, defaultSeed, expectedStream[name])...)
		for _, r := range reqs {
			for i := range r.strategies {
				if _, ok := exp[r.jobKey(i)]; !ok {
					t.Errorf("%s: no expected record for %s", name, r.jobKey(i))
				}
			}
		}
	}
}

// ndjson renders reply lines the way the server's stream does.
func ndjson(lines ...any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, l := range lines {
		_ = enc.Encode(l)
	}
	return b.Bytes()
}

func TestCheckReplyFailsWrongOutput(t *testing.T) {
	r := request{label: "c", strategies: []string{"ColorDynamic", "Baseline U"}}
	good := func(i int, success float64) server.ResultLine {
		return server.ResultLine{Type: "result", Index: i, Strategy: r.strategies[i],
			Result: &server.ResultDetail{Success: success, Depth: 3, CompiledDepth: 4, SwapCount: 1, MaxColorsUsed: 2}}
	}
	done := server.DoneLine{Type: "done", Jobs: 2, ElapsedMicros: 1500, Cache: &server.CacheReport{}}
	exp := expected{"c/ColorDynamic": {"0.5", 3, 4, 1, 2}}

	rp := checkReply(r, 200, ndjson(good(1, 0.25), good(0, 0.5), done), exp)
	if rp.failed != 0 || len(rp.problems) != 0 {
		t.Fatalf("correct reply: failed=%d problems=%v", rp.failed, rp.problems)
	}
	if rp.elapsed != 1500*time.Microsecond || rp.results[1].Success != 0.25 {
		t.Errorf("correct reply parsed as elapsed=%v results=%+v", rp.elapsed, rp.results)
	}

	errLine := server.ResultLine{Type: "error", Index: 1, Strategy: "Baseline U", Error: "boom"}
	badDone := done
	badDone.Jobs = 3
	for _, c := range []struct {
		name   string
		status int
		raw    []byte
		failed int
	}{
		{"mismatch with the record", 200, ndjson(good(0, 0.500001), good(1, 0.25), done), 1},
		{"success of zero", 200, ndjson(good(0, 0.5), good(1, 0), done), 1},
		{"success above one", 200, ndjson(good(0, 0.5), good(1, 1.5), done), 1},
		{"error line", 200, ndjson(good(0, 0.5), errLine, done), 1},
		{"missing result line", 200, ndjson(good(0, 0.5), done), 1},
		{"no done line", 200, ndjson(good(0, 0.5), good(1, 0.25)), 2},
		{"done line with the wrong job count", 200, ndjson(good(0, 0.5), good(1, 0.25), badDone), 2},
		{"non-200 status", 429, ndjson(server.ErrorResponse{Error: "queue full"}), 2},
	} {
		rp := checkReply(r, c.status, c.raw, exp)
		if rp.failed != c.failed || len(rp.problems) == 0 {
			t.Errorf("%s: failed=%d problems=%v, want failed=%d with a problem", c.name, rp.failed, rp.problems, c.failed)
		}
	}
}
