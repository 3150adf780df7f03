package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"fastsc/internal/server"
)

// post sends one body to the daemon's streaming endpoint in-process and
// returns the status, the NDJSON reply and the request's latency.
func post(h http.Handler, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), time.Since(start)
}

// jobResult is the part of one job's result the correctness gate checks.
type jobResult struct {
	Success       float64
	Depth         int
	CompiledDepth int
	SwapCount     int
	MaxColorsUsed int
}

func fromDetail(d *server.ResultDetail) jobResult {
	return jobResult{d.Success, d.Depth, d.CompiledDepth, d.SwapCount, d.MaxColorsUsed}
}

// reply is one parsed and checked response.
type reply struct {
	// results holds each job's result by job index; a failed job's entry
	// is the zero value.
	results []jobResult
	failed  int
	// elapsed is the done line's elapsed_us: the server's batch time from
	// admission to the last result.
	elapsed time.Duration
	cache   *server.CacheReport
	// problems describes every check that failed.
	problems []string
}

// checkReply parses an NDJSON reply to r and checks it: status 200, one
// result line per job and no error line, a done line whose jobs matches
// and whose failed is 0, 0 < success <= 1 for every job, and each job's
// result equal to its expected record when the gate holds one. A job that
// fails any check counts as failed; a reply-level fault fails every job.
func checkReply(r request, status int, raw []byte, exp expected) reply {
	n := len(r.strategies)
	rp := reply{results: make([]jobResult, n)}
	fail := func(format string, args ...any) {
		rp.problems = append(rp.problems, r.label+": "+fmt.Sprintf(format, args...))
	}
	if status != http.StatusOK {
		fail("HTTP status %d: %s", status, bytes.TrimSpace(raw))
		rp.failed = n
		return rp
	}
	seen := make([]bool, n)
	bad := make([]bool, n)
	var done *server.DoneLine
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			fail("malformed line: %v", err)
			continue
		}
		switch probe.Type {
		case "done":
			done = new(server.DoneLine)
			if err := json.Unmarshal(sc.Bytes(), done); err != nil {
				fail("malformed done line: %v", err)
			}
		case "result", "error":
			var line server.ResultLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				fail("malformed result line: %v", err)
				continue
			}
			i := line.Index
			if i < 0 || i >= n || seen[i] {
				fail("unexpected or repeated job index %d", i)
				continue
			}
			seen[i] = true
			switch {
			case line.Type == "error" || line.Result == nil:
				fail("job %s: error %q", r.jobKey(i), line.Error)
				bad[i] = true
			case line.Strategy != r.strategies[i]:
				fail("job %d: strategy %q, want %q", i, line.Strategy, r.strategies[i])
				bad[i] = true
			default:
				got := fromDetail(line.Result)
				rp.results[i] = got
				if !(got.Success > 0 && got.Success <= 1) {
					fail("job %s: success %v outside (0, 1]", r.jobKey(i), got.Success)
					bad[i] = true
				} else if msg := exp.check(r.jobKey(i), got); msg != "" {
					fail("job %s: %s", r.jobKey(i), msg)
					bad[i] = true
				}
			}
		default:
			fail("unknown line type %q", probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		fail("reading reply: %v", err)
	}
	for i := range seen {
		if !seen[i] {
			fail("job %s: no result line", r.jobKey(i))
			bad[i] = true
		}
	}
	switch {
	case done == nil:
		fail("no done line")
	case done.Jobs != n || done.Failed != 0 || done.Cache == nil:
		fail("done line jobs=%d failed=%d cache=%v, want jobs=%d failed=0 with a cache report", done.Jobs, done.Failed, done.Cache != nil, n)
	default:
		rp.elapsed = time.Duration(done.ElapsedMicros) * time.Microsecond
		rp.cache = done.Cache
	}
	if done == nil || rp.cache == nil {
		rp.failed = n
		return rp
	}
	for _, b := range bad {
		if b {
			rp.failed++
		}
	}
	return rp
}

// cacheCounts accumulates the done lines' per-region cache reports.
type cacheCounts struct {
	regions map[string]server.RegionStats
}

func (c *cacheCounts) add(rep *server.CacheReport) {
	if c.regions == nil {
		c.regions = make(map[string]server.RegionStats)
	}
	for name, st := range rep.Regions {
		acc := c.regions[name]
		acc.Hits += st.Hits
		acc.WarmHits += st.WarmHits
		acc.Misses += st.Misses
		c.regions[name] = acc
	}
}
