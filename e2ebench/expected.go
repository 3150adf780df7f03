package main

import (
	_ "embed"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// expectedTSV is the committed record of job results the correctness gate
// compares against: every set-up job of every workload, and the first
// timed requests of each workload's default-seed stream. It is written
// once by -write-expected and never recomputed during a benchmark run.
//
//go:embed expected.tsv
var expectedTSV string

// defaultSeed is the seed whose timed stream expected.tsv records.
const defaultSeed = 1

// expectedStream is how many timed requests of the default-seed stream
// -write-expected records per workload (fig9-warm's stream only repeats
// its set-up rows, which are recorded anyway).
var expectedStream = map[string]int{"fig9-warm": 0, "unique-cold": 400, "deep100": 60}

// expected maps a job key (request label + "/" + strategy) to its recorded
// result, success kept at 6 significant digits.
type expected map[string]expectedJob

type expectedJob struct {
	success                                    string
	depth, compiledDepth, swapCount, maxColors int
}

func successString(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

func toExpected(r jobResult) expectedJob {
	return expectedJob{successString(r.Success), r.Depth, r.CompiledDepth, r.SwapCount, r.MaxColorsUsed}
}

// parseExpected reads the tab-separated record: key, success, depth,
// compiled_depth, swap_count, max_colors_used. Lines starting with # are
// comments.
func parseExpected(src string) (expected, error) {
	exp := make(expected)
	for n, line := range strings.Split(src, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 6 {
			return nil, fmt.Errorf("expected.tsv line %d: %d fields, want 6", n+1, len(f))
		}
		var ints [4]int
		for i := range ints {
			v, err := strconv.Atoi(f[2+i])
			if err != nil {
				return nil, fmt.Errorf("expected.tsv line %d: %v", n+1, err)
			}
			ints[i] = v
		}
		if _, dup := exp[f[0]]; dup {
			return nil, fmt.Errorf("expected.tsv line %d: duplicate key %q", n+1, f[0])
		}
		exp[f[0]] = expectedJob{f[1], ints[0], ints[1], ints[2], ints[3]}
	}
	return exp, nil
}

// check compares a job's result with its record; it returns "" when they
// agree or when no record exists for key.
func (e expected) check(key string, got jobResult) string {
	want, ok := e[key]
	if !ok {
		return ""
	}
	if g := toExpected(got); g != want {
		return fmt.Sprintf("got success=%s depth=%d compiled_depth=%d swap_count=%d max_colors_used=%d, expected %s %d %d %d %d",
			g.success, g.depth, g.compiledDepth, g.swapCount, g.maxColors,
			want.success, want.depth, want.compiledDepth, want.swapCount, want.maxColors)
	}
	return ""
}

// writeExpected compiles every workload's set-up requests and the first
// expectedStream[w] requests of its default-seed stream on a fresh server
// and writes the record to path.
func writeExpected(path string) error {
	rec := make(expected)
	for _, name := range workloadNames {
		w, err := newWorkload(name)
		if err != nil {
			return err
		}
		reqs := append([]request(nil), w.setup...)
		next := w.stream(defaultSeed)
		for i := 0; i < expectedStream[name]; i++ {
			reqs = append(reqs, next())
		}
		h := newServer().Handler()
		for _, r := range reqs {
			status, raw, _ := post(h, r.body)
			rp := checkReply(r, status, raw, nil)
			if len(rp.problems) > 0 {
				return fmt.Errorf("%s: %s", name, strings.Join(rp.problems, "; "))
			}
			for i, res := range rp.results {
				rec[r.jobKey(i)] = toExpected(res)
			}
		}
	}
	keys := make([]string, 0, len(rec))
	for k := range rec {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# key\tsuccess\tdepth\tcompiled_depth\tswap_count\tmax_colors_used\n")
	for _, k := range keys {
		e := rec[k]
		fmt.Fprintf(&b, "%s\t%s\t%d\t%d\t%d\t%d\n", k, e.success, e.depth, e.compiledDepth, e.swapCount, e.maxColors)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
