// Command perfbench is the repository's benchmark: one closed-loop
// client drives reorder.Service in-process through its public HTTP
// handler (an in-memory POST /query per request: JSON in, JSON rows
// out, no socket) and reports end-to-end metrics; with --trace 1 it
// also replays the same requests through each layer's public functions
// and reports per-layer metrics from spans recorded around those calls.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: hit_small, exec_large, plan_churn and feedback_skew (see
// workloads.go). A workload's data and query templates are fixed; the
// seed draws its request sequence (template choice, constants, order).
// The timed phase replays a fixed request count (seconds × the
// workload's calibrated rate), so every run of a seed serves
// byte-identical SQL in the same order. Outside the timed window the
// rows of every response are checked against a reference evaluator,
// and the run's deterministic counts are compared with any earlier run
// of the same seed; a difference prints a DETERMINISM WARNING. Spans
// of the traced replay are written to <out>/spans-<workload>.tsv.
// The last line of standard output is the JSON result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// deadline bounds a whole run: a hang exits non-zero instead of
// outliving the caller's time limit.
const deadline = 170 * time.Second

// minRequests keeps at least ten samples beyond p95 in every run.
const minRequests = 220

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: "+workloadNames())
		seed    = fs.Int64("seed", 1, "seed for the generated data and request sequence")
		seconds = fs.Int("seconds", 10, "run length: scales the fixed timed request count")
		trace   = fs.Int("trace", 0, "1 = also run the traced per-layer replay and report per-layer metrics")
		outDir  = fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span dumps and determinism records")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	timer := time.AfterFunc(deadline, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded %s\n", deadline)
		os.Exit(3)
	})
	defer timer.Stop()
	if err := bench(w, *seed, *seconds, *trace == 1, *outDir, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

func bench(w *workload, seed int64, seconds int, traced bool, outDir string, stdout, stderr io.Writer) error {
	n := w.perSecond * seconds
	if n < minRequests {
		n = minRequests
	}
	seq := w.traffic(seed, n)
	bodies, err := requestBodies(seq.pool)
	if err != nil {
		return err
	}
	spillDir := filepath.Join(outDir, "spill")
	if w.feedback {
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d: closed loop, 1 client, %d timed requests (%d distinct), %d warm-up; %s, GOMAXPROCS=%d\n",
		w.name, seed, len(seq.timed), len(seq.pool), len(seq.warm), runtime.Version(), runtime.GOMAXPROCS(0))

	sv := newServed(seq)
	st, err := setup(w, spillDir, seq, bodies)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if err := serveTimed(w, st, seq, bodies, sv); err != nil {
		return err
	}
	ref, err := referenceDigests(w, st.cfg.DB, seq.pool)
	if err != nil {
		return err
	}
	// bad holds the sequence positions that failed or returned wrong
	// rows in either run.
	bad := make(map[int]bool)
	for _, i := range sv.failedAt {
		bad[i] = true
	}
	wrong := wrongResults(seq, sv, ref)
	for _, i := range wrong {
		bad[i] = true
	}

	e2e, p95Beyond := endToEnd(sv, st, n)
	printHistogram(stdout, sv.lat)
	fmt.Fprintln(stdout, "end-to-end (untraced):")
	for _, m := range e2e {
		fmt.Fprintf(stdout, "  %-20s %14.6f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(stdout, "  %-20s %14.6f ratio  (%d failed + %d wrong of %d attempted; rows of every response checked, %d distinct bodies parsed)\n",
		"error_rate", float64(len(bad))/float64(n), len(sv.failedAt), len(wrong), n, len(sv.digests))
	fmt.Fprintf(stdout, "  latency samples: %d, beyond p95: %d; set-up repetitions: %d\n", n, p95Beyond, len(st.times))
	if len(sv.failedAt) > 0 {
		fmt.Fprintf(stdout, "  first failure: %s\n", sv.firstError)
	}
	if len(wrong) > 0 {
		fmt.Fprintf(stdout, "  first wrong result: %s\n", seq.pool[seq.timed[wrong[0]]])
	}

	counts := countsOf(sv)
	warnings := checkDeterminism(filepath.Join(outDir, "counts"), w.name, seed, n, counts)

	metrics := e2e
	if traced {
		st.svc = nil // the replay builds its own service state over the same data
		tr, err := replay(st, seq, bodies, ref, sv)
		if err != nil {
			return err
		}
		for _, i := range tr.wrong {
			bad[i] = true
		}
		if len(tr.wrong) > 0 {
			fmt.Fprintf(stdout, "  traced replay: %d wrong results, first: %s\n", len(tr.wrong), seq.pool[seq.timed[tr.wrong[0]]])
		}
		warnings = append(warnings, mirrorMismatches(tr, counts)...)
		spans := filepath.Join(outDir, "spans-"+w.name+".tsv")
		if err := tr.tr.write(spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		metrics = layerMetrics(tr, sv)
		fmt.Fprintf(stdout, "per-layer (traced replay, %d spans written to %s):\n", len(tr.tr.spans), spans)
		for _, m := range metrics {
			fmt.Fprintf(stdout, "  %-34s %14.6f %s\n", m.name, m.value, m.unit)
		}
	}
	for _, msg := range warnings {
		fmt.Fprintf(stdout, "!!! DETERMINISM WARNING: %s\n", msg)
		fmt.Fprintf(stderr, "perfbench: DETERMINISM WARNING: %s\n", msg)
	}
	return printResult(stdout, len(bad) == 0, n, len(bad), metrics)
}

// endToEnd computes the end-to-end metrics of the untraced run, and
// the number of samples beyond p95.
func endToEnd(sv *served, st *setupResult, n int) ([]metric, int) {
	sorted := append([]time.Duration(nil), sv.lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p95 := sorted[int(math.Ceil(0.95*float64(n)))-1]
	beyond := n - sort.Search(n, func(i int) bool { return sorted[i] > p95 })
	setupS := make([]float64, len(st.times))
	for i, d := range st.times {
		setupS[i] = d.Seconds()
	}
	return []metric{
		{"latency_p50_ms", ms(medianDuration(sv.lat)), "ms"},
		{"latency_p95_ms", ms(p95), "ms"},
		{"throughput_qps", float64(n) / sv.wall.Seconds(), "1/s"},
		{"cpu_ms_per_query", ms(sv.cpu) / float64(n), "ms"},
		{"alloc_kb_per_query", float64(sv.allocBytes) / 1024 / float64(n), "KB"},
		{"heap_live_mb", float64(sv.heapLive) / (1 << 20), "MB"},
		{"setup_s", median(setupS), "s"},
	}, beyond
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median returns the middle value (the mean of the middle two for an
// even count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDuration(d []time.Duration) time.Duration {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x)
	}
	return time.Duration(median(v))
}

// printHistogram prints the latency distribution in log-spaced
// buckets, four per doubling, marking the buckets holding p50 and p95.
func printHistogram(w io.Writer, lat []time.Duration) {
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := len(sorted)
	p50, p95 := sorted[(n-1)/2], sorted[int(math.Ceil(0.95*float64(n)))-1]
	bucket := func(d time.Duration) int { return int(math.Floor(4 * math.Log2(float64(d)/1e3))) }
	lo, hi := bucket(sorted[0]), bucket(sorted[n-1])
	counts := make([]int, hi-lo+1)
	peak := 0
	for _, d := range sorted {
		b := bucket(d) - lo
		counts[b]++
		if counts[b] > peak {
			peak = counts[b]
		}
	}
	fmt.Fprintln(w, "latency histogram (ms):")
	for i, c := range counts {
		from := math.Exp2(float64(lo+i)/4) / 1e3
		to := math.Exp2(float64(lo+i+1)/4) / 1e3
		if c == 0 && i > 0 && i < len(counts)-1 && counts[i-1] == 0 {
			continue
		}
		mark := ""
		if bucket(p50)-lo == i {
			mark += " <- p50"
		}
		if bucket(p95)-lo == i {
			mark += " <- p95"
		}
		bar := strings.Repeat("#", (c*40+peak-1)/peak)
		fmt.Fprintf(w, "  [%9.4f, %9.4f) %7d %-40s%s\n", from, to, c, bar, mark)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(w io.Writer, correct bool, attempted, failed int, metrics []metric) error {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]resultValue, len(metrics))}
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not a number", m.name)
		}
		r.Metrics[m.name] = resultValue{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// counts are the figures a seed must reproduce exactly on every run.
type counts struct {
	Hits           int64   `json:"plancache_hits"`
	Misses         int64   `json:"plancache_misses"`
	Evictions      int64   `json:"plancache_evictions"`
	OptimizerCalls int64   `json:"optimizer_calls"`
	DriftTrips     int64   `json:"feedback_drift_trips"`
	Replans        int64   `json:"feedback_replans"`
	Corrections    int64   `json:"feedback_corrections"`
	AllocKB        float64 `json:"alloc_kb_per_query"`
}

func countsOf(sv *served) counts {
	return counts{
		Hits:           sv.counters["plancache.hits"],
		Misses:         sv.counters["plancache.misses"],
		Evictions:      sv.counters["plancache.evictions"],
		OptimizerCalls: sv.counters["optimizer.runs"],
		DriftTrips:     sv.counters["feedback.drift_trips"],
		Replans:        sv.counters["feedback.replans"],
		Corrections:    sv.counters["feedback.corrections"],
		AllocKB:        float64(sv.allocBytes) / 1024 / float64(len(sv.lat)),
	}
}

// allocTolerance is how far alloc_kb_per_query may drift between runs
// of one seed: runtime-internal allocations are not request-driven.
const allocTolerance = 0.002

// checkDeterminism compares this run's counts with the record of an
// earlier run of the same workload, seed and request count, writing
// the record when there is none. Differences mean the request sequence
// or the harness is not deterministic.
func checkDeterminism(dir, workload string, seed int64, n int, c counts) []string {
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-n%d.json", workload, seed, n))
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		b, _ := json.Marshal(c) // a struct of numbers always encodes
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return []string{fmt.Sprintf("cannot record counts: %v", err)}
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return []string{fmt.Sprintf("cannot record counts: %v", err)}
		}
		return nil
	}
	if err != nil {
		return []string{fmt.Sprintf("cannot read earlier counts: %v", err)}
	}
	var p counts
	if err := json.Unmarshal(prev, &p); err != nil {
		return []string{fmt.Sprintf("cannot parse %s: %v", path, err)}
	}
	var out []string
	exact, prevExact := c, p
	exact.AllocKB, prevExact.AllocKB = 0, 0
	if exact != prevExact {
		out = append(out, fmt.Sprintf("counts differ from an earlier run of this seed: now %+v, before %+v", exact, prevExact))
	}
	if p.AllocKB > 0 && math.Abs(c.AllocKB-p.AllocKB) > allocTolerance*p.AllocKB {
		out = append(out, fmt.Sprintf("alloc_kb_per_query %.3f differs from an earlier run of this seed (%.3f) by more than %.1f%%",
			c.AllocKB, p.AllocKB, allocTolerance*100))
	}
	return out
}

// mirrorMismatches compares the traced replay's counts with the
// service's over the same timed requests.
func mirrorMismatches(tr *traceRun, c counts) []string {
	timedCalls := int64(len(tr.m.calls) - tr.warmCalls)
	pairs := []struct {
		name            string
		service, mirror int64
	}{
		{"plancache hits", c.Hits, tr.hits},
		{"plancache misses", c.Misses, tr.misses},
		{"plancache evictions", c.Evictions, tr.evictions},
		{"optimizer calls", c.OptimizerCalls, timedCalls},
		{"feedback drift trips", c.DriftTrips, tr.m.driftTrips},
		{"feedback replans", c.Replans, tr.m.replans},
		{"feedback corrections", c.Corrections, tr.m.corrections},
	}
	var out []string
	for _, p := range pairs {
		if p.service != p.mirror {
			out = append(out, fmt.Sprintf("traced replay made %d %s where the service made %d", p.mirror, p.name, p.service))
		}
	}
	return out
}
