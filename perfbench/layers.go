package main

import (
	"fmt"
	"time"

	"repro/internal/stats"
)

// analyzeReps is how many times the traced run times stats.FromDatabase.
const analyzeReps = 5

// traceRun is the traced replay's outcome.
type traceRun struct {
	tr *tracer
	m  *mirror
	// timed per-request facts, by sequence position.
	reqs      []reqTrace
	warmCalls int // optimizer calls made during warm-up
	analyze   []time.Duration
	// cache counter deltas over the timed requests.
	hits, misses, evictions int64
	wrong                   []int // positions whose rows differ
}

// replay runs the warm-up and timed sequences through a fresh mirror
// of the service over the same database, and checks every timed
// request's rows against the reference and against the handler's rows
// for the same request.
func replay(st *setupResult, seq sequence, bodies [][]byte, ref []uint64, sv *served) (*traceRun, error) {
	run := &traceRun{reqs: make([]reqTrace, len(seq.timed))}
	var cat stats.Catalog
	for i := 0; i < analyzeReps; i++ {
		start := time.Now()
		cat = stats.FromDatabase(st.cfg.DB)
		run.analyze = append(run.analyze, time.Since(start))
	}
	run.tr = newTracer(12 * (len(seq.warm) + len(seq.timed)))
	run.m = newMirror(st.cfg, cat, run.tr)
	for j, id := range seq.warm {
		if _, err := run.m.serve(int32(-1-j), bodies[id]); err != nil {
			return nil, fmt.Errorf("traced warm-up %q: %w", seq.pool[id], err)
		}
	}
	run.warmCalls = len(run.m.calls)
	before := run.m.cache.Stats()
	for i, id := range seq.timed {
		rt, err := run.m.serve(int32(i), bodies[id])
		if err != nil {
			return nil, fmt.Errorf("traced request %d %q: %w", i, seq.pool[id], err)
		}
		d, err := digestRelation(rt.rel)
		if err != nil {
			return nil, err
		}
		if r := sv.rep[i]; d != ref[id] || (r >= 0 && d != sv.digests[int(r)]) {
			run.wrong = append(run.wrong, i)
		}
		rt.rowsOut, rt.rel = rt.rel.Len(), nil
		run.reqs[i] = rt
	}
	after := run.m.cache.Stats()
	run.hits = after.Hits - before.Hits
	run.misses = after.Misses - before.Misses
	run.evictions = after.Evicted - before.Evicted
	return run, nil
}

// layerMetrics derives the per-layer metrics from the traced replay
// and the untraced run's counters.
func layerMetrics(run *traceRun, sv *served) []metric {
	n := len(run.reqs)
	self := run.tr.selfTimes()
	perReq := make([][numLayers]int64, n)
	for i, s := range run.tr.spans {
		if s.req >= 0 {
			perReq[s.req][s.layer] += self[i]
		}
	}
	col := func(f func(i int) float64) float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = f(i)
		}
		return median(v)
	}
	us := func(l layer) float64 { return col(func(i int) float64 { return float64(perReq[i][l]) / 1e3 }) }
	total := func(i int) float64 { return float64(run.tr.dur(run.reqs[i].root)) }

	var lookups, rows []float64
	var execAlloc uint64
	for i, rt := range run.reqs {
		if rt.hit {
			lookups = append(lookups, float64(perReq[i][layerCache])/1e3)
		}
		execAlloc += rt.execAlloc
		rows = append(rows, float64(rt.rowsOut))
	}

	var optTotal, simplify, explore, cost []float64
	timedCalls, degraded := 0, 0
	for _, c := range run.m.calls {
		optTotal = append(optTotal, float64(c.total)/1e6)
		simplify = append(simplify, c.phases["simplify"].Seconds()*1e3)
		explore = append(explore, c.phases["explore"].Seconds()*1e3)
		cost = append(cost, c.phases["cost"].Seconds()*1e3)
		if c.req >= 0 {
			timedCalls++
			if c.degraded {
				degraded++
			}
		}
	}
	perKq := func(c float64) float64 { return c * 1000 / float64(n) }
	analyze := make([]float64, len(run.analyze))
	for i, d := range run.analyze {
		analyze[i] = d.Seconds() * 1e3
	}
	hitRatio := 0.0
	if run.hits+run.misses > 0 {
		hitRatio = float64(run.hits) / float64(run.hits+run.misses)
	}
	rootMedian := col(total)
	return []metric{
		{"serve.residual_us", us(layerServe), "us"},
		{"sql.parse_us", us(layerParse), "us"},
		{"sql.parameterize_us", us(layerParameterize), "us"},
		{"sql.lower_us", us(layerLower), "us"},
		{"sql.share", col(func(i int) float64 {
			return float64(perReq[i][layerParse]+perReq[i][layerParameterize]+perReq[i][layerLower]) / total(i)
		}), "ratio"},
		{"plan.key_us", us(layerKey), "us"},
		{"plan.bind_us", us(layerBind), "us"},
		{"plancache.lookup_us", median(lookups), "us"},
		{"plancache.hit_ratio", hitRatio, "ratio"},
		{"plancache.evictions_per_kq", perKq(float64(run.evictions)), "count/kq"},
		{"optimizer.optimize_ms", median(optTotal), "ms"},
		{"optimizer.simplify_ms", median(simplify), "ms"},
		{"optimizer.explore_ms", median(explore), "ms"},
		{"optimizer.cost_ms", median(cost), "ms"},
		{"optimizer.calls_per_kq", perKq(float64(timedCalls)), "count/kq"},
		{"optimizer.degraded_per_kq", perKq(float64(degraded)), "count/kq"},
		{"stats.analyze_ms", median(analyze), "ms"},
		{"executor.run_ms", us(layerExec) / 1e3, "ms"},
		// A mean, not a median: the runtime counts small allocations
		// when a cached span is swapped out, so one call's delta is
		// coarse while the sum over the run is not.
		{"executor.alloc_kb", float64(execAlloc) / 1024 / float64(n), "KB"},
		{"executor.rows_out", median(rows), "rows"},
		{"executor.share", col(func(i int) float64 { return float64(perReq[i][layerExec]) / total(i) }), "ratio"},
		{"feedback.corrections", float64(sv.counters["feedback.corrections"]), "count"},
		{"feedback.drift_trips", float64(sv.counters["feedback.drift_trips"]), "count"},
		{"feedback.replans", float64(sv.counters["feedback.replans"]), "count"},
		{"plancache.refreshes", float64(sv.counters["plancache.refreshes"]), "count"},
		{"feedback.requests_to_first_replan", float64(sv.firstReplan), "count"},
		{"gc.cycles_per_kq", perKq(float64(sv.gcCycles)), "count/kq"},
		// Traced minus untraced per-request medians. The replay skips
		// the HTTP mux and the response recorder, so on requests where
		// those cost more than the spans it can read negative.
		{"trace.overhead_us", (rootMedian - float64(medianDuration(sv.lat))) / 1e3, "us"},
	}
}
