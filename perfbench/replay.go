package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"time"

	reorder "repro"
	"repro/internal/executor"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/stats/feedback"
)

// mirror replays requests through each layer's public functions in
// the order reorder.Service calls them, with a span around every call.
// It keeps its own plan cache, feedback store and observer, built the
// way NewService builds them, so a faithful replay reproduces the
// service's cache and feedback counts exactly.
type mirror struct {
	cfg      reorder.ServiceConfig
	timeout  time.Duration
	replanQ  float64
	replanN  int64
	est      *stats.Estimator
	cache    *plancache.Cache
	ob       *reorder.Observer
	sem      chan struct{}
	inflight atomic.Int64 // never read: it reproduces the service's admission accounting
	fb       *feedback.Store
	adapt    *executor.Adapt
	drift    map[string]int64 // template key -> consecutive drifted runs
	tr       *tracer

	calls       []optCall
	corrections int64
	driftTrips  int64
	replans     int64
}

// optCall is one optimizer run.
type optCall struct {
	req      int32
	total    int64 // ns, the optimizer span
	phases   map[string]time.Duration
	degraded bool
}

// mirrorPlan is the mirror's plan-cache value, as the service's.
type mirrorPlan struct {
	plan    plan.Node
	nparams int
	estRows map[string]float64
}

// newMirror applies NewService's defaults to cfg.
func newMirror(cfg reorder.ServiceConfig, cat stats.Catalog, tr *tracer) *mirror {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 8
	}
	m := &mirror{
		cfg:     cfg,
		timeout: cfg.DefaultTimeout,
		replanQ: cfg.ReplanQError,
		replanN: int64(cfg.ReplanAfter),
		est:     stats.NewEstimator(cat),
		ob:      reorder.NewObserver(cfg.FlightCap),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		drift:   make(map[string]int64),
		tr:      tr,
	}
	if m.timeout <= 0 {
		m.timeout = 5 * time.Second
	}
	m.cache = plancache.New(cfg.CacheBytes, m.ob.Registry)
	if cfg.Feedback {
		if m.replanQ <= 0 {
			m.replanQ = 10
		}
		if m.replanN <= 0 {
			m.replanN = 3
		}
		swap := cfg.SwapFactor
		switch {
		case swap == 0:
			swap = 4
		case swap < 0:
			swap = 0
		}
		m.fb = feedback.New(feedback.Options{Obs: m.ob.Registry})
		m.adapt = &executor.Adapt{SwapFactor: swap, Spill: true, SpillDir: cfg.SpillDir}
	}
	return m
}

// reqTrace is what the replay learns about one request beyond its
// spans.
type reqTrace struct {
	root      int32
	rel       *relation.Relation
	hit       bool
	execAlloc uint64
	rowsOut   int
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocatedBytes is the cumulative heap allocation, read without
// stopping the world.
func allocatedBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// serve replays one POST /query body: decode, admission, the layer
// pipeline, response encoding and the flight record.
func (m *mirror) serve(req int32, body []byte) (reqTrace, error) {
	rt := reqTrace{root: m.tr.begin(layerServe, req, -1)}
	defer m.tr.end(rt.root)
	var r reorder.Request
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&r); err != nil {
		return rt, fmt.Errorf("decode request: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), m.timeout)
	defer cancel()
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	m.sem <- struct{}{}
	defer func() { <-m.sem }()
	reg := obs.NewRegistry()
	b := guard.New(ctx, m.cfg.DefaultLimits, reg)

	start := time.Now()
	resp, err := m.pipeline(ctx, req, r.SQL, b, reg, &rt)
	if err != nil {
		return rt, err
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		return rt, fmt.Errorf("encode response: %w", err)
	}
	rec := flight.Record{
		Start:       start,
		Query:       r.SQL,
		DurNs:       time.Since(start).Nanoseconds(),
		PlanKey:     resp.PlanKey,
		BudgetTrips: b.Trips(),
		Counters:    flightCounters(reg),
		RowsOut:     len(resp.Rows),
		Phases: []flight.Phase{
			{Name: "optimize", Ns: resp.OptimizeNs},
			{Name: "bind", Ns: resp.BindNs},
			{Name: "execute", Ns: resp.ExecNs},
		},
	}
	m.ob.Registry.Merge(reg)
	m.ob.Flight.Add(rec)
	return rt, nil
}

// flightCounters is the service's flight-record counter subset.
func flightCounters(reg *obs.Registry) map[string]int64 {
	var out map[string]int64
	for name, v := range reg.Snapshot().Counters {
		for _, p := range []string{"memo.", "guard.", "optimizer.", "feedback."} {
			if strings.HasPrefix(name, p) {
				if out == nil {
					out = make(map[string]int64)
				}
				out[name] = v
			}
		}
	}
	return out
}

// pipeline is the service's post-admission path, one span per layer
// call.
func (m *mirror) pipeline(ctx context.Context, req int32, text string, b *guard.Budget, reg *obs.Registry, rt *reqTrace) (*reorder.Response, error) {
	root := rt.root
	sp := m.tr.begin(layerParse, req, root)
	stmt, err := sql.Parse(text)
	m.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = m.tr.begin(layerParameterize, req, root)
	tmpl, params := sql.Parameterize(stmt)
	m.tr.end(sp)
	sp = m.tr.begin(layerLower, req, root)
	node, err := sql.Lower(tmpl, m.cfg.DB)
	m.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = m.tr.begin(layerKey, req, root)
	key := plan.Key(node)
	hash := plan.Fingerprint(node)
	m.tr.end(sp)

	optStart := time.Now()
	sp = m.tr.begin(layerCache, req, root)
	entry, st, err := m.cache.Do(ctx, key, hash, m.builder(req, sp, key, node, b, reg))
	m.tr.end(sp)
	if err != nil {
		return nil, err
	}
	var optimizeNs int64
	rt.hit = st == plancache.Hit
	if !rt.hit {
		optimizeNs = time.Since(optStart).Nanoseconds()
	}
	cp := entry.Value.(*mirrorPlan)
	if cp.nparams != len(params) {
		return nil, fmt.Errorf("template %q expects %d params, got %d", key, cp.nparams, len(params))
	}

	bindStart := time.Now()
	sp = m.tr.begin(layerBind, req, root)
	bound, err := plan.BindParams(cp.plan, params)
	m.tr.end(sp)
	if err != nil {
		return nil, err
	}
	bindNs := time.Since(bindStart).Nanoseconds()
	sp = m.tr.begin(layerKey, req, root)
	planKey := plan.Key(bound)
	m.tr.end(sp)

	execStart := time.Now()
	sp = m.tr.begin(layerExec, req, root)
	alloc0 := allocatedBytes()
	var ann plan.Annotations
	if m.fb != nil {
		rt.rel, ann, err = executor.RunInstrumentedAdaptive(bound, m.cfg.DB, reg, b, m.adapt)
	} else {
		rt.rel, err = executor.RunGuarded(bound, m.cfg.DB, b)
	}
	rt.execAlloc = allocatedBytes() - alloc0
	m.tr.end(sp)
	if err != nil {
		return nil, err
	}
	execNs := time.Since(execStart).Nanoseconds()

	if m.fb != nil {
		sp = m.tr.begin(layerFeedback, req, root)
		err = m.observe(ctx, req, sp, key, hash, node, cp, bound, ann, b, reg)
		m.tr.end(sp)
		if err != nil {
			return nil, err
		}
	}

	resp := &reorder.Response{
		CacheStatus: st.String(),
		PlanKey:     planKey,
		Params:      len(params),
		OptimizeNs:  optimizeNs,
		BindNs:      bindNs,
		ExecNs:      execNs,
	}
	attrs := rt.rel.Schema().Attrs()
	resp.Columns = make([]string, len(attrs))
	for i, a := range attrs {
		resp.Columns[i] = a.String()
	}
	resp.Rows = make([][]any, rt.rel.Len())
	for i, t := range rt.rel.Tuples() {
		row := make([]any, len(t))
		for j, v := range t {
			row[j] = jsonValue(v)
		}
		resp.Rows[i] = row
	}
	return resp, nil
}

// builder returns the plan-cache build function: optimize the
// template inside an optimizer span under parent.
func (m *mirror) builder(req, parent int32, key string, node plan.Node, b *guard.Budget, reg *obs.Registry) func() (any, int64, error) {
	return func() (any, int64, error) {
		cp, err := m.optimize(req, parent, node, b, reg)
		if err != nil {
			return nil, 0, err
		}
		// The service's planBytes estimate.
		return cp, int64(len(key)+len(plan.Key(cp.plan)))*8 + 1024, nil
	}
}

// optimize is the service's optimizeTemplate.
func (m *mirror) optimize(req, parent int32, node plan.Node, b *guard.Budget, reg *obs.Registry) (*mirrorPlan, error) {
	sp := m.tr.begin(layerOptimize, req, parent)
	defer func() {
		m.tr.end(sp)
		m.calls[len(m.calls)-1].total = m.tr.dur(sp)
	}()
	m.calls = append(m.calls, optCall{req: req})
	o := optimizer.New(m.est)
	o.Opts.Workers = m.cfg.Workers
	if m.cfg.MaxPlans > 0 {
		o.Opts.MaxPlans = m.cfg.MaxPlans
	}
	o.Opts.Budget = b
	o.Opts.Obs = reg
	o.Opts.Feedback = m.fb
	res, err := o.Optimize(node, m.cfg.DB)
	if err != nil {
		return nil, err
	}
	call := &m.calls[len(m.calls)-1]
	call.degraded = res.Degraded != ""
	call.phases = make(map[string]time.Duration, len(res.Phases))
	for _, p := range res.Phases {
		call.phases[p.Name] += p.Elapsed
	}
	cp := &mirrorPlan{plan: res.Best.Plan, nparams: plan.ParamCount(node)}
	if m.fb != nil {
		sess := m.est.NewSession(reg)
		sess.SetBudget(b)
		sess.SetFeedback(m.fb)
		cp.estRows = make(map[string]float64)
		var walkErr error
		plan.Walk(cp.plan, func(n plan.Node) {
			if walkErr != nil || len(n.Children()) == 0 {
				return
			}
			est, err := sess.Rows(n)
			if err != nil {
				walkErr = err
				return
			}
			cp.estRows[plan.Key(n)] = est
		})
		if walkErr != nil {
			return nil, walkErr
		}
	}
	return cp, nil
}

// observe is the service's feedback step: fold each composite
// subtree's actual rows into the store under its template key, and
// re-plan a template that drifted past the q-error threshold on
// enough consecutive runs.
func (m *mirror) observe(ctx context.Context, req, parent int32, key string, hash uint64, node plan.Node, cp *mirrorPlan, bound plan.Node, ann plan.Annotations, b *guard.Budget, reg *obs.Registry) error {
	type obsRow struct {
		key    string
		est    float64
		actual int
	}
	var rows []obsRow
	maxQ := 1.0
	var walk func(t, bnd plan.Node)
	walk = func(t, bnd plan.Node) {
		tc, bc := t.Children(), bnd.Children()
		if len(tc) != len(bc) {
			return
		}
		for i := range tc {
			walk(tc[i], bc[i])
		}
		if len(tc) == 0 {
			return
		}
		a, ok := ann[bnd]
		if !ok {
			return
		}
		k := plan.Key(t)
		est, ok := cp.estRows[k]
		if !ok {
			return
		}
		if q := flight.QError(est, a.Rows); q > maxQ {
			maxQ = q
		}
		rows = append(rows, obsRow{key: k, est: est, actual: a.Rows})
	}
	walk(cp.plan, bound)
	for _, r := range rows {
		if err := m.fb.Record(r.key, r.est, float64(r.actual)); err != nil {
			return err
		}
	}
	reg.Counter("feedback.corrections").Add(int64(len(rows)))
	m.corrections += int64(len(rows))

	if maxQ < m.replanQ {
		m.drift[key] = 0
		return nil
	}
	m.drift[key]++
	if m.drift[key] < m.replanN {
		return nil
	}
	m.drift[key] = 0
	m.driftTrips++
	reg.Counter("feedback.drift_trips").Inc()
	if _, err := m.cache.Refresh(ctx, key, hash, m.builder(req, parent, key, node, b, reg)); err != nil {
		reg.Counter("feedback.replan_errors").Inc()
		return nil
	}
	m.replans++
	reg.Counter("feedback.replans").Inc()
	return nil
}
