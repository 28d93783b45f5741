package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	reorder "repro"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/value"
)

// refKind selects the evaluator the output check compares against.
type refKind uint8

const (
	// refEval is plan.Node.Eval of the as-written lowered plan: the
	// reference algebra, nested loops and all.
	refEval refKind = iota
	// refExec is executor.Run of the as-written (unoptimized) lowered
	// plan, for workloads where Eval's nested loops take seconds.
	refExec
)

// sequence is a workload's generated traffic: the distinct SQL texts,
// and the warm-up and timed request orders as indexes into them.
type sequence struct {
	pool  []string
	warm  []int32
	timed []int32
}

// add interns sql into the pool and returns its index.
func (s *sequence) add(index map[string]int32, sql string) int32 {
	if id, ok := index[sql]; ok {
		return id
	}
	id := int32(len(s.pool))
	s.pool = append(s.pool, sql)
	index[sql] = id
	return id
}

// workload is one traffic mix for the single closed-loop client.
type workload struct {
	name string
	// perSecond is the timed request count per --seconds. The timed
	// phase replays a fixed count, not a fixed duration, so every run
	// of a seed executes the same SQL in the same order; the count is
	// calibrated to take about one second per unit on a 2-vCPU x86
	// container.
	perSecond int
	reference refKind
	// feedback marks the workload served with Feedback enabled.
	feedback bool
	// config builds the served database and service configuration.
	// The data, like the template pool, is part of the workload's
	// definition and does not depend on the run's seed.
	config func(spillDir string) reorder.ServiceConfig
	// traffic draws the warm-up and timed requests from the seed.
	traffic func(seed int64, n int) sequence
}

var workloads = []*workload{
	// Plan-cache hits on tiny data: parsing, parameterizing, lowering,
	// keying, binding and encoding dominate and the optimizer never
	// runs, so this is where the hit path's per-request overhead shows.
	{
		name:      "hit_small",
		perSecond: 6500,
		reference: refEval,
		config: func(string) reorder.ServiceConfig {
			return reorder.ServiceConfig{DB: demoDB(), DefaultTimeout: requestTimeout}
		},
		traffic: func(seed int64, n int) sequence { return traffic(seed, n, smallTemplates, all(smallTemplates)) },
	},
	// Plan-cache hits whose time is over 95% executor, with a working
	// set far beyond CPU caches; sql and plancache work is noise here.
	{
		name:      "exec_large",
		perSecond: 105,
		reference: refExec,
		config: func(string) reorder.ServiceConfig {
			db := datagen.Chain(4, datagen.UniformConfig{Rows: 20000, Domain: 20000}, largeDataSeed)
			return reorder.ServiceConfig{DB: db, DefaultTimeout: requestTimeout}
		},
		traffic: func(seed int64, n int) sequence { return traffic(seed, n, largeTemplates, all(largeTemplates)) },
	},
	// A template pool larger than the plan cache: requests mix hits
	// with optimizations, inserts and evictions, so planner work and
	// eviction policy dominate while the executor does little.
	{
		name:      "plan_churn",
		perSecond: 550,
		reference: refExec,
		config: func(string) reorder.ServiceConfig {
			return reorder.ServiceConfig{DB: demoDB(), CacheBytes: churnCacheBytes, DefaultTimeout: requestTimeout}
		},
		traffic: churnTraffic,
	},
	// The only workload on the instrumented adaptive executor, the
	// feedback store and drift-triggered re-planning.
	{
		name:      "feedback_skew",
		perSecond: 175,
		reference: refExec,
		feedback:  true,
		config: func(spillDir string) reorder.ServiceConfig {
			return reorder.ServiceConfig{DB: skewDB(), Feedback: true, SpillDir: spillDir, DefaultTimeout: requestTimeout}
		},
		// No warm-up: the first request optimizes, and the feedback
		// loop's learning and re-planning happen in the timed phase.
		traffic: func(seed int64, n int) sequence { return traffic(seed, n, skewTemplates, nil) },
	},
}

// requestTimeout is every workload's per-request deadline: far above
// any request's latency, so no request fails on a slow machine.
const requestTimeout = 60 * time.Second

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// template is a query shape with %d slots; each slot draws uniformly
// from its list of constants. weight is the shape's share of traffic.
type template struct {
	weight float64
	text   string
	args   [][]int
}

func (t template) render(rng *rand.Rand) string {
	vals := make([]any, len(t.args))
	for i, a := range t.args {
		vals[i] = a[rng.Intn(len(a))]
	}
	return fmt.Sprintf(t.text, vals...)
}

// first renders t with the first constant of every slot.
func (t template) first() string {
	vals := make([]any, len(t.args))
	for i, a := range t.args {
		vals[i] = a[0]
	}
	return fmt.Sprintf(t.text, vals...)
}

func ints(lo, hi, step int) []int {
	var out []int
	for v := lo; v <= hi; v += step {
		out = append(out, v)
	}
	return out
}

// smallTemplates are 1-3-relation shapes over the 7×50-row demo
// database with selective constants: every request is a plan-cache
// hit whose time goes to parsing, binding, a tiny execution and
// response encoding.
var smallTemplates = []template{
	{1, "select r1.x, r1.y from r1 where r1.x = %d", [][]int{ints(0, 8, 1)}},
	{3, "select r2.x, r3.y from r2, r3 where r2.x = r3.x and r2.y = %d and r3.y = %d", [][]int{ints(0, 5, 1), ints(0, 5, 1)}},
	{3, "select r4.y, count(*) as n from r4, r5 where r4.x = r5.x and r5.y = %d group by r4.y", [][]int{ints(0, 5, 1)}},
	{3, "select r1.x, r3.y from r1, r2, r3 where r1.x = r2.x and r2.y = r3.y and r1.x = %d and r3.x = %d", [][]int{ints(0, 8, 2), ints(0, 8, 2)}},
	{2, "select r6.x, r7.y from r6 left join r7 on r6.x = r7.x where r6.y = %d and r6.x = %d", [][]int{ints(0, 5, 1), ints(0, 8, 1)}},
}

// largeDataSeed fixes exec_large's generated relations.
const largeDataSeed = 20000

// largeTemplates are 2-3-way joins with GROUP BY and range constants
// over four 20k-row relations: every request is a plan-cache hit
// whose time goes to the executor.
var largeTemplates = []template{
	{1, "select r1.y, count(*) as n from r1, r2 where r1.x = r2.x and r1.y < %d group by r1.y", [][]int{{100, 200, 300, 400}}},
	{1, "select r3.y, count(*) as n from r1, r2, r3 where r1.x = r2.x and r2.y = r3.y and r1.y < %d group by r3.y", [][]int{{100, 200, 300, 400}}},
	{1, "select r2.y, count(*) as n, max(r3.x) as m from r2, r3, r4 where r2.x = r3.x and r3.y = r4.y and r2.y >= %d and r4.x < %d group by r2.y", [][]int{{18000, 19000}, {1000, 2000}}},
	{1, "select r4.x, count(*) as n, min(r3.y) as s from r3, r4 where r3.y = r4.y and r4.x < %d group by r4.x", [][]int{{250, 500, 750}}},
}

// traffic builds a workload's sequence. warm lists the templates
// requested once each during set-up. The timed requests follow the
// templates' weights exactly (largest-remainder rounding), so every
// seed serves the same mix; the seed draws their order and constants.
func traffic(seed int64, n int, ts []template, warm []int) sequence {
	rng := rand.New(rand.NewSource(seed))
	var s sequence
	index := make(map[string]int32)
	for _, i := range warm {
		s.warm = append(s.warm, s.add(index, ts[i].first()))
	}
	total := 0.0
	for _, t := range ts {
		total += t.weight
	}
	counts := make([]int, len(ts))
	byRemainder := make([]int, len(ts))
	left := n
	for i, t := range ts {
		counts[i] = int(float64(n) * t.weight / total)
		left -= counts[i]
		byRemainder[i] = i
	}
	remainder := func(i int) float64 { return float64(n)*ts[i].weight/total - float64(counts[i]) }
	sort.SliceStable(byRemainder, func(a, b int) bool { return remainder(byRemainder[a]) > remainder(byRemainder[b]) })
	for _, i := range byRemainder[:left] {
		counts[i]++
	}
	order := make([]int, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			order = append(order, i)
		}
	}
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	for _, i := range order {
		s.timed = append(s.timed, s.add(index, ts[i].render(rng)))
	}
	return s
}

// all returns the indexes of ts: warm every template.
func all(ts []template) []int {
	idx := make([]int, len(ts))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// demoDB is reorderd -demo's database: r1..r7, 50 rows each, int x in
// 0..8 and y in 0..5.
func demoDB() reorder.Database {
	db := reorder.Database{}
	for i := 1; i <= 7; i++ {
		name := fmt.Sprintf("r%d", i)
		b := relation.NewBuilder(name, "x", "y")
		for j := 0; j < 50; j++ {
			b.Row(value.NewInt(int64(j%9)), value.NewInt(int64(j%6)))
		}
		db[name] = b.Relation()
	}
	return db
}

// Plan-churn sizing: the template pool, its zipfian popularity, and a
// plan-cache budget that holds only part of the pool, so the timed
// phase mixes hits with optimizations, inserts and evictions.
const (
	churnPool       = 160
	churnZipfS      = 1.2
	churnCacheBytes = 256 << 10
	churnWarm       = 48
	churnFourPct    = 85 // share of 4-relation templates, in percent
)

// churnPoolSeed fixes the template pool: its join structures, their
// popularity ranks and their constants are part of the workload's
// definition, so every run seed draws from the same planner work.
const churnPoolSeed = 1996

// churnTraffic draws the timed sequence from a pool of structurally
// distinct 3-4 relation inner/left-join templates over the demo
// database, with zipfian popularity by pool position. Warm-up requests
// the churnWarm most popular templates, least popular first.
func churnTraffic(seed int64, n int) sequence {
	shapes := rand.New(rand.NewSource(churnPoolSeed))
	var pool []template
	seen := make(map[string]bool)
	for len(pool) < churnPool {
		t := churnTemplate(shapes)
		if !seen[t.text] {
			seen[t.text] = true
			t.weight = math.Pow(float64(len(pool)+1), -churnZipfS)
			pool = append(pool, t)
		}
	}
	warm := make([]int, churnWarm)
	for i := range warm {
		warm[i] = churnWarm - 1 - i
	}
	return traffic(seed, n, pool, warm)
}

// churnTemplate draws one tree-shaped join of 3 or 4 distinct demo
// relations. Each relation after the first joins an earlier one on x
// or y, either as a LEFT JOIN ... ON chained onto the first relation
// (so every ON clause names only relations already in its join, as
// SQL scoping requires) or as a comma item joined through WHERE. The
// first relation is filtered on x and the last on x and y (2-3 of its
// 50 rows), which keeps execution small. Each template has one set of
// constants, so a template's hits all cost about the same and the
// latency mix depends only on which templates the seed draws.
func churnTemplate(rng *rand.Rand) template {
	k := 3
	if rng.Intn(100) < churnFourPct {
		k = 4
	}
	rels := make([]string, k)
	for i, p := range rng.Perm(7)[:k] {
		rels[i] = fmt.Sprintf("r%d", p+1)
	}
	cols := [2]string{"x", "y"}
	from := rels[0]
	var commas, where []string
	chain := []string{rels[0]}
	for i := 1; i < k; i++ {
		if rng.Intn(3) == 0 {
			parent := chain[rng.Intn(len(chain))]
			from += fmt.Sprintf(" left join %s on %s.%s = %s.%s", rels[i], parent, cols[rng.Intn(2)], rels[i], cols[rng.Intn(2)])
			chain = append(chain, rels[i])
			continue
		}
		commas = append(commas, rels[i])
		where = append(where, fmt.Sprintf("%s.%s = %s.%s", rels[rng.Intn(i)], cols[rng.Intn(2)], rels[i], cols[rng.Intn(2)]))
	}
	for _, r := range commas {
		from += ", " + r
	}
	where = append(where, rels[0]+".x = %d", rels[k-1]+".x = %d", rels[k-1]+".y = %d")
	text := fmt.Sprintf("select %s.x as a, %s.y as b from %s where %s",
		rels[0], rels[k-1], from, strings.Join(where, " and "))
	j := rng.Intn(50) // the last relation's (x, y) pair of an existing row
	return template{text: text, args: [][]int{{rng.Intn(9)}, {j % 9}, {j % 6}}}
}

// skewDB is the skewed feedback database at benchserve -short scale.
func skewDB() reorder.Database {
	cfg := datagen.DefaultSkewConfig
	cfg.FactRows, cfg.DimRows, cfg.TagRows = 5000, 16000, 500
	cfg.JoinDomain, cfg.ADomain = 400, 400
	return datagen.Skewed(cfg)
}

// skewTemplates is the three-way skewed query with varying constants:
// fact.v always matches fact.k mod 10, as in the data, and key 0, the
// zipfian heavy hitter, gets twice the traffic of the others.
var skewTemplates = []template{
	skewTemplate(2, 0), skewTemplate(2, 1), skewTemplate(1, 2), skewTemplate(1, 3), skewTemplate(1, 5),
}

func skewTemplate(weight float64, k int) template {
	return template{
		weight: weight,
		text: "select fact.k, count(*) as n from fact, d1, d2 " +
			"where fact.j = d1.j and d1.a = d2.a and fact.k = %d and fact.v = %d and d2.tag = %d group by fact.k",
		args: [][]int{{k}, {k % 10}, {0, 1, 2, 3}},
	}
}
