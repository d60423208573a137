package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"lera/internal/core"
	"lera/internal/engine"
	"lera/internal/esql"
	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/obs"
	"lera/internal/plancache"
	"lera/internal/rewrite"
	"lera/internal/server"
	"lera/internal/term"
	"lera/internal/translate"
	"lera/internal/value"
)

// errIntegrity marks a workload-integrity violation in the traced run.
var errIntegrity = errors.New("workload integrity")

// driver is the traced run's decomposed driver. It sends each query
// through the public calls the session makes — esql.ParseQuery,
// translate.Select, the plan cache or Rewriter.RewriteCtx, lera.Infer,
// engine.DB.EvalCtx and, on served_repeat, the response encoding — and
// wraps every call in a span. For the same query it also times the
// untraced Session.QueryCtx path and, on served_repeat, the HTTP round
// trip, and requires all of them to return the same rows.
type driver struct {
	work  *core.Session // its catalog, engine DB and rewriter are called directly
	plain *core.Session // the untraced Session.QueryCtx path
	// cache is the driver's own plan cache (nil when the workload runs
	// without one); env is the environment its entries are stored under.
	cache  *plancache.Cache
	env    string
	guards embeddedGuards
	http   *httpClient // served_repeat only
	// twin is closure_exec's governed twin: a fork under the spill grant
	// that re-evaluates each governed query's plan, so the spill layer is
	// measured on a workload whose timed path never spills.
	twin *core.Session

	tr  *tracer
	acc accum
	ms  runtime.MemStats
	// buildRules and loadData time the rewriter construction and DB.Load.
	buildRules time.Duration
	loadData   time.Duration
}

// accum totals the traced run's per-query measurements.
type accum struct {
	queries, failed int
	traced, plain   []float64 // per-query latency (ms): decomposed, Session.QueryCtx

	roundtrip, elapsed, overhead time.Duration
	respBytes                    int64
	posts, shed                  int

	rw         rewrite.Stats // summed work counters
	rwDegraded int
	rwAlloc    uint64

	eng        engine.Counters
	spill      engine.SpillStats
	resultRows int
	engAlloc   uint64
	memPeak    int64

	hits, lookups int
	firstTouch    time.Duration

	twinEvals int
	twinTime  time.Duration
}

// newEmbeddedDriver forks base twice: one fork is driven call by call,
// the other through Session.QueryCtx.
func newEmbeddedDriver(base *core.Session, g embeddedGuards, loadData time.Duration) (*driver, error) {
	t0 := time.Now()
	work, err := base.Fork() // builds the fork's rewriter
	build := time.Since(t0)
	if err != nil {
		return nil, err
	}
	plain, err := base.Fork()
	if err != nil {
		return nil, err
	}
	return &driver{work: work, plain: plain, guards: g, tr: newTracer(), buildRules: build, loadData: loadData}, nil
}

// newServedDriver builds an in-process session configured like the
// server's pooled sessions (films database, plan cache, metrics
// observer, serial engine, per-operator statistics for the slow-query
// ring) and drives it beside the HTTP path.
func newServedDriver(h *httpClient) (*driver, error) {
	cfg := servedConfig()
	base := core.NewSession(core.WithPlanCache(cfg.PlanCache))
	base.Obs = obs.NewObserver()
	base.Parallelism = cfg.Parallelism
	t0 := time.Now()
	if err := loadFilms(base); err != nil {
		return nil, err
	}
	load := time.Since(t0)
	d, err := newEmbeddedDriver(base, embeddedGuards{noDegrade: true}, load)
	if err != nil {
		return nil, err
	}
	d.work.DB.CollectStats = true
	d.plain.DB.CollectStats = true
	rw, err := d.work.Rewriter()
	if err != nil {
		return nil, err
	}
	d.cache = plancache.New(cfg.PlanCache)
	d.env = rw.Fingerprint()
	d.http = h
	return d, nil
}

// totalAlloc reads the heap's cumulative allocation exactly. The read
// stops the world, so it gets a span of its own: its cost is reported as
// trace.measure_us instead of inflating the unattributed remainder.
func (d *driver) totalAlloc(req, root int) uint64 {
	sp := d.tr.begin("trace.measure", req, root)
	runtime.ReadMemStats(&d.ms)
	d.tr.end(sp)
	return d.ms.TotalAlloc
}

// warm runs a warm-up stream through the driver, evaluating each plan
// twice: the first evaluation of a query pays the first-touch index
// builds, and its excess over the second is added to engine.load_ms.
// The warm-up's spans and totals are then discarded.
func (d *driver) warm(ctx context.Context, s *stream, n int) error {
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		q := s.next()
		plan, first, err := d.query(ctx, i, q)
		if err != nil {
			return fmt.Errorf("traced warm-up: %w", err)
		}
		if plan == nil || seen[q.text] {
			continue
		}
		seen[q.text] = true
		t0 := time.Now()
		if _, err := d.work.DB.EvalCtx(ctx, plan); err != nil {
			return fmt.Errorf("traced warm-up: %s: %w", q.text, err)
		}
		if again := time.Since(t0); first > again {
			d.acc.firstTouch += first - again
		}
	}
	if d.acc.failed > 0 {
		return fmt.Errorf("traced warm-up: %d queries failed", d.acc.failed)
	}
	d.acc = accum{firstTouch: d.acc.firstTouch}
	d.tr = newTracer()
	return nil
}

// query runs one query through the decomposed driver, the untraced
// session path and, when served, HTTP. It returns the executed plan and
// its evaluation time. A query that errors is counted as failed; rows
// that differ between the paths or from the reference, and guard
// violations, are returned as errors that end the run.
func (d *driver) query(ctx context.Context, req int, q query) (*term.Term, time.Duration, error) {
	d.acc.queries++
	tr := d.tr
	root := tr.begin("query", req, -1)
	plan, rows, evalDur, err := d.decomposed(ctx, req, root, q)
	tr.end(root)
	if errors.Is(err, errIntegrity) {
		return nil, 0, err
	}
	if err != nil {
		d.acc.failed++
		return nil, 0, nil
	}
	d.acc.traced = append(d.acc.traced, ms(tr.spans[root].End-tr.spans[root].Start))
	got := answerOfValues(rows) // outside the span tree: checking is not query work

	sp := tr.begin("core.query", req, -1)
	res, err := d.plain.QueryCtx(ctx, q.text)
	tr.end(sp)
	coreDur := tr.spans[sp].End - tr.spans[sp].Start
	if err != nil {
		return nil, 0, fmt.Errorf("%s: decomposed driver succeeded, Session.QueryCtx failed: %w", q.text, err)
	}
	d.acc.plain = append(d.acc.plain, ms(coreDur))
	if a := answerOfValues(res.Rows); a != got {
		return nil, 0, fmt.Errorf("%s: decomposed driver and Session.QueryCtx returned different rows", q.text)
	}
	if got != q.want {
		return nil, 0, fmt.Errorf("%s: wrong answer (%d rows, reference has %d)", q.text, got.Rows, q.want.Rows)
	}

	if d.http != nil {
		sp := tr.begin("server.roundtrip", req, -1)
		resp, n, rt, err := d.http.post(ctx, q.text)
		tr.end(sp)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", q.text, err)
		}
		d.acc.posts++
		switch {
		case resp.Code == string(guard.CodeOverloaded):
			d.acc.shed++
			return nil, 0, fmt.Errorf("request shed at one client: %s", q.text)
		case resp.Code != string(guard.CodeOK):
			return nil, 0, fmt.Errorf("%s: HTTP path failed: %s: %s", q.text, resp.Code, resp.Error)
		case answerOf(resp.Rows) != got:
			return nil, 0, fmt.Errorf("%s: HTTP path and decomposed driver returned different rows", q.text)
		}
		d.acc.roundtrip += rt
		d.acc.elapsed += time.Duration(resp.ElapsedNs)
		d.acc.overhead += rt - coreDur
		d.acc.respBytes += int64(n)
	}
	if d.twin != nil && q.governed {
		if err := d.spillTwin(ctx, req, q, plan, got); err != nil {
			return nil, 0, err
		}
	}
	return plan, evalDur, nil
}

// spillTwin evaluates plan on the governed twin. It must spill, and its
// rows must equal the in-memory rows.
func (d *driver) spillTwin(ctx context.Context, req int, q query, plan *term.Term, want answer) error {
	db := d.twin.DB
	db.Limits = d.twin.Limits
	db.Parallelism = d.twin.Parallelism
	db.SpillDir = d.twin.SpillDir
	before := db.Spill
	sp := d.tr.begin("engine.spill_execute", req, -1)
	rel, err := db.EvalCtx(ctx, plan)
	d.tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: governed twin: %w", q.text, err)
	}
	spilled := engine.SpillStats{Partitions: db.Spill.Partitions - before.Partitions, Bytes: db.Spill.Bytes - before.Bytes, Reads: db.Spill.Reads - before.Reads}
	switch {
	case spilled.Bytes == 0:
		return fmt.Errorf("%w: governed query did not spill: %s", errIntegrity, q.text)
	case answerOfValues(rel.Rows) != want:
		return fmt.Errorf("%s: governed twin and in-memory evaluation returned different rows", q.text)
	}
	d.acc.spill.Add(spilled)
	d.acc.twinEvals++
	d.acc.twinTime += d.tr.spans[sp].End - d.tr.spans[sp].Start
	return nil
}

// decomposed is the call-by-call pipeline under span root. It returns
// the executed plan, the result rows and the evaluation time.
func (d *driver) decomposed(ctx context.Context, req, root int, q query) (*term.Term, [][]value.Value, time.Duration, error) {
	tr := d.tr
	var none [][]value.Value
	sp := tr.begin("esql.parse", req, root)
	sel, err := esql.ParseQuery(q.text)
	tr.end(sp)
	if err != nil {
		return nil, none, 0, err
	}
	sp = tr.begin("translate", req, root)
	initial, err := translate.Select(d.work.Cat, sel)
	tr.end(sp)
	if err != nil {
		return nil, none, 0, err
	}

	var plan *term.Term
	if d.cache != nil {
		plan, err = d.cached(ctx, req, root, initial)
	} else {
		plan, err = d.rewrite(ctx, req, root, initial)
	}
	if err != nil {
		return nil, none, 0, err
	}

	sp = tr.begin("lera.infer", req, root)
	schema, err := lera.Infer(plan, d.work.Cat, nil)
	tr.end(sp)
	if err != nil {
		return nil, none, 0, err
	}

	// The session copies its knobs onto the DB before every evaluation.
	db := d.work.DB
	db.Limits = d.work.Limits
	db.Parallelism = d.work.Parallelism
	db.BatchSize = d.work.BatchSize
	db.SpillDir = d.work.SpillDir
	count, spill := db.Count, db.Spill
	a0 := d.totalAlloc(req, root)
	sp = tr.begin("engine.execute", req, root)
	rel, err := db.EvalCtx(ctx, plan)
	tr.end(sp)
	evalDur := tr.spans[sp].End - tr.spans[sp].Start
	d.acc.engAlloc += d.totalAlloc(req, root) - a0
	if err != nil {
		return nil, none, 0, err
	}
	d.acc.eng.Add(countDelta(count, db.Count))
	spilled := engine.SpillStats{Partitions: db.Spill.Partitions - spill.Partitions, Bytes: db.Spill.Bytes - spill.Bytes, Reads: db.Spill.Reads - spill.Reads}
	d.acc.spill.Add(spilled)
	d.acc.resultRows += len(rel.Rows)
	d.acc.memPeak = max(d.acc.memPeak, db.LastMemPeak())
	if bad := d.guards.violation(q, false, spilled.Bytes); bad != "" {
		return nil, none, 0, fmt.Errorf("%w: %s", errIntegrity, bad)
	}

	if d.http != nil {
		sp = tr.begin("server.encode", req, root)
		err = encodeResponse(schema, rel)
		tr.end(sp)
		if err != nil {
			return nil, none, 0, err
		}
	}
	return plan, rel.Rows, evalDur, nil
}

// encodeResponse renders rows with value.String and JSON-encodes a
// server.Response, as the server does for an OK answer.
func encodeResponse(schema *lera.Schema, rel *engine.Relation) error {
	resp := server.Response{Code: string(guard.CodeOK), RowsN: len(rel.Rows)}
	for _, c := range schema.Cols {
		resp.Columns = append(resp.Columns, c.Name)
	}
	for _, row := range rel.Rows {
		out := make([]string, len(row))
		for i, v := range row {
			out[i] = v.String()
		}
		resp.Rows = append(resp.Rows, out)
	}
	_, err := json.Marshal(resp)
	return err
}

// rewrite runs the rewriter under span "rewrite". Like the session, a
// failed rewrite degrades to the last committed term or the input.
func (d *driver) rewrite(ctx context.Context, req, root int, q *term.Term) (*term.Term, error) {
	rw, err := d.work.Rewriter()
	if err != nil {
		return nil, err
	}
	a0 := d.totalAlloc(req, root)
	sp := d.tr.begin("rewrite", req, root)
	plan, st, err := rw.RewriteCtx(ctx, q, d.work.Limits)
	d.tr.end(sp)
	d.acc.rwAlloc += d.totalAlloc(req, root) - a0
	if st != nil {
		d.acc.rw.MatchAttempts += st.MatchAttempts
		d.acc.rw.ConditionChecks += st.ConditionChecks
		d.acc.rw.Applications += st.Applications
	}
	if err != nil {
		d.acc.rwDegraded++
		if d.guards.noDegrade {
			return nil, fmt.Errorf("%w: degraded rewrite: %v", errIntegrity, err)
		}
		if lg := rw.LastGood(); lg != nil {
			return lg, nil
		}
		return q, nil
	}
	return plan, nil
}

// cached is the plan-cache path: Templatize, Lookup, then Substitute on
// a hit or a rewrite and Store on a miss, following the session's rule
// that a template plan is stored only if substituting this query's
// bindings reproduces the concrete plan.
func (d *driver) cached(ctx context.Context, req, root int, q *term.Term) (*term.Term, error) {
	tr := d.tr
	sp := tr.begin("plancache.templatize", req, root)
	tmpl, params := plancache.Templatize(q)
	key := tmpl
	if len(params) > 0 && d.cache.Rejected(tmpl.Hash()) {
		key = q
	}
	tr.end(sp)
	sp = tr.begin("plancache.lookup", req, root)
	cplan, _, _, status := d.cache.Lookup(key, d.env)
	tr.end(sp)
	d.acc.lookups++
	if status == plancache.Hit {
		sp = tr.begin("plancache.substitute", req, root)
		plan, err := plancache.Substitute(cplan, params)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		d.acc.hits++
		return plan, nil
	}
	plan, err := d.rewrite(ctx, req, root, q)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("plancache.store", req, root)
	defer tr.end(sp)
	if len(params) == 0 || key == q {
		d.cache.Store(key, plan, 0, d.env)
		return plan, nil
	}
	rw, err := d.work.Rewriter()
	if err != nil {
		return nil, err
	}
	if tplan, st, err := rw.RewriteCtx(ctx, tmpl, d.work.Limits); err == nil && !st.Degraded {
		if check, err := plancache.Substitute(tplan, params); err == nil && term.Equal(check, plan) {
			d.cache.Store(tmpl, tplan, len(params), d.env)
			return plan, nil
		}
	}
	d.cache.Reject(tmpl.Hash())
	d.cache.Store(q, plan, 0, d.env)
	return plan, nil
}

func countDelta(before, after engine.Counters) engine.Counters {
	return engine.Counters{
		Scanned:       after.Scanned - before.Scanned,
		JoinPairs:     after.JoinPairs - before.JoinPairs,
		Emitted:       after.Emitted - before.Emitted,
		PredEvals:     after.PredEvals - before.PredEvals,
		FixIterations: after.FixIterations - before.FixIterations,
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// gcSample reads the runtime's cumulative GC counters.
type gcSample struct {
	gcCPU, totalCPU float64
	pauses          uint64 // total stop-the-world pause, ns
	numGC           uint32
}

func readGC() gcSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcSample{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), pauses: m.PauseTotalNs, numGC: m.NumGC}
}

// layers maps the decomposed driver's span names to metric prefixes.
var layers = []struct{ span, us, share string }{
	{"esql.parse", "esql.parse_us", "esql.parse_share"},
	{"translate", "translate.us", "translate.share"},
	{"plancache.templatize", "plancache.templatize_us", ""},
	{"plancache.lookup", "plancache.lookup_us", ""},
	{"plancache.substitute", "plancache.substitute_us", ""},
	{"plancache.store", "", ""},
	{"rewrite", "rewrite.us", "rewrite.share"},
	{"lera.infer", "lera.infer_us", "lera.infer_share"},
	{"engine.execute", "engine.execute_us", "engine.share"},
	{"server.encode", "server.encode_us", "server.encode_share"},
}

// layerMetrics computes the per-layer metrics of a traced window.
func (d *driver) layerMetrics(gc0, gc1 gcSample) map[string]float64 {
	a := &d.acc
	n := float64(max(a.queries-a.failed, 1))
	self := selfTimes(d.tr.spans)
	byName := map[string]time.Duration{}
	var rootTotal, unattributed time.Duration
	for i, s := range d.tr.spans {
		if s.Name == "query" {
			rootTotal += s.End - s.Start
			unattributed += self[i]
			continue
		}
		if s.Parent >= 0 {
			byName[s.Name] += self[i]
		}
	}
	us := func(t time.Duration) float64 { return float64(t) / 1e3 / n }
	share := func(t time.Duration) float64 { return float64(t) / float64(max(rootTotal, 1)) }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	m := map[string]float64{}
	var cacheTime time.Duration
	for _, l := range layers {
		t := byName[l.span]
		if l.us != "" {
			m[l.us] = us(t)
		}
		if l.share != "" {
			m[l.share] = share(t)
		}
		if strings.HasPrefix(l.span, "plancache.") {
			cacheTime += t
		}
	}
	m["plancache.share"] = share(cacheTime)
	m["plancache.hit_ratio"] = ratio(float64(a.hits), float64(a.lookups))
	m["trace.query_us"] = us(rootTotal)
	m["trace.measure_us"] = us(byName["trace.measure"])
	m["trace.unattributed_us"] = us(unattributed)
	m["trace.unattributed_share"] = share(unattributed)
	m["trace.overhead_ms"] = median(append([]float64(nil), a.traced...)) - median(append([]float64(nil), a.plain...))

	var plainTotal float64
	for _, x := range a.plain {
		plainTotal += x
	}
	m["core.query_us"] = plainTotal * 1e3 / n
	posts := float64(max(a.posts, 1))
	m["server.roundtrip_us"] = float64(a.roundtrip) / 1e3 / posts
	m["server.elapsed_us"] = float64(a.elapsed) / 1e3 / posts
	m["server.overhead_us"] = float64(a.overhead) / 1e3 / posts
	m["server.response_bytes"] = float64(a.respBytes) / posts
	m["server.shed_frac"] = ratio(float64(a.shed), float64(a.posts))

	m["rewrite.match_attempts"] = float64(a.rw.MatchAttempts) / n
	m["rewrite.condition_checks"] = float64(a.rw.ConditionChecks) / n
	m["rewrite.applications"] = float64(a.rw.Applications) / n
	m["rewrite.useful_ratio"] = ratio(float64(a.rw.Applications), float64(a.rw.MatchAttempts))
	m["rewrite.alloc_bytes"] = float64(a.rwAlloc) / n
	m["rewrite.degraded"] = float64(a.rwDegraded)
	m["rules.build_ms"] = ms(d.buildRules)
	m["engine.load_ms"] = ms(d.loadData + a.firstTouch)

	m["engine.rows_scanned"] = float64(a.eng.Scanned) / n
	m["engine.join_pairs"] = float64(a.eng.JoinPairs) / n
	m["engine.rows_emitted"] = float64(a.eng.Emitted) / n
	m["engine.pred_evals"] = float64(a.eng.PredEvals) / n
	m["engine.fix_rounds"] = float64(a.eng.FixIterations) / n
	m["engine.result_rows"] = float64(a.resultRows) / n
	m["engine.useful_ratio"] = ratio(float64(a.resultRows), float64(a.eng.JoinPairs))
	m["engine.alloc_bytes"] = float64(a.engAlloc) / n
	m["engine.mem_peak_bytes"] = float64(a.memPeak)
	// Spill counters are per spilling evaluation: the query itself on
	// closure_spill, the governed twin on closure_exec.
	spills := n
	if a.twinEvals > 0 {
		spills = float64(a.twinEvals)
		m["engine.spill_execute_us"] = float64(a.twinTime) / 1e3 / spills
	}
	m["engine.spill_partitions"] = float64(a.spill.Partitions) / spills
	m["engine.spill_bytes"] = float64(a.spill.Bytes) / spills
	m["engine.spill_reads"] = float64(a.spill.Reads) / spills

	m["go.gc_cpu_frac"] = ratio(gc1.gcCPU-gc0.gcCPU, gc1.totalCPU-gc0.totalCPU)
	m["go.gc_pause_us"] = ratio(float64(gc1.pauses-gc0.pauses)/1e3, float64(gc1.numGC-gc0.numGC))
	return m
}
