package engine

// Differential tests for the batched engine against the retained
// tuple-at-a-time oracle: rows (order included), every Counters field and
// the EXPLAIN ANALYZE OpStats tree must be bit-identical at every batch
// size and every Parallelism setting — under guard budgets and fault
// injection too. This is the engine-side analogue of the rewriter's
// indexed-vs-full-scan differential gate.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/testdb"
	"lera/internal/value"
)

// diffCorpus is a set of queries covering every operator and both batch
// fast paths (compiled predicates, persistent/transient join indexes) as
// well as their generic fallbacks.
func diffCorpus() map[string]*term.Term {
	fig3 := lera.Search(
		[]*term.Term{lera.Rel("APPEARS_IN"), lera.Rel("FILM")},
		lera.Ands(
			lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1)),
			lera.Cmp("=", lera.Call("Name", lera.Attr(1, 2)), term.Str("Quinn")),
			lera.Call("Member", term.Str("Adventure"), lera.Attr(2, 3)),
		),
		[]*term.Term{lera.Attr(2, 2), lera.Attr(2, 3), lera.Call("Salary", lera.Attr(1, 2))},
	)
	fa := lera.Nest(
		lera.Search(
			[]*term.Term{lera.Rel("FILM"), lera.Rel("APPEARS_IN")},
			lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1))),
			[]*term.Term{lera.Attr(1, 2), lera.Attr(1, 3), lera.Attr(2, 2)},
		),
		[]int{3}, "Actors",
	)
	fig4 := lera.Search(
		[]*term.Term{fa},
		lera.Ands(
			term.F("MEMBER", term.Str("Adventure"), lera.Attr(1, 2)),
			term.F("ALL", lera.Cmp(">", lera.Call("Salary", lera.Attr(1, 3)), term.Num(10000))),
		),
		[]*term.Term{lera.Attr(1, 1)},
	)
	fig5 := lera.Search(
		[]*term.Term{fig5Fix()},
		lera.Ands(lera.Cmp("=", lera.Call("Name", lera.Attr(1, 2)), term.Str("Quinn"))),
		[]*term.Term{lera.Call("Name", lera.Attr(1, 1))},
	)
	// A three-relation chain join: the second probe reads its key through
	// the prefix's APPEARS_IN reference, the "+" comparison spanning FILM
	// and DOMINATE never compiles, and the CALL projection reads
	// APPEARS_IN through the generic evaluator.
	chain3 := lera.Search(
		[]*term.Term{lera.Rel("FILM"), lera.Rel("APPEARS_IN"), lera.Rel("DOMINATE")},
		lera.Ands(
			lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1)),
			lera.Cmp("=", lera.Attr(2, 2), lera.Attr(3, 2)),
			lera.Cmp("<", lera.Attr(1, 1), term.F("+", lera.Attr(3, 1), term.Num(1))),
		),
		[]*term.Term{lera.Attr(1, 2), lera.Call("Salary", lera.Attr(2, 2)), lera.Attr(3, 3)},
	)
	filmIDs := func(rel string) *term.Term {
		return lera.Search([]*term.Term{lera.Rel(rel)}, lera.TrueQual(), []*term.Term{lera.Attr(1, 1)})
	}
	return map[string]*term.Term{
		"fig3-hash-join":   fig3,
		"three-way-chain":  chain3,
		"fig4-nest-all":    fig4,
		"fig5-fixpoint":    fig5,
		"union":            lera.Union(filmIDs("FILM"), filmIDs("APPEARS_IN")),
		"inter":            lera.Inter(filmIDs("FILM"), filmIDs("DOMINATE")),
		"diff":             lera.Diff(filmIDs("FILM"), filmIDs("DOMINATE")),
		"filter-member":    lera.Filter(lera.Rel("FILM"), lera.Ands(term.F("MEMBER", term.Str("Western"), lera.Attr(1, 3)))),
		"join-op":          lera.Join(lera.Rel("FILM"), lera.Rel("APPEARS_IN"), lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1)))),
		"nest-multi":       lera.Nest(lera.Rel("DOMINATE"), []int{2, 3}, "Pairs"),
		"unnest":           lera.Unnest(lera.Nest(lera.Rel("APPEARS_IN"), []int{2}, "Actors"), 2),
		"let-self-join":    lera.Let("M", filmIDs("FILM"), lera.Search([]*term.Term{lera.Rel("M"), lera.Rel("M")}, lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1))), []*term.Term{lera.Attr(1, 1)})),
		"cartesian-filter": lera.Search([]*term.Term{lera.Rel("FILM"), lera.Rel("APPEARS_IN")}, lera.Ands(lera.Cmp("<", lera.Attr(1, 1), lera.Attr(2, 1))), []*term.Term{lera.Attr(1, 1), lera.Attr(2, 1)}),
		"leftover-conj":    lera.Search([]*term.Term{lera.Rel("FILM")}, lera.Ands(lera.Cmp("=", term.Str("x"), term.Str("x")), lera.Cmp(">=", lera.Attr(1, 1), term.Num(2))), []*term.Term{lera.Attr(1, 2)}),
		"static-false":     lera.Search([]*term.Term{lera.Rel("FILM")}, lera.Ands(term.FalseT()), []*term.Term{lera.Attr(1, 1), lera.Attr(1, 2)}),
	}
}

// engineRun is one evaluation outcome: rows rendered through the oracle
// row keys, counters, the stats tree and the error (if any).
type engineRun struct {
	rows  []string
	width int
	count Counters
	stats string
	err   error
}

func runEngine(t *testing.T, q *term.Term, row bool, batch, par int, lim guard.Limits, mode FixMode) engineRun {
	t.Helper()
	db := loadedDB(t)
	db.RowEngine = row
	db.BatchSize = batch
	db.Parallelism = par
	db.Limits = lim
	db.Mode = mode
	db.CollectStats = true
	rel, err := db.EvalCtx(context.Background(), q)
	out := engineRun{count: db.Count, err: err}
	if st := db.LastExecStats(); st != nil {
		out.stats = st.Format(false)
	}
	if err == nil {
		out.width = rel.Arity()
		for _, r := range rel.Rows {
			out.rows = append(out.rows, rowKey(r))
		}
	}
	return out
}

func diffRuns(a, b engineRun) string {
	if (a.err == nil) != (b.err == nil) {
		return fmt.Sprintf("error parity: %v vs %v", a.err, b.err)
	}
	if a.err != nil {
		if a.err.Error() != b.err.Error() {
			return fmt.Sprintf("error text: %q vs %q", a.err, b.err)
		}
		return ""
	}
	if a.width != b.width {
		return fmt.Sprintf("width %d vs %d", a.width, b.width)
	}
	if len(a.rows) != len(b.rows) {
		return fmt.Sprintf("%d vs %d rows", len(a.rows), len(b.rows))
	}
	for i := range a.rows {
		if a.rows[i] != b.rows[i] {
			return fmt.Sprintf("row %d differs", i)
		}
	}
	if a.count != b.count {
		return fmt.Sprintf("counters %+v vs %+v", a.count, b.count)
	}
	if a.stats != b.stats {
		return fmt.Sprintf("stats trees differ:\n%s\nvs\n%s", a.stats, b.stats)
	}
	return ""
}

// TestBatchEngineBitIdentity pins the tentpole contract: for every corpus
// query, in both fixpoint modes, the batched engine reproduces the serial
// row oracle bit-for-bit — rows in order, all counters, the whole OpStats
// tree — at batch sizes 1, 2 and 1024 and Parallelism 1 and 4, and so
// does the row engine's own parallel run.
func TestBatchEngineBitIdentity(t *testing.T) {
	for name, q := range diffCorpus() {
		for _, mode := range []FixMode{SemiNaive, Naive} {
			ref := runEngine(t, q, true, 0, 1, guard.Limits{}, mode)
			if ref.err != nil {
				t.Fatalf("%s: oracle failed: %v", name, ref.err)
			}
			for _, bs := range []int{1, 2, 1024} {
				for _, par := range []int{1, 4} {
					got := runEngine(t, q, false, bs, par, guard.Limits{}, mode)
					if d := diffRuns(ref, got); d != "" {
						t.Errorf("%s (mode %v, batch %d, par %d): %s", name, mode, bs, par, d)
					}
				}
			}
			got := runEngine(t, q, true, 0, 4, guard.Limits{}, mode)
			if d := diffRuns(ref, got); d != "" {
				t.Errorf("%s (mode %v, row engine, par 4): %s", name, mode, d)
			}
		}
	}
}

// TestBatchEngineBitIdentityUnderLimits re-runs the gate with a row
// budget tight enough to trip several corpus queries: budget errors must
// fire with identical text in both engines, and whatever fits the budget
// must still match exactly.
func TestBatchEngineBitIdentityUnderLimits(t *testing.T) {
	lim := guard.Limits{MaxRows: 12, MaxFixIterations: 50}
	tripped := 0
	for name, q := range diffCorpus() {
		ref := runEngine(t, q, true, 0, 1, lim, SemiNaive)
		if ref.err != nil {
			tripped++
		}
		for _, bs := range []int{1, 2, 1024} {
			got := runEngine(t, q, false, bs, 1, lim, SemiNaive)
			if d := diffRuns(ref, got); d != "" {
				t.Errorf("%s (batch %d): %s", name, bs, d)
			}
		}
	}
	if tripped == 0 {
		t.Fatal("budget never tripped — the limit is not exercising the error path")
	}
}

// TestBatchEngineFaultParity arms deterministic ADT faults and checks the
// engines fail identically: with an injector present the batch engine
// must disable its compiled comparisons, so every ADT hit — and therefore
// the fault call index — matches the oracle exactly. The three-way chain
// faults in the predicate spanning its first and third relations, which
// the batch engine evaluates through the joined prefix's references.
func TestBatchEngineFaultParity(t *testing.T) {
	cases := []struct {
		query, adt string
	}{
		// MEMBER reaches the ADT registry (Name resolves as a field
		// projection and never hits the injector).
		{"fig3-hash-join", "MEMBER"},
		{"three-way-chain", "+"},
	}
	for _, c := range cases {
		q := diffCorpus()[c.query]
		for _, call := range []int{1, 2} {
			run := func(row bool, bs int) engineRun {
				db := loadedDB(t)
				inj := guard.NewInjector()
				inj.Set(c.adt, guard.Fault{OnCall: call, Mode: guard.FaultError})
				db.Injector = inj
				db.RowEngine = row
				db.BatchSize = bs
				db.CollectStats = true
				rel, err := db.EvalCtx(context.Background(), q)
				out := engineRun{count: db.Count, err: err}
				if err == nil {
					out.width = rel.Arity()
					for _, r := range rel.Rows {
						out.rows = append(out.rows, rowKey(r))
					}
				}
				return out
			}
			ref := run(true, 0)
			if ref.err == nil {
				t.Fatalf("%s call %d: fault did not fire", c.query, call)
			}
			for _, bs := range []int{1, 1024} {
				got := run(false, bs)
				if (got.err == nil) || got.err.Error() != ref.err.Error() {
					t.Errorf("%s call %d batch %d: error %v, oracle %v", c.query, call, bs, got.err, ref.err)
				}
				if got.count != ref.count {
					t.Errorf("%s call %d batch %d: counters at failure %+v, oracle %+v", c.query, call, bs, got.count, ref.count)
				}
			}
		}
	}
}

// TestBatchEngineBitIdentityLargeFixpoint runs the Figure 5 closure over
// random graphs large enough to cross batch and parallel-chunk
// boundaries.
func TestBatchEngineBitIdentityLargeFixpoint(t *testing.T) {
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		rows := randomGraph(40, 80, seed)
		run := func(row bool, bs, par int, mode FixMode) engineRun {
			db := New(cat)
			if err := db.Load("DOMINATE", rows); err != nil {
				t.Fatal(err)
			}
			db.RowEngine = row
			db.BatchSize = bs
			db.Parallelism = par
			db.Mode = mode
			db.CollectStats = true
			rel, err := db.EvalCtx(context.Background(), fig5Fix())
			out := engineRun{count: db.Count, err: err}
			if st := db.LastExecStats(); st != nil {
				out.stats = st.Format(false)
			}
			if err == nil {
				out.width = rel.Arity()
				for _, r := range rel.Rows {
					out.rows = append(out.rows, rowKey(r))
				}
			}
			return out
		}
		for _, mode := range []FixMode{SemiNaive, Naive} {
			ref := run(true, 0, 1, mode)
			if ref.err != nil {
				t.Fatalf("seed %d: oracle failed: %v", seed, ref.err)
			}
			for _, bs := range []int{2, 1024} {
				for _, par := range []int{1, 4} {
					got := run(false, bs, par, mode)
					if d := diffRuns(ref, got); d != "" {
						t.Errorf("seed %d (mode %v, batch %d, par %d): %s", seed, mode, bs, par, d)
					}
				}
			}
		}
	}
}

// TestRowKeyEqMatchesRowKey pins the key-faithfulness of the hashed row
// equality: for a value set chosen to hit every edge (int/real collapse,
// signed zero, NaN payloads, tuple field-name concatenation, nested
// collections), valueKeyEq must coincide with Key-string equality and
// Hash must be constant on Key-equal values.
func TestRowKeyEqMatchesRowKey(t *testing.T) {
	nan := value.Real(nanValue())
	vals := []value.Value{
		value.Int(5), value.Real(5), value.Real(5.5), value.Int(-5),
		value.Real(0), value.Real(negZero()), value.Int(0),
		nan, value.Real(nanPayload()),
		value.Bool(true), value.Bool(false), value.Null,
		value.String("x"), value.String("y"), value.String(""),
		value.OID(1), value.OID(2),
		value.NewSet(value.Int(1), value.Int(2)),
		value.NewSet(value.Int(2), value.Int(1)),
		value.NewList(value.Int(1), value.Int(2)),
		value.NewTuple([]string{"a", "b"}, []value.Value{value.Int(1), value.Int(2)}),
		value.NewTuple([]string{"a,b"}, []value.Value{value.Int(1)}),
		value.NewTuple([]string{"a"}, []value.Value{value.Int(1)}),
	}
	for i, a := range vals {
		for j, b := range vals {
			keyEq := a.Key() == b.Key()
			if got := valueKeyEq(a, b); got != keyEq {
				t.Errorf("valueKeyEq(%d:%s, %d:%s) = %v, Key equality %v", i, a, j, b, got, keyEq)
			}
			if keyEq && a.Hash() != b.Hash() {
				t.Errorf("Key-equal values hash differently: %s vs %s", a, b)
			}
		}
	}
}

func nanValue() float64 {
	z := 0.0
	return z / z
}

func negZero() float64 {
	z := 0.0
	return -z
}

// nanPayload builds a NaN with a different bit pattern than 0/0.
func nanPayload() float64 {
	n := nanValue()
	return -n
}

// TestRelationIndexLifecycle is the white-box half of the persistent
// index contract: lazily built on first keyed access, warm on the second,
// dropped by Load and Insert (declared and undeclared relations alike),
// and rebuilt — with oracle-identical results — afterwards.
func TestRelationIndexLifecycle(t *testing.T) {
	db := loadedDB(t)
	q := diffCorpus()["fig3-hash-join"]
	key := []int{0}

	if got := db.idx.size(); got != 0 {
		t.Fatalf("fresh database has %d cached indexes", got)
	}
	if _, err := db.Eval(q); err != nil {
		t.Fatal(err)
	}
	first := db.idx.lookup("FILM", key)
	if first == nil {
		t.Fatal("FILM build-side index not cached after first evaluation")
	}
	if _, err := db.Eval(q); err != nil {
		t.Fatal(err)
	}
	if again := db.idx.lookup("FILM", key); again != first {
		t.Error("second evaluation rebuilt a valid index instead of reusing it")
	}

	// Load drops the cached index; the next evaluation rebuilds against
	// the new rows and still matches the oracle.
	films := db.Stored("FILM")
	newRows := append([][]value.Value{}, films.Rows...)
	if err := db.Load("FILM", newRows); err != nil {
		t.Fatal(err)
	}
	if db.idx.lookup("FILM", key) != nil {
		t.Error("Load did not invalidate the FILM index")
	}
	if _, err := db.Eval(q); err != nil {
		t.Fatal(err)
	}
	rebuilt := db.idx.lookup("FILM", key)
	if rebuilt == nil || rebuilt == first {
		t.Error("index not rebuilt after Load")
	}

	// Insert invalidates too — including the version/nrows fast path.
	extra := append([]value.Value(nil), newRows[0]...)
	extra[0] = value.Int(99)
	extra[1] = value.String("The Extra Film")
	if err := db.Insert("FILM", extra); err != nil {
		t.Fatal(err)
	}
	if db.idx.lookup("FILM", key) != nil {
		t.Error("Insert did not invalidate the FILM index")
	}

	// Post-invalidation results stay oracle-identical.
	batch, err := db.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	oracle := db.Fork()
	oracle.RowEngine = true
	want, err := oracle.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Rows) != len(want.Rows) {
		t.Fatalf("post-invalidation rows: %d vs oracle %d", len(batch.Rows), len(want.Rows))
	}
	for i := range batch.Rows {
		if rowKey(batch.Rows[i]) != rowKey(want.Rows[i]) {
			t.Errorf("post-invalidation row %d differs", i)
		}
	}
}

// TestIndexInvalidationUndeclaredRelation pins the belt-and-braces path:
// relations the catalog does not declare never bump the data version, so
// Load/Insert must drop their indexes explicitly.
func TestIndexInvalidationUndeclaredRelation(t *testing.T) {
	db := loadedDB(t)
	rows := [][]value.Value{
		{value.Int(1), value.String("a")},
		{value.Int(2), value.String("b")},
	}
	if err := db.Load("ADHOC", rows); err != nil {
		t.Fatal(err)
	}
	v0 := db.Cat.DataVersion()
	q := lera.Search(
		[]*term.Term{lera.Rel("ADHOC"), lera.Rel("ADHOC")},
		lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1))),
		[]*term.Term{lera.Attr(1, 2), lera.Attr(2, 2)},
	)
	if _, err := db.Eval(q); err != nil {
		t.Fatal(err)
	}
	if db.idx.lookup("ADHOC", []int{0}) == nil {
		t.Fatal("ADHOC index not cached")
	}
	// Same row count, same data version: only the explicit invalidation
	// can catch this swap.
	if err := db.Load("ADHOC", [][]value.Value{
		{value.Int(1), value.String("A")},
		{value.Int(2), value.String("B")},
	}); err != nil {
		t.Fatal(err)
	}
	if db.Cat.DataVersion() != v0 {
		t.Fatalf("undeclared Load bumped the data version — this test needs a stale-version scenario")
	}
	if db.idx.lookup("ADHOC", []int{0}) != nil {
		t.Fatal("Load of undeclared relation did not invalidate its index")
	}
	r, err := db.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if s := row[0].S; s != "A" && s != "B" {
			t.Errorf("stale index row surfaced: %v", row)
		}
	}
}

// TestIndexSharedAcrossForks: forks probe the parent's warm indexes and
// contribute their own builds back to the shared set.
func TestIndexSharedAcrossForks(t *testing.T) {
	db := loadedDB(t)
	q := diffCorpus()["fig3-hash-join"]
	f := db.Fork()
	if _, err := f.Eval(q); err != nil {
		t.Fatal(err)
	}
	e := db.idx.lookup("FILM", []int{0})
	if e == nil {
		t.Fatal("fork's index build not visible in parent set")
	}
	if _, err := db.Eval(q); err != nil {
		t.Fatal(err)
	}
	if db.idx.lookup("FILM", []int{0}) != e {
		t.Error("parent rebuilt an index the fork had already built")
	}
}

// TestWidthPreservation extends the PR 5 empty-arity fixes to the batched
// engine: declared widths survive empty results through every operator
// and short-circuit, in both engines, and EXPLAIN ANALYZE renders them.
func TestWidthPreservation(t *testing.T) {
	for _, row := range []bool{false, true} {
		db := loadedDB(t)
		db.RowEngine = row
		// Empty stored relation keeps its declared width.
		if err := db.Load("FILM", nil); err != nil {
			t.Fatal(err)
		}
		checks := []struct {
			name  string
			q     *term.Term
			width int
		}{
			{"static-false-search", lera.Search([]*term.Term{lera.Rel("APPEARS_IN")}, lera.Ands(term.FalseT()), []*term.Term{lera.Attr(1, 1), lera.Attr(1, 2)}), 2},
			{"empty-input-search", lera.Search([]*term.Term{lera.Rel("FILM"), lera.Rel("APPEARS_IN")}, lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1))), []*term.Term{lera.Attr(1, 2), lera.Attr(2, 2), lera.Attr(2, 1)}), 3},
			{"filter-empty", lera.Filter(lera.Rel("FILM"), lera.Ands(lera.Cmp("=", lera.Attr(1, 1), term.Num(1)))), 3},
			{"join-empty", lera.Join(lera.Rel("FILM"), lera.Rel("APPEARS_IN"), lera.TrueQual()), 5},
			{"union-empty", lera.Union(lera.Rel("FILM"), lera.Rel("FILM")), 3},
			{"inter-empty", lera.Inter(lera.Rel("FILM"), lera.Rel("FILM")), 3},
			{"diff-full", lera.Diff(lera.Rel("APPEARS_IN"), lera.Rel("APPEARS_IN")), 2},
			{"unnest-empty", lera.Unnest(lera.Rel("FILM"), 3), 3},
		}
		for _, c := range checks {
			r, err := db.Eval(c.q)
			if err != nil {
				t.Fatalf("row=%v %s: %v", row, c.name, err)
			}
			if len(r.Rows) != 0 {
				t.Fatalf("row=%v %s: expected empty result, got %d rows", row, c.name, len(r.Rows))
			}
			if r.Arity() != c.width {
				t.Errorf("row=%v %s: Arity() = %d, want %d", row, c.name, r.Arity(), c.width)
			}
		}
		// The declared width of an empty operator output surfaces in
		// EXPLAIN ANALYZE (stats.go renders width= only for empty
		// results).
		db.CollectStats = true
		if _, err := db.EvalCtx(context.Background(), checks[0].q); err != nil {
			t.Fatal(err)
		}
		if s := db.LastExecStats().Format(false); !strings.Contains(s, "width=2") {
			t.Errorf("row=%v: stats missing declared width:\n%s", row, s)
		}
		db.CollectStats = false
	}
}

// TestBatchSizeInvariance: a handful of odd batch sizes on the join-heavy
// corpus entry, all bit-identical.
func TestBatchSizeInvariance(t *testing.T) {
	q := diffCorpus()["join-op"]
	ref := runEngine(t, q, false, 0, 1, guard.Limits{}, SemiNaive)
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	for _, bs := range []int{1, 3, 7, 255, 256, 257} {
		got := runEngine(t, q, false, bs, 1, guard.Limits{}, SemiNaive)
		if d := diffRuns(ref, got); d != "" {
			t.Errorf("batch %d: %s", bs, d)
		}
	}
}

// TestSearchJoinBytesPerPair bounds the bytes a batched equi self-join
// allocates per join pair. The joined prefix is two row references and
// only the projection copies values, so a pair costs its share of the
// reference list, a two-value output row and the projection's dedup set
// — about 400 bytes on go1.24/amd64. Concatenating each pair into a
// four-value row would cost 416 bytes for that row alone and fail the
// bound.
func TestSearchJoinBytesPerPair(t *testing.T) {
	const maxBytesPerPair = 520
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	db := New(cat)
	if err := db.Load("EDGE", distinctEdges(2000, 1000)); err != nil {
		t.Fatal(err)
	}
	db.Parallelism = 1
	q := lera.Search(
		[]*term.Term{lera.Rel("EDGE"), lera.Rel("EDGE")},
		lera.Ands(lera.Cmp("=", lera.Attr(1, 2), lera.Attr(2, 1))),
		[]*term.Term{lera.Attr(1, 1), lera.Attr(2, 2)},
	)
	if _, err := db.Eval(q); err != nil { // warm the persistent join index
		t.Fatal(err)
	}
	const runs = 5
	before := db.Count.JoinPairs
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		if _, err := db.Eval(q); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	pairs := db.Count.JoinPairs - before
	if pairs < runs*2000 {
		t.Fatalf("%d join pairs over %d runs: the graph is too sparse to measure", pairs, runs)
	}
	perPair := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(pairs)
	t.Logf("%.0f bytes per join pair (%d pairs)", perPair, pairs/runs)
	if perPair > maxBytesPerPair {
		t.Errorf("equi self-join allocates %.0f bytes per join pair, bound %d", perPair, maxBytesPerPair)
	}
}

// distinctEdges returns n distinct (Src, Dst) integer edges over nodes
// 1..nodes, drawn from a fixed LCG so the graph is the same every run.
func distinctEdges(n, nodes int) [][]value.Value {
	state := uint64(0x9E3779B97F4A7C15)
	next := func() int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33)%nodes + 1
	}
	seen := map[[2]int]bool{}
	var rows [][]value.Value
	for len(rows) < n {
		e := [2]int{next(), next()}
		if seen[e] {
			continue
		}
		seen[e] = true
		rows = append(rows, []value.Value{value.Int(int64(e[0])), value.Int(int64(e[1]))})
	}
	return rows
}
