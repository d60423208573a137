package engine

// Batched SEARCH evaluation. Planning (static-false short-circuit,
// relation evaluation order, conjunct classification, widths and the
// empty-relation short-circuit) is shared with the oracle through
// prepareSearch/equiJoinKeys so both engines make identical decisions;
// only the row loops differ.
//
// Joined rows materialize late. A prefix over relations 1..k is k row
// references — the stored or derived rows themselves — kept in one flat
// stride-k [][]value.Value per chunk; the first relation's rows are
// already stride-1 prefixes. The join stages (hash, nested-loop and
// grace) append references, the filter stages keep or drop them, and no
// value is copied until the final projection builds the output row. The
// stage order — join, filter, project — and every tick and counter are
// the oracle's, which concatenates each joined pair into a fresh row
// instead:
//
//   - hash-join build sides come from the persistent index set when the
//     build relation is stored (acquireJoinIndex); probes read their key
//     columns through the references and emit matches with one amortized
//     tick and counter update per probe row;
//   - the filter and projection stages run over compiled predicate and
//     projection programs: built-in comparisons over (relation, column)
//     references, constants and single-attribute function calls evaluate
//     without term-tree walks, falling back to the generic evaluator —
//     which takes a prefix's k references directly as its row context,
//     bit-identical by construction — for everything else. Compilation
//     of comparisons is disabled when a fault injector is armed, since
//     the compiled path would skip the injector hit the oracle's ADT call
//     performs.

import (
	"fmt"
	"strings"

	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/value"
)

// searchPrep is the planning state shared by both engines.
type searchPrep struct {
	plan   *searchPlan
	widths []int
	// names[i] is the stored-relation name of relation i when its term is
	// a plain REL over a stored relation (not shadowed by a LET/FIX
	// binding, not a view) — the index-eligible case — and "" otherwise.
	names []string
}

// prepareSearch runs the SEARCH planning steps shared by the batched and
// oracle engines. It returns a non-nil short relation when the search
// short-circuits (statically false qualification, or an empty input
// relation) — both cases preserve the declared projection arity.
func (db *DB) prepareSearch(t *term.Term, e env) (*searchPrep, *Relation, error) {
	relTerms := t.Args[0].Args
	if len(relTerms) == 0 {
		return nil, nil, fmt.Errorf("engine: SEARCH with empty relation list")
	}
	// A statically false qualification short-circuits before any stored
	// relation is touched — the payoff of the semantic inconsistency
	// rules (§6.2): zero tuples scanned. The empty result still declares
	// the projection arity.
	for _, c := range lera.Conjuncts(t.Args[1]) {
		if c.Kind == term.Const && c.Val.K == value.KBool && !c.Val.B {
			return nil, &Relation{Width: len(t.Args[2].Args)}, nil
		}
	}
	plan := &searchPlan{projs: t.Args[2].Args}
	names := make([]string, len(relTerms))
	for i, rt := range relTerms {
		r, err := db.eval(rt, e)
		if err != nil {
			return nil, nil, err
		}
		plan.rels = append(plan.rels, r)
		names[i] = db.storedRelName(rt, e)
	}
	for _, c := range lera.Conjuncts(t.Args[1]) {
		plan.conjs = append(plan.conjs, conjunct{expr: c, maxRel: maxRelIndex(c)})
	}
	widths := make([]int, len(plan.rels))
	for i, r := range plan.rels {
		if len(r.Rows) == 0 {
			return nil, &Relation{Width: len(plan.projs)}, nil
		}
		widths[i] = len(r.Rows[0])
	}
	return &searchPrep{plan: plan, widths: widths, names: names}, nil, nil
}

// storedRelName resolves a relation term to its stored-relation name the
// same way REL evaluation does — env binding first, then stored relations
// — returning "" unless the term is served straight from db.rels.
func (db *DB) storedRelName(rt *term.Term, e env) string {
	if rt.Kind != term.Fun || rt.Functor != "REL" {
		return ""
	}
	name := strings.ToUpper(rt.Args[0].Val.S)
	if _, ok := e[name]; ok {
		return ""
	}
	if _, ok := db.rels[name]; ok {
		return name
	}
	return ""
}

// colRef addresses column col of relation rel, both 0-based, within a
// joined prefix.
type colRef struct{ rel, col int }

// attrRef resolves ATTR(i, j) against the prefix layout described by
// widths, reporting whether the reference is within it.
func attrRef(i, j int, widths []int) (colRef, bool) {
	if i < 1 || i > len(widths) || j < 1 || j > widths[i-1] {
		return colRef{}, false
	}
	return colRef{rel: i - 1, col: j - 1}, true
}

// equiJoinKeys finds (and marks used) the equi-join conjuncts
// ATTR(a,x) = ATTR(b,y) connecting the joined prefix (< ri) to relation
// ri; leftKeys address prefix columns, rightKeys are 0-based columns of
// relation ri. Shared by both engines so conjunct consumption is
// identical.
func equiJoinKeys(plan *searchPlan, ri int) (leftKeys []colRef, rightKeys []int) {
	for ci := range plan.conjs {
		c := &plan.conjs[ci]
		if c.used || c.expr.Kind != term.Fun || c.expr.Functor != "=" || len(c.expr.Args) != 2 {
			continue
		}
		ai, aj, okA := lera.AttrIdx(c.expr.Args[0])
		bi, bj, okB := lera.AttrIdx(c.expr.Args[1])
		if !okA || !okB {
			continue
		}
		switch {
		case ai < ri && bi == ri:
			leftKeys = append(leftKeys, colRef{ai - 1, aj - 1})
			rightKeys = append(rightKeys, bj-1)
			c.used = true
		case bi < ri && ai == ri:
			leftKeys = append(leftKeys, colRef{bi - 1, bj - 1})
			rightKeys = append(rightKeys, aj-1)
			c.used = true
		}
	}
	return leftKeys, rightKeys
}

// probeKey gathers a prefix's join-key values into kb (reused scratch),
// in key order; probes hash and compare it at keyPositions.
func probeKey(kb []value.Value, prefix [][]value.Value, keys []colRef) []value.Value {
	kb = kb[:0]
	for _, k := range keys {
		kb = append(kb, prefix[k.rel][k.col])
	}
	return kb
}

// keyPositions returns the column list 0..n-1 of a gathered probe key.
func keyPositions(n int) []int {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	return pos
}

// acquireJoinIndex returns the join index for a build side: the shared
// persistent one when the relation is stored, a transient build otherwise.
func (db *DB) acquireJoinIndex(name string, rows [][]value.Value, keyIdx []int) *joinIndex {
	if name != "" && db.idx != nil {
		return db.idx.acquire(db.Cat.DataVersion(), name, rows, keyIdx)
	}
	return buildJoinIndex(rows, keyIdx)
}

func (db *DB) evalSearchBatch(t *term.Term, e env) (*Relation, error) {
	prep, short, err := db.prepareSearch(t, e)
	if err != nil {
		return nil, err
	}
	if short != nil {
		return short, nil
	}
	plan, widths := prep.plan, prep.widths

	// The first relation's rows are its own stride-1 prefixes.
	current, err := db.filterRowsBatch(plan.rels[0].Rows, plan, 1, widths[:1])
	if err != nil {
		return nil, err
	}

	for ri := 2; ri <= len(plan.rels); ri++ {
		k := ri - 1 // stride of current
		next := plan.rels[ri-1]
		leftKeys, rightKeys := equiJoinKeys(plan, ri)
		var joined [][]value.Value
		if len(leftKeys) > 0 {
			// The memory governor sizes the build side with the same
			// deterministic estimate graceJoin partitions against, so the
			// spill decision is identical at every batch and pool size.
			grant := db.memGrant()
			var buildBytes int64
			if grant > 0 {
				buildBytes = rowsMemBytes(next.Rows) + int64(len(next.Rows))*setEntryBytes
			}
			if grant > 0 && buildBytes > grant {
				if !db.spillOK() {
					return nil, db.errMemBudget("SEARCH join build", buildBytes)
				}
				joined, err = db.graceJoin(current, k, next.Rows, leftKeys, rightKeys)
			} else {
				// Hash join through the (possibly persistent) index; matches
				// surface in (probe row, build insertion) order, exactly the
				// oracle's output sequence.
				ix := db.acquireJoinIndex(prep.names[ri-1], next.Rows, rightKeys)
				keyPos := keyPositions(len(leftKeys))
				db.chargeMem(buildBytes)
				joined, err = db.mapRowChunks(current, k, func(w *DB, chunk [][]value.Value) ([][]value.Value, error) {
					matches := make([][][]value.Value, len(chunk)/k)
					pairs := 0
					var kb []value.Value
					for i := range matches {
						kb = probeKey(kb, chunk[i*k:(i+1)*k], leftKeys)
						m := ix.probe(kb, keyPos)
						if len(m) == 0 {
							continue
						}
						if err := w.tickRows(len(m)); err != nil {
							return nil, err
						}
						w.Count.JoinPairs += len(m)
						matches[i] = m
						pairs += len(m)
					}
					return joinPrefixes(chunk, k, matches, pairs), nil
				})
				db.releaseMem(buildBytes)
			}
		} else {
			bs := db.batchSize()
			joined, err = db.mapRowChunks(current, k, func(w *DB, chunk [][]value.Value) ([][]value.Value, error) {
				matches := make([][][]value.Value, len(chunk)/k)
				for i := range matches {
					for ni := 0; ni < len(next.Rows); {
						n := len(next.Rows) - ni
						if n > bs {
							n = bs
						}
						if err := w.tickRows(n); err != nil {
							return nil, err
						}
						w.Count.JoinPairs += n
						ni += n
					}
					matches[i] = next.Rows
				}
				return joinPrefixes(chunk, k, matches, len(matches)*len(next.Rows)), nil
			})
		}
		if err != nil {
			return nil, err
		}
		current, err = db.filterRowsBatch(joined, plan, ri, widths[:ri])
		if err != nil {
			return nil, err
		}
	}

	// Final stage: leftover conjuncts (e.g. referencing no attributes)
	// and the projection, both compiled. The projection is the only
	// place a SEARCH copies values.
	k := len(widths)
	preds := db.compilePreds(leftoverConjuncts(plan), widths)
	projs := compileProjs(plan.projs, widths)
	out := &Relation{Width: len(plan.projs)}
	bs := db.batchSize()
	projected, err := db.mapRowChunks(current, k, func(w *DB, chunk [][]value.Value) ([][]value.Value, error) {
		kept := make([][]value.Value, 0, len(chunk)/k)
		ar := &rowArena{db: w}
		for len(chunk) > 0 {
			batch := chunk
			if len(batch) > bs*k {
				batch = batch[:bs*k]
			}
			chunk = chunk[len(batch):]
			if err := w.tickRows(len(batch) / k); err != nil {
				return nil, err
			}
		rowLoop:
			for p := 0; p < len(batch); p += k {
				prefix := batch[p : p+k : p+k]
				for i := range preds {
					ok, err := preds[i].eval(w, prefix)
					if err != nil {
						return nil, err
					}
					if !ok {
						continue rowLoop
					}
				}
				prow := ar.alloc(len(projs))
				for i := range projs {
					v, err := projs[i].eval(w, prefix)
					if err != nil {
						return nil, err
					}
					prow[i] = v
				}
				kept = append(kept, prow)
			}
		}
		return kept, nil
	})
	if err != nil {
		return nil, err
	}
	// LERA is an extension of Codd's algebra: relations are sets, so the
	// projection output deduplicates.
	out.Rows, err = db.dedupRows(projected)
	if err != nil {
		return nil, err
	}
	db.Count.Emitted += len(out.Rows)
	if err := db.chargeRows(len(out.Rows)); err != nil {
		return nil, err
	}
	return out, nil
}

// joinPrefixes builds the stride-(k+1) output of a join stage: every
// prefix of the stride-k list extended by each row it matched, in prefix
// then match order, allocated once at its exact size. The join loops
// probe (ticking and counting pairs) before they emit, so the output
// never grows by appending.
func joinPrefixes(prefixes [][]value.Value, k int, matches [][][]value.Value, pairs int) [][]value.Value {
	out := make([][]value.Value, 0, pairs*(k+1))
	for i, m := range matches {
		prefix := prefixes[i*k : (i+1)*k]
		for _, rrow := range m {
			out = append(append(out, prefix...), rrow)
		}
	}
	return out
}

// filterRowsBatch is the batched filterRows: the same active-conjunct
// selection and marking, with the conjuncts compiled and ticks amortized
// per batch. rows holds stride-upto prefixes; the kept prefixes' row
// references are copied, never their values.
func (db *DB) filterRowsBatch(rows [][]value.Value, plan *searchPlan, upto int, widths []int) ([][]value.Value, error) {
	var active []*conjunct
	for ci := range plan.conjs {
		c := &plan.conjs[ci]
		if !c.used && c.maxRel >= 1 && c.maxRel <= upto {
			active = append(active, c)
			c.used = true
		}
	}
	if len(active) == 0 {
		return rows, nil
	}
	preds := db.compilePreds(active, widths)
	bs := db.batchSize()
	return db.mapRowChunks(rows, upto, func(w *DB, chunk [][]value.Value) ([][]value.Value, error) {
		var out [][]value.Value
		for len(chunk) > 0 {
			batch := chunk
			if len(batch) > bs*upto {
				batch = batch[:bs*upto]
			}
			chunk = chunk[len(batch):]
			if err := w.tickRows(len(batch) / upto); err != nil {
				return nil, err
			}
			for p := 0; p < len(batch); p += upto {
				prefix := batch[p : p+upto : p+upto]
				keep := true
				for i := range preds {
					b, err := preds[i].eval(w, prefix)
					if err != nil {
						return nil, err
					}
					if !b {
						keep = false
						break
					}
				}
				if keep {
					out = append(out, prefix...)
				}
			}
		}
		return out, nil
	})
}

// leftoverConjuncts returns the conjuncts no earlier stage consumed.
func leftoverConjuncts(plan *searchPlan) []*conjunct {
	var out []*conjunct
	for ci := range plan.conjs {
		c := &plan.conjs[ci]
		if !c.used {
			out = append(out, c)
		}
	}
	return out
}

// searchPred is one compiled qualification conjunct, evaluated over one
// joined prefix.
type searchPred interface {
	eval(w *DB, prefix [][]value.Value) (bool, error)
}

// genericPred evaluates the conjunct through the ordinary evaluator —
// the bit-identical fallback for everything the compiler does not cover.
// The prefix's row references are exactly the evaluator's row context.
type genericPred struct{ expr *term.Term }

func (p *genericPred) eval(w *DB, prefix [][]value.Value) (bool, error) {
	return w.evalBool(p.expr, prefix)
}

// operand kinds of a compiled comparison.
const (
	opAttr  = iota // in-range ATTR
	opConst        // constant
	opField        // single-attribute function call CALL(name, ATTR)
)

type operand struct {
	kind  int
	ref   colRef
	cval  value.Value
	field string
}

func (o *operand) fetch(w *DB, prefix [][]value.Value) (value.Value, error) {
	switch o.kind {
	case opAttr:
		return prefix[o.ref.rel][o.ref.col], nil
	case opConst:
		return o.cval, nil
	}
	return w.callField(o.field, prefix[o.ref.rel][o.ref.col])
}

// cmpPred is a compiled built-in comparison. It reproduces the oracle
// path — PredEvals accounting, operand evaluation order, the Figure 4
// broadcast error for a collection-vs-scalar comparison, and the
// value.Compare semantics of the built-in comparison ADTs — without the
// expression-tree walk or the per-row ADT dispatch.
type cmpPred struct {
	expr *term.Term
	op   string
	a, b operand
}

func (p *cmpPred) eval(w *DB, prefix [][]value.Value) (bool, error) {
	w.Count.PredEvals++
	av, err := p.a.fetch(w, prefix)
	if err != nil {
		return false, err
	}
	bv, err := p.b.fetch(w, prefix)
	if err != nil {
		return false, err
	}
	if av.K.IsCollection() != bv.K.IsCollection() {
		// The oracle broadcasts the comparison over the collection and
		// then fails to coerce the resulting collection to a boolean.
		k := av.K
		if !k.IsCollection() {
			k = bv.K
		}
		return false, fmt.Errorf("engine: qualification %s evaluated to %s, not boolean", lera.Format(p.expr), k)
	}
	return cmpHolds(p.op, value.Compare(av, bv)), nil
}

// cmpHolds mirrors the built-in comparison registrations (internal/adt):
// each holds exactly when the value.Compare result satisfies the operator.
func cmpHolds(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case ">":
		return c > 0
	case "<=":
		return c <= 0
	}
	return c >= 0
}

// compilePreds compiles conjuncts against the prefix layout described
// by widths. A conjunct compiles to a cmpPred only when it is a built-in
// (never overridden) comparison with both operands compilable and no
// fault injector armed; everything else falls back to the generic
// evaluator.
func (db *DB) compilePreds(conjs []*conjunct, widths []int) []searchPred {
	preds := make([]searchPred, len(conjs))
	for i, c := range conjs {
		preds[i] = db.compilePred(c.expr, widths)
	}
	return preds
}

func (db *DB) compilePred(e *term.Term, widths []int) searchPred {
	if db.Injector == nil && e.Kind == term.Fun && len(e.Args) == 2 && db.Cat.ADTs.IsBuiltinComparison(e.Functor) {
		if a, ok := compileOperand(e.Args[0], widths); ok {
			if b, ok2 := compileOperand(e.Args[1], widths); ok2 {
				return &cmpPred{expr: e, op: e.Functor, a: a, b: b}
			}
		}
	}
	return &genericPred{expr: e}
}

// compileOperand compiles a comparison operand: a constant, an in-range
// attribute reference, or a function call over one in-range attribute.
// Out-of-range attributes are left to the generic evaluator so its exact
// bounds errors are preserved.
func compileOperand(e *term.Term, widths []int) (operand, bool) {
	if e.Kind == term.Const {
		return operand{kind: opConst, cval: e.Val}, true
	}
	if i, j, ok := lera.AttrIdx(e); ok {
		if ref, inRange := attrRef(i, j, widths); inRange {
			return operand{kind: opAttr, ref: ref}, true
		}
		return operand{}, false
	}
	if e.Kind == term.Fun && e.Functor == lera.ECall && len(e.Args) == 2 {
		if name, ok := lera.CallName(e); ok {
			if i, j, ok2 := lera.AttrIdx(e.Args[1]); ok2 {
				if ref, inRange := attrRef(i, j, widths); inRange {
					return operand{kind: opField, field: name, ref: ref}, true
				}
			}
		}
	}
	return operand{}, false
}

// projOp is one compiled projection: a copy of the referenced value for
// a pure in-range attribute reference, the generic evaluator otherwise.
// The attribute path is safe under fault injection — attribute access
// never calls an ADT.
type projOp struct {
	attr bool
	ref  colRef
	expr *term.Term
}

func (p *projOp) eval(w *DB, prefix [][]value.Value) (value.Value, error) {
	if p.attr {
		return prefix[p.ref.rel][p.ref.col], nil
	}
	return w.evalExpr(p.expr, prefix)
}

func compileProjs(projs []*term.Term, widths []int) []projOp {
	out := make([]projOp, len(projs))
	for i, p := range projs {
		out[i] = projOp{expr: p}
		if pi, pj, ok := lera.AttrIdx(p); ok {
			out[i].ref, out[i].attr = attrRef(pi, pj, widths)
		}
	}
	return out
}
