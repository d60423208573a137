package engine

// Evaluation of the compound SEARCH operator (§3.1): the relation list is
// joined left-to-right, using a hash join whenever the qualification
// supplies an equi-join conjunct connecting the accumulated prefix to the
// next relation, and a nested-loop (cartesian) step otherwise. Conjuncts
// are applied as early as their attribute references allow; the projection
// is computed last.

import (
	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/value"
)

type searchPlan struct {
	rels  []*Relation
	conjs []conjunct
	projs []*term.Term
}

type conjunct struct {
	expr   *term.Term
	maxRel int // highest relation index referenced (0 = none)
	used   bool
}

func maxRelIndex(e *term.Term) int {
	max := 0
	term.Walk(e, func(s *term.Term, _ term.Path) bool {
		if i, _, ok := lera.AttrIdx(s); ok && i > max {
			max = i
		}
		return true
	})
	return max
}

func (db *DB) evalSearch(t *term.Term, e env) (*Relation, error) {
	// Planning — short-circuits, relation evaluation, conjunct
	// classification, widths — is shared with the batched engine
	// (batchsearch.go) so both make identical decisions.
	prep, short, err := db.prepareSearch(t, e)
	if err != nil {
		return nil, err
	}
	if short != nil {
		return short, nil
	}
	plan, widths := prep.plan, prep.widths

	current, err := db.filterRows(plan.rels[0].Rows, plan, 1, widths[:1])
	if err != nil {
		return nil, err
	}
	// offset[i] is where relation i's columns start in a flat prefix row.
	offset := make([]int, len(widths))
	for i := 1; i < len(widths); i++ {
		offset[i] = offset[i-1] + widths[i-1]
	}

	// Join left to right; rows holds flattened prefixes.
	for ri := 2; ri <= len(plan.rels); ri++ {
		next := plan.rels[ri-1].Rows
		// Equi-join conjuncts ATTR(a,x) = ATTR(b,y) with one side in the
		// prefix (< ri) and the other in relation ri select a hash join.
		leftKeys, rightKeys := equiJoinKeys(plan, ri)
		var joined [][]value.Value
		if len(leftKeys) > 0 {
			// Hash join: build on the new relation (partitioned by key
			// hash when the pool is on), probe with the prefix in row
			// chunks. Both paths emit matches in (probe row, build
			// insertion) order, so the output is identical.
			build, berr := db.buildHashTable(next, rightKeys)
			if berr != nil {
				return nil, berr
			}
			joined, err = db.mapRowChunks(current, 1, func(w *DB, chunk [][]value.Value) ([][]value.Value, error) {
				var out [][]value.Value
				for _, prow := range chunk {
					var kb []value.Value
					for _, k := range leftKeys {
						kb = append(kb, prow[offset[k.rel]+k.col])
					}
					for _, rrow := range build.lookup(rowKey(kb)) {
						if err := w.tickRow(); err != nil {
							return nil, err
						}
						w.Count.JoinPairs++
						out = append(out, append(append([]value.Value(nil), prow...), rrow...))
					}
				}
				return out, nil
			})
		} else {
			joined, err = db.mapRowChunks(current, 1, func(w *DB, chunk [][]value.Value) ([][]value.Value, error) {
				var out [][]value.Value
				for _, prow := range chunk {
					for _, rrow := range next {
						if err := w.tickRow(); err != nil {
							return nil, err
						}
						w.Count.JoinPairs++
						out = append(out, append(append([]value.Value(nil), prow...), rrow...))
					}
				}
				return out, nil
			})
		}
		if err != nil {
			return nil, err
		}
		current, err = db.filterRows(joined, plan, ri, widths[:ri])
		if err != nil {
			return nil, err
		}
	}

	// Any conjuncts not yet applied (e.g. referencing no attributes).
	out := &Relation{Width: len(plan.projs)}
	projected, err := db.mapRowChunks(current, 1, func(w *DB, chunk [][]value.Value) ([][]value.Value, error) {
		var kept [][]value.Value
		for _, row := range chunk {
			if err := w.tickRow(); err != nil {
				return nil, err
			}
			ok := true
			for ci := range plan.conjs {
				c := &plan.conjs[ci]
				if c.used {
					continue
				}
				rows := splitRow(row, widths)
				b, err := w.evalBool(c.expr, rows)
				if err != nil {
					return nil, err
				}
				if !b {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			rows := splitRow(row, widths)
			var prow []value.Value
			for _, p := range plan.projs {
				v, err := w.evalExpr(p, rows)
				if err != nil {
					return nil, err
				}
				prow = append(prow, v)
			}
			kept = append(kept, prow)
		}
		return kept, nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows = projected
	// LERA is an extension of Codd's algebra: relations are sets, so the
	// projection output deduplicates. This is what makes pushing a
	// search through a set union sound for non-injective projections.
	out = out.Dedup()
	db.Count.Emitted += len(out.Rows)
	if err := db.chargeRows(len(out.Rows)); err != nil {
		return nil, err
	}
	return out, nil
}

// filterRows applies every unused conjunct whose references are confined
// to the first upto relations.
func (db *DB) filterRows(rows [][]value.Value, plan *searchPlan, upto int, widths []int) ([][]value.Value, error) {
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
	return db.mapRowChunks(rows, 1, func(w *DB, chunk [][]value.Value) ([][]value.Value, error) {
		var out [][]value.Value
		for _, row := range chunk {
			if err := w.tickRow(); err != nil {
				return nil, err
			}
			split := splitRow(row, widths)
			keep := true
			for _, c := range active {
				b, err := w.evalBool(c.expr, split)
				if err != nil {
					return nil, err
				}
				if !b {
					keep = false
					break
				}
			}
			if keep {
				out = append(out, row)
			}
		}
		return out, nil
	})
}

func splitRow(row []value.Value, widths []int) [][]value.Value {
	out := make([][]value.Value, len(widths))
	pos := 0
	for i, w := range widths {
		out[i] = row[pos : pos+w]
		pos += w
	}
	return out
}
