package main

// Seeded query generators and their reference answers. A generator sees
// only its seed and the generated data; the program under test sees only
// the ESQL text and rows the generators produce. Every reference answer
// is computed here in plain Go over that data (BFS closures, map-based
// joins, filters over the films instance), never by calling the rewriter
// or the engine. ESQL projections have set semantics, so references are
// sets of rows; the program's rows are fingerprinted as a multiset, which
// makes a duplicate row a wrong answer.

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"lera/internal/testdb"
	"lera/internal/value"
)

// query is one generated statement and its reference answer.
type query struct {
	family string
	famIdx int // index of the family in its stream
	text   string
	want   answer
	// governed marks a query whose operator state exceeds spillGrant, so
	// it must spill wherever it runs under the grant.
	governed bool
}

// family is one kind of generated query. gen draws a query's text from r
// and returns a function computing its reference answer, which a stream
// calls only the first time it sees the text.
type family struct {
	name     string
	weight   int // slots per interleaving block
	governed bool
	gen      func(r *rand.Rand) (text string, ref func() answer)
}

// stream is a seeded, endless query stream. Families are interleaved in
// blocks holding exactly weight slots of each family, shuffled per block,
// so every stream has the same family mix and only the order, the
// constants and the structure depend on the seed. Reference answers are
// memoized by text up to memoCap entries, so the memo stops growing (and
// moving the heap) early in a run; later new texts recompute theirs.
type stream struct {
	r     *rand.Rand
	fams  []family
	block []int
	slot  int
	memo  map[string]answer
}

// memoCap bounds a stream's memo of reference answers.
const memoCap = 2048

func newStream(seed int64, fams []family) *stream {
	s := &stream{r: rand.New(rand.NewSource(seed)), fams: fams, memo: map[string]answer{}}
	for i, f := range fams {
		for j := 0; j < f.weight; j++ {
			s.block = append(s.block, i)
		}
	}
	s.slot = len(s.block)
	return s
}

// blockLen is the number of queries in one interleaving block.
func (s *stream) blockLen() int { return len(s.block) }

func (s *stream) next() query {
	if s.slot == len(s.block) {
		s.r.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
		s.slot = 0
	}
	fi := s.block[s.slot]
	f := s.fams[fi]
	s.slot++
	text, ref := f.gen(s.r)
	want, ok := s.memo[text]
	if !ok {
		want = ref()
		if len(s.memo) < memoCap {
			s.memo[text] = want
		}
	}
	return query{family: f.name, famIdx: fi, text: text, want: want, governed: f.governed}
}

// rowSet accumulates a reference answer with set semantics.
type rowSet map[string]bool

func (s rowSet) add(cells ...string) { s[strings.Join(cells, "\x1f")] = true }

func (s rowSet) answer() answer {
	var a answer
	for r := range s {
		a.add(r)
	}
	return a
}

// Cell renderings, in the format of value.Value.String.
func str(s string) string { return value.String(s).String() }
func num(i int64) string  { return strconv.FormatInt(i, 10) }

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

// ---- The films instance (rewrite_adhoc, served_repeat) ----

// categories is the Category enumeration of the Figure 2 schema.
var categories = []string{"Comedy", "Adventure", "Science Fiction", "Western"}

// badCategories are not in the enumeration: the §6 integrity constraint
// proves MEMBER(c, Categories) false for them before execution.
var badCategories = []string{"Cartoon", "Drama", "Horror", "Musical", "Noir", "Documentary"}

// icCategory is the §6 domain constraint of examples/semantic, declared in
// the rule language (Figure 10).
const icCategory = `
rule ic_category: F(x) / ISA(x, SetCategory)
  --> F(x) AND INCLUDE(x, SET('Comedy', 'Adventure', 'Science Fiction', 'Western')) / ;
`

type film struct {
	numf  int64
	title string
	cats  []string
}

type actor struct {
	name   string
	salary int64
}

// filmsData is testdb.Data() in plain Go form.
type filmsData struct {
	films    []film
	actors   map[int64]actor
	appears  [][2]int64 // (Numf, actor OID)
	dominate [][2]int64 // (Refactor1, Refactor2): Refactor1 dominates Refactor2
}

func loadFilmsData() (*filmsData, error) {
	inst, err := testdb.Data()
	if err != nil {
		return nil, err
	}
	d := &filmsData{actors: map[int64]actor{}}
	for oid, o := range inst.Objects {
		var a actor
		for i, n := range o.Names {
			switch n {
			case "Name":
				a.name = o.Elems[i].S
			case "Salary":
				a.salary = o.Elems[i].I
			}
		}
		d.actors[oid] = a
	}
	for _, row := range inst.Rows["FILM"] {
		f := film{numf: row[0].I, title: row[1].S}
		for _, c := range row[2].Elems {
			f.cats = append(f.cats, c.S)
		}
		d.films = append(d.films, f)
	}
	for _, row := range inst.Rows["APPEARS_IN"] {
		d.appears = append(d.appears, [2]int64{row[0].I, row[1].OID})
	}
	for _, row := range inst.Rows["DOMINATE"] {
		d.dominate = append(d.dominate, [2]int64{row[1].OID, row[2].OID})
	}
	return d, nil
}

func (f film) has(cat string) bool {
	for _, c := range f.cats {
		if c == cat {
			return true
		}
	}
	return false
}

// catsCell renders a film's category set.
func (f film) catsCell() string {
	vs := make([]value.Value, len(f.cats))
	for i, c := range f.cats {
		vs[i] = value.String(c)
	}
	return value.NewSet(vs...).String()
}

func (d *filmsData) film(numf int64) (film, bool) {
	for _, f := range d.films {
		if f.numf == numf {
			return f, true
		}
	}
	return film{}, false
}

// dominators returns the actors that transitively dominate name (up) or
// that name transitively dominates (!up), by breadth-first search over
// DOMINATE.
func (d *filmsData) dominators(name string, up bool) []string {
	from, to := 1, 0 // up: follow (r1, r2) edges from r2 back to r1
	if !up {
		from, to = 0, 1
	}
	var frontier []int64
	for oid, a := range d.actors {
		if a.name == name {
			frontier = append(frontier, oid)
		}
	}
	seen := map[int64]bool{}
	for len(frontier) > 0 {
		var next []int64
		for _, x := range frontier {
			for _, e := range d.dominate {
				if e[from] == x && !seen[e[to]] {
					seen[e[to]] = true
					next = append(next, e[to])
				}
			}
		}
		frontier = next
	}
	var out []string
	for oid := range seen {
		out = append(out, d.actors[oid].name)
	}
	sort.Strings(out)
	return out
}

// filmActors is the Figure 4 FilmActors view: each film with the set of
// actors appearing in it (films without actors drop out of the join).
func (d *filmsData) filmActors() map[int64][]actor {
	out := map[int64][]actor{}
	for _, a := range d.appears {
		out[a[0]] = append(out[a[0]], d.actors[a[1]])
	}
	return out
}

// cmp is one generated comparison on Numf.
type cmp struct {
	op string
	c  int64
}

func (p cmp) String() string { return fmt.Sprintf("Numf %s %d", p.op, p.c) }

func (p cmp) holds(x int64) bool {
	switch p.op {
	case "=":
		return x == p.c
	case "<":
		return x < p.c
	case "<=":
		return x <= p.c
	case ">":
		return x > p.c
	case ">=":
		return x >= p.c
	}
	panic("perfbench: unknown comparison " + p.op)
}

func randCmp(r *rand.Rand) cmp {
	return cmp{op: pick(r, []string{"=", "<", "<=", ">", ">="}), c: int64(r.Intn(6))}
}

// adhoc is the rewrite_adhoc schema: the films instance plus a seeded
// stack of twelve views and two UNION views.
type adhoc struct {
	*filmsData
	deep   []cmp     // deep[k] is the predicate DEEP(k+1) adds
	either [2]string // ADVOR's two categories
}

const viewDepth = 12

func newAdhoc(d *filmsData, seed int64) *adhoc {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	a := &adhoc{filmsData: d}
	for k := 0; k < viewDepth; k++ {
		// Mostly loose bounds, so deep views keep rows; a few cut film 1
		// or film 4.
		if r.Intn(2) == 0 {
			a.deep = append(a.deep, cmp{op: ">", c: int64(r.Intn(3) - 1)})
		} else {
			a.deep = append(a.deep, cmp{op: "<", c: int64(4 + r.Intn(8))})
		}
	}
	a.either = [2]string{categories[r.Intn(4)], categories[r.Intn(4)]}
	return a
}

// ddl returns the views the rewrite_adhoc families query, on top of the
// Figure 2 schema and the Figure 4/5 views.
func (a *adhoc) ddl() string {
	var sb strings.Builder
	sb.WriteString("CREATE VIEW EITHERF (Numf) AS SELECT Numf FROM FILM UNION SELECT Numf FROM APPEARS_IN;\n")
	fmt.Fprintf(&sb, "CREATE VIEW ADVOR (Numf, Title) AS SELECT Numf, Title FROM FILM WHERE MEMBER('%s', Categories) UNION SELECT Numf, Title FROM FILM WHERE MEMBER('%s', Categories);\n", a.either[0], a.either[1])
	for k, p := range a.deep {
		from := "FILM"
		if k > 0 {
			from = fmt.Sprintf("DEEP%d", k)
		}
		fmt.Fprintf(&sb, "CREATE VIEW DEEP%d (Numf, Title) AS SELECT Numf, Title FROM %s WHERE %s;\n", k+1, from, p)
	}
	return sb.String()
}

// families returns the rewrite_adhoc query families: the query kinds of
// testdata/parallel_corpus.esql with seeded constants and structure.
func (a *adhoc) families() []family {
	return []family{
		{name: "fig3_join", weight: 3, gen: a.genFig3},
		{name: "fig5_recursive", weight: 3, gen: a.genFig5},
		{name: "view_stack", weight: 3, gen: a.genDeep},
		{name: "union_view", weight: 2, gen: a.genUnion},
		{name: "adt_member_all", weight: 2, gen: a.genADT},
		{name: "inconsistent", weight: 2, gen: a.genInconsistent},
		{name: "fig12_fold", weight: 2, gen: a.genFold},
	}
}

// genFig3 is the Figure 3 join with a seeded actor and category, FROM
// order, conjunct order and equality direction.
func (d *filmsData) genFig3(r *rand.Rand) (string, func() answer) {
	name := pick(r, testdb.ActorNames)
	cat := pick(r, categories)
	from := pick(r, []string{"APPEARS_IN, FILM", "FILM, APPEARS_IN"})
	conj := []string{
		pick(r, []string{"FILM.Numf = APPEARS_IN.Numf", "APPEARS_IN.Numf = FILM.Numf"}),
		fmt.Sprintf("Name(Refactor) = '%s'", name),
		fmt.Sprintf("MEMBER('%s', Categories)", cat),
	}
	r.Shuffle(len(conj), func(i, j int) { conj[i], conj[j] = conj[j], conj[i] })
	text := fmt.Sprintf("SELECT Title, Categories, Salary(Refactor) FROM %s WHERE %s", from, strings.Join(conj, " AND "))
	return text, d.fig3Ref(name, cat)
}

// fig3Ref answers the Figure 3 join for an actor and a category.
func (d *filmsData) fig3Ref(name, cat string) func() answer {
	return func() answer {
		s := rowSet{}
		for _, ap := range d.appears {
			a := d.actors[ap[1]]
			if f, ok := d.film(ap[0]); ok && a.name == name && f.has(cat) {
				s.add(str(f.title), f.catsCell(), num(a.salary))
			}
		}
		return s.answer()
	}
}

// genFig5 is the Figure 5 recursive point query, bound on either side.
func (d *filmsData) genFig5(r *rand.Rand) (string, func() answer) {
	name := pick(r, testdb.ActorNames)
	up := r.Intn(2) == 0
	text := fmt.Sprintf("SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = '%s'", name)
	if !up {
		text = fmt.Sprintf("SELECT Name(Refactor2) FROM BETTER_THAN WHERE Name(Refactor1) = '%s'", name)
	}
	return text, d.fig5Ref(name, up)
}

// fig5Ref answers the Figure 5 query: the names that transitively
// dominate name (up) or that name dominates.
func (d *filmsData) fig5Ref(name string, up bool) func() answer {
	return func() answer {
		s := rowSet{}
		for _, n := range d.dominators(name, up) {
			s.add(str(n))
		}
		return s.answer()
	}
}

// genDeep queries the view stack at a seeded depth.
func (a *adhoc) genDeep(r *rand.Rand) (string, func() answer) {
	depth := 1 + r.Intn(viewDepth)
	p := randCmp(r)
	cols := pick(r, []string{"Title", "Numf, Title"})
	text := fmt.Sprintf("SELECT %s FROM DEEP%d WHERE %s", cols, depth, p)
	return text, func() answer {
		s := rowSet{}
	films:
		for _, f := range a.films {
			for _, q := range a.deep[:depth] {
				if !q.holds(f.numf) {
					continue films
				}
			}
			if !p.holds(f.numf) {
				continue
			}
			if cols == "Title" {
				s.add(str(f.title))
			} else {
				s.add(num(f.numf), str(f.title))
			}
		}
		return s.answer()
	}
}

// genUnion queries one of the two UNION views.
func (a *adhoc) genUnion(r *rand.Rand) (string, func() answer) {
	p := randCmp(r)
	if r.Intn(2) == 0 {
		text := fmt.Sprintf("SELECT Numf FROM EITHERF WHERE %s", p)
		return text, func() answer {
			s := rowSet{}
			for _, f := range a.films {
				if p.holds(f.numf) {
					s.add(num(f.numf))
				}
			}
			for _, ap := range a.appears {
				if p.holds(ap[0]) {
					s.add(num(ap[0]))
				}
			}
			return s.answer()
		}
	}
	text := fmt.Sprintf("SELECT Title FROM ADVOR WHERE %s", p)
	return text, func() answer {
		s := rowSet{}
		for _, f := range a.films {
			if (f.has(a.either[0]) || f.has(a.either[1])) && p.holds(f.numf) {
				s.add(str(f.title))
			}
		}
		return s.answer()
	}
}

// salaryBounds straddle the instance's salaries (8000..18000).
var salaryBounds = []int64{5000, 8500, 9500, 10000, 11500, 12500, 15000, 16000, 20000}

// genADT is a MEMBER/ALL predicate over the nested FilmActors view, or a
// plain MEMBER filter over FILM.
func (d *filmsData) genADT(r *rand.Rand) (string, func() answer) {
	cat := pick(r, categories)
	if r.Intn(3) == 0 {
		text := fmt.Sprintf("SELECT Title FROM FILM WHERE MEMBER('%s', Categories)", cat)
		return text, func() answer {
			s := rowSet{}
			for _, f := range d.films {
				if f.has(cat) {
					s.add(str(f.title))
				}
			}
			return s.answer()
		}
	}
	bound := pick(r, salaryBounds)
	return d.filmActorsQuery(cat, bound)
}

// filmActorsQuery is the Figure 4 query with a given category and salary
// bound.
func (d *filmsData) filmActorsQuery(cat string, bound int64) (string, func() answer) {
	text := fmt.Sprintf("SELECT Title FROM FilmActors WHERE MEMBER('%s', Categories) AND ALL(Salary(Actors) > %d)", cat, bound)
	return text, func() answer {
		s := rowSet{}
		cast := d.filmActors()
		for _, f := range d.films {
			actors, ok := cast[f.numf]
			if !ok || !f.has(cat) {
				continue
			}
			all := true
			for _, a := range actors {
				all = all && a.salary > bound
			}
			if all {
				s.add(str(f.title))
			}
		}
		return s.answer()
	}
}

// genInconsistent asks for a category outside the enumeration; the §6
// constraint makes the answer empty before execution.
func (d *filmsData) genInconsistent(r *rand.Rand) (string, func() answer) {
	text := fmt.Sprintf("SELECT Title FROM FILM WHERE MEMBER('%s', Categories)", pick(r, badCategories))
	if r.Intn(2) == 0 {
		text += " AND " + randCmp(r).String()
	}
	return text, func() answer { return answer{} }
}

// genFold is a Figure 12 simplification: a constant (in)equality that
// folds to TRUE or FALSE, or a contradictory or tight range on Numf.
func (d *filmsData) genFold(r *rand.Rand) (string, func() answer) {
	filter := func(pred func(int64) bool) func() answer {
		return func() answer {
			s := rowSet{}
			for _, f := range d.films {
				if pred(f.numf) {
					s.add(str(f.title))
				}
			}
			return s.answer()
		}
	}
	x, y, c := int64(r.Intn(9)), int64(r.Intn(9)), int64(r.Intn(6))
	switch r.Intn(3) {
	case 0:
		sum := x + y + int64(r.Intn(2)) // equal to x + y half the time
		text := fmt.Sprintf("SELECT Title FROM FILM WHERE %d + %d = %d AND Numf = %d", x, y, sum, c)
		return text, filter(func(n int64) bool { return x+y == sum && n == c })
	case 1:
		text := fmt.Sprintf("SELECT Title FROM FILM WHERE Numf > %d AND Numf <= %d", c, c)
		return text, filter(func(int64) bool { return false })
	default:
		hi := c + int64(r.Intn(2))
		text := fmt.Sprintf("SELECT Title FROM FILM WHERE Numf >= %d AND Numf <= %d", c, hi)
		return text, filter(func(n int64) bool { return n >= c && n <= hi })
	}
}

// ---- Graphs (closure_exec, closure_spill) ----

// graph is one stored edge relation. view names its recursive closure
// view; join tables have none.
type graph struct {
	name  string
	view  string
	nodes []int64
	edges [][2]int64
}

// chainGraph is a path through n nodes with seeded labels.
func chainGraph(r *rand.Rand, n int) [][2]int64 {
	lab := labels(r, n)
	var es [][2]int64
	for i := 0; i+1 < n; i++ {
		es = append(es, [2]int64{lab[i], lab[i+1]})
	}
	return es
}

// dagGraph is a random DAG on n nodes in a seeded topological order: a
// path through all of them plus one random forward edge per node that
// skips one to three nodes. The path fixes the closure's size, so only
// the closure's derivations, not its answer size, depend on the seed.
func dagGraph(r *rand.Rand, n int) [][2]int64 {
	lab := labels(r, n)
	var es [][2]int64
	for i := 0; i+1 < n; i++ {
		es = append(es, [2]int64{lab[i], lab[i+1]})
		if j := i + 2 + r.Intn(3); j < n {
			es = append(es, [2]int64{lab[i], lab[j]})
		}
	}
	return es
}

// randomEdges is m distinct random edges over m/2 nodes.
func randomEdges(r *rand.Rand, m int) [][2]int64 {
	n := int64(m / 2)
	seen := map[[2]int64]bool{}
	var es [][2]int64
	for len(es) < m {
		e := [2]int64{r.Int63n(n), r.Int63n(n)}
		if !seen[e] {
			seen[e] = true
			es = append(es, e)
		}
	}
	return es
}

// labels is a seeded permutation of n node labels.
func labels(r *rand.Rand, n int) []int64 {
	lab := make([]int64, n)
	for i, p := range r.Perm(n) {
		lab[i] = int64(p + 1)
	}
	return lab
}

// graphSizes fixes the closure workloads' data sizes. Sizes are spread
// evenly over each range, so the size mix, and with it the latency
// distribution, is the same for every seed.
type graphSizes struct {
	closures      int // closure graphs: half chains, half DAGs
	minNodes      int
	maxNodes      int
	joins         int // self-join tables
	minEdges      int
	maxEdges      int
	closureWeight int // family weights per interleaving block
	pointWeight   int
	joinWeight    int
}

var closureSizes = graphSizes{
	closures: 8, minNodes: 34, maxNodes: 40,
	joins: 4, minEdges: 1000, maxEdges: 2500,
	closureWeight: 1, pointWeight: 5, joinWeight: 6,
}

// graphSet is the closure workloads' data.
type graphSet struct {
	tcs   []*graph
	joins []*graph
	sizes graphSizes
}

func spread(lo, hi, i, n int) int {
	if n == 1 {
		return lo
	}
	return lo + (hi-lo)*i/(n-1)
}

func newGraphSet(seed int64, sz graphSizes) *graphSet {
	r := rand.New(rand.NewSource(seed ^ 0x9a4b))
	g := &graphSet{sizes: sz}
	for i := 0; i < sz.closures; i++ {
		n := spread(sz.minNodes, sz.maxNodes, i/2, (sz.closures+1)/2)
		es := chainGraph(r, n)
		if i%2 == 1 {
			es = dagGraph(r, n)
		}
		g.tcs = append(g.tcs, &graph{name: fmt.Sprintf("G%d", i), view: fmt.Sprintf("TC%d", i), nodes: nodesOf(es), edges: es})
	}
	for i := 0; i < sz.joins; i++ {
		m := spread(sz.minEdges, sz.maxEdges, i, sz.joins)
		g.joins = append(g.joins, &graph{name: fmt.Sprintf("J%d", i), edges: randomEdges(r, m)})
	}
	return g
}

func nodesOf(es [][2]int64) []int64 {
	seen := map[int64]bool{}
	var ns []int64
	for _, e := range es {
		for _, x := range e {
			if !seen[x] {
				seen[x] = true
				ns = append(ns, x)
			}
		}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return ns
}

// ddl declares every edge relation and one recursive closure view per
// closure graph, in the form of examples/tc.esql.
func (g *graphSet) ddl() string {
	var sb strings.Builder
	for _, t := range g.tcs {
		fmt.Fprintf(&sb, "TABLE %s (Src : INT, Dst : INT);\n", t.name)
		fmt.Fprintf(&sb, "CREATE VIEW %s (Src, Dst) AS ( SELECT Src, Dst FROM %s UNION SELECT T1.Src, T2.Dst FROM %s T1, %s T2 WHERE T1.Dst = T2.Src );\n",
			t.view, t.name, t.view, t.view)
	}
	for _, j := range g.joins {
		fmt.Fprintf(&sb, "TABLE %s (Src : INT, Dst : INT);\n", j.name)
	}
	return sb.String()
}

// rows converts edges to engine rows.
func (gr *graph) rows() [][]value.Value {
	out := make([][]value.Value, len(gr.edges))
	for i, e := range gr.edges {
		out[i] = []value.Value{value.Int(e[0]), value.Int(e[1])}
	}
	return out
}

// reach returns the nodes reachable from x in one or more steps,
// following edges forward (fwd) or backward.
func (gr *graph) reach(x int64, fwd bool) []int64 {
	adj := map[int64][]int64{}
	for _, e := range gr.edges {
		if fwd {
			adj[e[0]] = append(adj[e[0]], e[1])
		} else {
			adj[e[1]] = append(adj[e[1]], e[0])
		}
	}
	seen := map[int64]bool{}
	frontier := []int64{x}
	var out []int64
	for len(frontier) > 0 {
		var next []int64
		for _, y := range frontier {
			for _, z := range adj[y] {
				if !seen[z] {
					seen[z] = true
					out = append(out, z)
					next = append(next, z)
				}
			}
		}
		frontier = next
	}
	return out
}

// families returns the closure query families: full closures, Alexander
// focused point queries and self-joins. Full closures and self-joins are
// governed; point queries stay within the grant.
func (g *graphSet) families() []family {
	return []family{
		{name: "full_closure", weight: g.sizes.closureWeight, governed: true, gen: g.genClosure},
		{name: "point_closure", weight: g.sizes.pointWeight, gen: g.genPoint},
		{name: "self_join", weight: g.sizes.joinWeight, governed: true, gen: g.genJoin},
	}
}

func (g *graphSet) genClosure(r *rand.Rand) (string, func() answer) {
	t := pick(r, g.tcs)
	return fmt.Sprintf("SELECT Src, Dst FROM %s", t.view), func() answer {
		s := rowSet{}
		for _, x := range t.nodes {
			for _, y := range t.reach(x, true) {
				s.add(num(x), num(y))
			}
		}
		return s.answer()
	}
}

func (g *graphSet) genPoint(r *rand.Rand) (string, func() answer) {
	t := pick(r, g.tcs)
	x := pick(r, t.nodes)
	fwd := r.Intn(2) == 0
	text := fmt.Sprintf("SELECT Src FROM %s WHERE Dst = %d", t.view, x)
	if fwd {
		text = fmt.Sprintf("SELECT Dst FROM %s WHERE Src = %d", t.view, x)
	}
	return text, func() answer {
		s := rowSet{}
		for _, y := range t.reach(x, fwd) {
			s.add(num(y))
		}
		return s.answer()
	}
}

func (g *graphSet) genJoin(r *rand.Rand) (string, func() answer) {
	j := pick(r, g.joins)
	text := fmt.Sprintf("SELECT E1.Src, E2.Dst FROM %s E1, %s E2 WHERE E1.Dst = E2.Src", j.name, j.name)
	return text, func() answer {
		out := map[int64][]int64{}
		for _, e := range j.edges {
			out[e[0]] = append(out[e[0]], e[1])
		}
		s := rowSet{}
		for _, e := range j.edges {
			for _, d := range out[e[1]] {
				s.add(num(e[0]), num(d))
			}
		}
		return s.answer()
	}
}

// ---- served_repeat ----

// servedFamilies are repeated templated shapes over the films database,
// in the manner of testdata/plancache_workload.sql: each family is one
// plan-cache template whose constants vary.
func servedFamilies(d *filmsData) []family {
	return []family{
		{name: "film_by_numf", weight: 3, gen: func(r *rand.Rand) (string, func() answer) {
			c := int64(1 + r.Intn(6))
			return fmt.Sprintf("SELECT Title FROM FILM WHERE Numf = %d", c), func() answer {
				s := rowSet{}
				if f, ok := d.film(c); ok {
					s.add(str(f.title))
				}
				return s.answer()
			}
		}},
		{name: "numf_or", weight: 2, gen: func(r *rand.Rand) (string, func() answer) {
			// Distinct constants: Numf = a OR Numf = a translates to another
			// template, which would miss after warm-up.
			a := int64(1 + r.Intn(5))
			b := 1 + (a+int64(r.Intn(4)))%5
			return fmt.Sprintf("SELECT Numf FROM FILM WHERE Numf = %d OR Numf = %d", a, b), func() answer {
				s := rowSet{}
				for _, f := range d.films {
					if f.numf == a || f.numf == b {
						s.add(num(f.numf))
					}
				}
				return s.answer()
			}
		}},
		{name: "film_actors_all", weight: 2, gen: func(r *rand.Rand) (string, func() answer) {
			return d.filmActorsQuery(pick(r, categories), pick(r, salaryBounds))
		}},
		{name: "cast_of_film", weight: 2, gen: func(r *rand.Rand) (string, func() answer) {
			c := int64(1 + r.Intn(5))
			return fmt.Sprintf("SELECT Name(Refactor) FROM APPEARS_IN WHERE Numf = %d", c), func() answer {
				s := rowSet{}
				for _, ap := range d.appears {
					if ap[0] == c {
						s.add(str(d.actors[ap[1]].name))
					}
				}
				return s.answer()
			}
		}},
		{name: "fig3_join", weight: 1, gen: func(r *rand.Rand) (string, func() answer) {
			name, cat := pick(r, testdb.ActorNames), pick(r, categories)
			text := fmt.Sprintf("SELECT Title, Categories, Salary(Refactor) FROM APPEARS_IN, FILM WHERE FILM.Numf = APPEARS_IN.Numf AND Name(Refactor) = '%s' AND MEMBER('%s', Categories)", name, cat)
			return text, d.fig3Ref(name, cat)
		}},
		{name: "fig5_point", weight: 1, gen: func(r *rand.Rand) (string, func() answer) {
			name := pick(r, testdb.ActorNames)
			return fmt.Sprintf("SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = '%s'", name), d.fig5Ref(name, true)
		}},
	}
}
