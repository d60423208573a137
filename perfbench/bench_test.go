package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"lera/internal/testdb"
)

// texts draws n queries from a stream and returns their texts and the
// count of each family.
func texts(s *stream, n int) ([]string, map[string]int) {
	var out []string
	mix := map[string]int{}
	for i := 0; i < n; i++ {
		q := s.next()
		out = append(out, q.text)
		mix[q.family]++
	}
	return out, mix
}

// familiesOf sets w up for seed without warm-up and returns its query
// families.
func familiesOf(t *testing.T, w spec, seed int64) []family {
	t.Helper()
	inst, err := w.setup(seed, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	return inst.clients[0].s.fams
}

func TestStreamsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			fams1, fams1b, fams2 := familiesOf(t, w, 1), familiesOf(t, w, 1), familiesOf(t, w, 2)
			n := 5 * newStream(0, fams1).blockLen()
			a, mixA := texts(newStream(clientSeed(1, 0, false), fams1), n)
			b, mixB := texts(newStream(clientSeed(1, 0, false), fams1b), n)
			c, mixC := texts(newStream(clientSeed(2, 0, false), fams2), n)
			if !reflect.DeepEqual(a, b) {
				t.Error("the same seed gave different query streams")
			}
			if reflect.DeepEqual(a, c) {
				t.Error("different seeds gave the same query stream")
			}
			if !reflect.DeepEqual(mixA, mixB) || !reflect.DeepEqual(mixA, mixC) {
				t.Errorf("family mix depends on the seed: %v vs %v", mixA, mixC)
			}
		})
	}
}

func TestGraphsAreSeeded(t *testing.T) {
	a, b, c := newGraphSet(7, closureSizes), newGraphSet(7, closureSizes), newGraphSet(8, closureSizes)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different graphs")
	}
	if reflect.DeepEqual(a.tcs[1].edges, c.tcs[1].edges) {
		t.Error("different seeds gave the same DAG")
	}
	for i := range a.tcs {
		if len(a.tcs[i].nodes) != len(c.tcs[i].nodes) {
			t.Errorf("graph %d: node count depends on the seed", i)
		}
	}
}

func TestDominatorsOfQuinn(t *testing.T) {
	d, err := loadFilmsData()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string(nil), testdb.DominatorsOfQuinn()...)
	sort.Strings(want)
	if got := d.dominators("Quinn", true); !reflect.DeepEqual(got, want) {
		t.Errorf("dominators of Quinn = %v, want %v", got, want)
	}
}

// TestReferencesAgreeWithProgram runs generated queries of every
// workload through the program and compares each answer with its
// reference. Set-up without warm-up leaves the first queries cold.
func TestReferencesAgreeWithProgram(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst, err := w.setup(3, t.TempDir(), false)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			c := inst.clients[0]
			mix := map[string]int{}
			for i := 0; i < 2*c.s.blockLen(); i++ {
				q := c.s.next()
				o := c.exec(context.Background(), q)
				switch {
				case o.err != nil:
					t.Fatalf("%s: %v", q.text, o.err)
				case o.bad != "":
					t.Fatalf("guard: %s", o.bad)
				case o.got != q.want:
					t.Errorf("%s: program returned %d rows, reference %d (or different rows)", q.text, o.got.Rows, q.want.Rows)
				}
				mix[q.family]++
			}
			if len(mix) != len(c.s.fams) {
				t.Errorf("two blocks covered %d of %d families", len(mix), len(c.s.fams))
			}
		})
	}
}

func TestTracedDriverAgrees(t *testing.T) {
	for _, name := range []string{"rewrite_adhoc", "served_repeat"} {
		t.Run(name, func(t *testing.T) {
			w, _ := lookupWorkload(name)
			inst, err := w.setup(4, "", false)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			d, err := inst.driver()
			if err != nil {
				t.Fatal(err)
			}
			s := newStream(5, inst.clients[0].s.fams)
			if err := d.warm(context.Background(), s, s.blockLen()); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < s.blockLen(); i++ {
				if _, _, err := d.query(context.Background(), i, s.next()); err != nil {
					t.Fatal(err)
				}
			}
			m := d.layerMetrics(readGC(), readGC())
			sum := m["trace.unattributed_share"]
			for _, l := range layers {
				if l.share != "" {
					sum += m[l.share]
				}
			}
			sum += m["plancache.share"]
			if name == "served_repeat" && m["rewrite.match_attempts"] != 0 {
				t.Errorf("cache hits made %v match attempts per query", m["rewrite.match_attempts"])
			}
			if name == "rewrite_adhoc" && m["rewrite.match_attempts"] == 0 {
				t.Error("rewrite_adhoc made no match attempts")
			}
			if sum > 1.0001 {
				t.Errorf("layer shares sum to %v, more than the query", sum)
			}
		})
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		p, v   float64
		wantOK bool
	}{
		{20000, 99.9, 19980, true},
		{1000, 99, 990, true},
		{999, 98, 980, true},
		{25, 50, 13, true},
		{15, 0, 0, false},
	} {
		p, v, n, ok := tail(sorted(seq(c.n)))
		if ok != c.wantOK || n != c.n || (ok && (p != c.p || v != c.v)) {
			t.Errorf("tail of %d samples = p%v %v (n %d, ok %v), want p%v %v", c.n, p, v, n, ok, c.p, c.v)
		}
		if ok {
			if beyond := c.n - int(v); beyond < minBeyond {
				t.Errorf("tail of %d samples leaves %d beyond it", c.n, beyond)
			}
		}
	}
}

// TestHistMatchesExact checks that percentiles read from a histogram are
// within its 0.1% resolution of the exact ones.
func TestHistMatchesExact(t *testing.T) {
	var xs []float64
	h := newHist()
	for i := 0; i < 5000; i++ {
		x := 0.05 * math.Exp(float64(i%977)/97) // 0.05 ms .. about 1 s
		xs = append(xs, x)
		h.add(x)
	}
	sort.Float64s(xs)
	for _, p := range []float64{50, 99, 99.9} {
		want, got := percentile(sorted(xs), p), percentile(h, p)
		if math.Abs(got-want)/want > 0.001 {
			t.Errorf("p%v: histogram %v, exact %v", p, got, want)
		}
	}
	if hp, _, hn, _ := tail(h); hp != 99.5 || hn != 5000 {
		t.Errorf("tail of the histogram = p%v n %d, want p99.5 n 5000", hp, hn)
	}
}

// TestSummarizeDropsStolenSlices checks that slices slowed by CPU steal
// do not reach qps, p50 or p99, while a slow slice without steal does.
func TestSummarizeDropsStolenSlices(t *testing.T) {
	length := 25 * time.Second
	n := sliceCount(length)
	w := &window{clientTally: newTally(n, 1), fams: []family{{name: "f"}}, length: length, elapsed: length,
		host: hostSamples{rssPeak: make([]float64, n), steal: make([]float64, n)}}
	for k := range w.slice {
		n, lat := 2000, 1.0
		if k >= 10 { // the last three slices: the host stole half the CPU
			n, lat = 500, 10
			w.host.steal[k] = 0.5
		}
		for i := 0; i < n; i++ {
			w.slice[k].add(lat)
			w.fam[0].add(lat)
		}
		w.attempted += n
	}
	sum, err := w.summarize()
	if err != nil {
		t.Fatal(err)
	}
	v := sum.values
	if math.Abs(v["qps"]-1000) > 1e-9 || math.Abs(v["p50_ms"]-1) > 0.002 || math.Abs(v["p99_ms"]-1) > 0.002 {
		t.Errorf("qps %v p50 %v p99 %v, want 1000, 1 and 1 from the ten fast slices", v["qps"], v["p50_ms"], v["p99_ms"])
	}
}

func TestSelfTimes(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{Name: "query", Parent: -1, Start: 0, End: 100 * us},
		{Name: "a", Parent: 0, Start: 10 * us, End: 40 * us},
		{Name: "b", Parent: 0, Start: 30 * us, End: 60 * us},  // overlaps a
		{Name: "c", Parent: 0, Start: 90 * us, End: 120 * us}, // runs past its parent
		{Name: "a1", Parent: 1, Start: 15 * us, End: 20 * us}, // child of a
		{Name: "other", Parent: -1, Start: 0, End: 7 * us},    // another root
	}
	want := []time.Duration{40 * us, 25 * us, 30 * us, 30 * us, 5 * us, 7 * us}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names workloads the
// program runs and exactly the metrics it reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the program does not run", w.Name)
		}
	}
	check := func(kind string, got []named, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
