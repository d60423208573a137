// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time through the system's public entry points —
// core.Session.QueryCtx for embedded use, server.New + Serve queried with
// HTTP POST /query on loopback for served use — checks every answer
// against a reference computed in plain Go, and prints one JSON result as
// its last line of output:
//
//	go run . --workload closure_exec --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured without
// tracing. With --trace 1 a separate single-client run sends each query
// through the pipeline's public calls one by one, wraps each call in a
// span, and reports per-layer self times, work counters, the unattributed
// remainder and the tracing overhead. README.md describes the workloads,
// the load model and the predictions the metrics are meant to test.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"ok_frac", "frac"},
	{"alloc_mb_per_query", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the traced run's per-layer metrics with their units.
// Time metrics are means per query; counters are means per query except
// rewrite.degraded (a total) and engine.mem_peak_bytes (a maximum).
var perLayer = []struct{ name, unit string }{
	{"server.roundtrip_us", "us"},
	{"server.elapsed_us", "us"},
	{"server.overhead_us", "us"},
	{"server.encode_us", "us"},
	{"server.encode_share", "frac"},
	{"server.response_bytes", "bytes"},
	{"server.shed_frac", "frac"},
	{"core.query_us", "us"},
	{"esql.parse_us", "us"},
	{"esql.parse_share", "frac"},
	{"translate.us", "us"},
	{"translate.share", "frac"},
	{"lera.infer_us", "us"},
	{"lera.infer_share", "frac"},
	{"plancache.templatize_us", "us"},
	{"plancache.lookup_us", "us"},
	{"plancache.substitute_us", "us"},
	{"plancache.share", "frac"},
	{"plancache.hit_ratio", "frac"},
	{"rewrite.us", "us"},
	{"rewrite.share", "frac"},
	{"rewrite.match_attempts", "count"},
	{"rewrite.condition_checks", "count"},
	{"rewrite.applications", "count"},
	{"rewrite.useful_ratio", "frac"},
	{"rewrite.alloc_bytes", "bytes"},
	{"rewrite.degraded", "count"},
	{"rules.build_ms", "ms"},
	{"engine.load_ms", "ms"},
	{"engine.execute_us", "us"},
	{"engine.share", "frac"},
	{"engine.rows_scanned", "count"},
	{"engine.join_pairs", "count"},
	{"engine.rows_emitted", "count"},
	{"engine.pred_evals", "count"},
	{"engine.fix_rounds", "count"},
	{"engine.result_rows", "count"},
	{"engine.useful_ratio", "frac"},
	{"engine.alloc_bytes", "bytes"},
	{"engine.mem_peak_bytes", "bytes"},
	{"engine.spill_execute_us", "us"},
	{"engine.spill_partitions", "count"},
	{"engine.spill_bytes", "bytes"},
	{"engine.spill_reads", "count"},
	{"go.gc_cpu_frac", "frac"},
	{"go.gc_pause_us", "us"},
	{"trace.query_us", "us"},
	{"trace.measure_us", "us"},
	{"trace.unattributed_us", "us"},
	{"trace.unattributed_share", "frac"},
	{"trace.overhead_ms", "ms"},
}

func main() {
	workload := flag.String("workload", "", "workload to run: rewrite_adhoc, closure_exec, closure_spill or served_repeat")
	seed := flag.Int64("seed", 1, "seed of the generated data and query streams")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer driver instead of the end-to-end measurement")
	flag.Parse()
	w, ok := lookupWorkload(*workload)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	window := time.Duration(*seconds) * time.Second
	var res *result
	var detail map[string]any
	var err error
	if *traceFlag == 1 {
		res, detail, err = runTraced(w, *seed, window)
	} else {
		res, detail, err = runEndToEnd(w, *seed, window)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"workload": w.name, "seed": *seed, "detail": detail}); err == nil {
		err = enc.Encode(res)
	}
	if err == nil {
		err = out.Flush()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing result:", err)
		os.Exit(1)
	}
}

// spillDir is the per-process spill directory, inside the checkout.
func spillDir() string {
	return filepath.Join(".bench_build", "spill-"+strconv.Itoa(os.Getpid()))
}

// setUp sets the workload up setupReps times and returns the last
// instance with the median set-up time. Each repetition starts from a
// collected heap and tears the previous instance down first.
func setUp(w spec, seed int64, dir string) (*instance, float64, []float64, error) {
	var inst *instance
	var times []float64
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = w.setup(seed, dir, true)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return nil, 0, nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return inst, median(append([]float64(nil), times...)), times, nil
}

// runEndToEnd measures the end-to-end metrics: nproc or one closed-loop
// clients (per workload) for the whole window, with tracing off.
func runEndToEnd(w spec, seed int64, window time.Duration) (*result, map[string]any, error) {
	dir := spillDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	inst, setup, setups, err := setUp(w, seed, dir)
	if err != nil {
		return nil, nil, err
	}
	defer inst.close()

	win, err := measure(inst, window)
	if err != nil {
		return nil, nil, err
	}
	if inst.check != nil {
		if err := inst.check(); err != nil {
			return nil, nil, err
		}
	}
	sum, err := win.summarize()
	if err != nil {
		return nil, nil, err
	}
	sum.values["setup_s"] = setup
	res := &result{Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: sum.values[m.name], Unit: m.unit}
	}
	sum.detail["clients"] = len(inst.clients)
	sum.detail["setup_runs_s"] = setups
	return res, sum.detail, nil
}

// runTraced runs the decomposed driver with a single client for the
// window and reports the per-layer metrics.
func runTraced(w spec, seed int64, window time.Duration) (*result, map[string]any, error) {
	dir := spillDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	inst, err := w.setup(seed, dir, false)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	d, err := inst.driver()
	if err != nil {
		return nil, nil, fmt.Errorf("traced driver: %w", err)
	}
	fams := inst.clients[0].s.fams
	ctx := context.Background()
	warmStream := newStream(clientSeed(seed, 0, true), fams)
	if err := d.warm(ctx, warmStream, warmBlocks*warmStream.blockLen()); err != nil {
		return nil, nil, err
	}

	s := newStream(clientSeed(seed, 0, false), fams)
	gc0 := readGC()
	deadline := time.Now().Add(window)
	for req := 0; time.Now().Before(deadline); req++ {
		if _, _, err := d.query(ctx, req, s.next()); err != nil {
			return nil, nil, err
		}
	}
	gc1 := readGC()
	m := d.layerMetrics(gc0, gc1)
	if d.cache != nil && m["plancache.hit_ratio"] < minHitRatio {
		return nil, nil, fmt.Errorf("plan-cache hit ratio %.4f after warm-up, want at least %.2f", m["plancache.hit_ratio"], minHitRatio)
	}
	spans := filepath.Join(".bench_build", "spans-"+w.name+".jsonl")
	if err := d.tr.write(spans); err != nil {
		return nil, nil, err
	}
	res := &result{Correct: d.acc.failed == 0, Attempted: d.acc.queries, Failed: d.acc.failed, Metrics: map[string]metric{}}
	for _, pl := range perLayer {
		res.Metrics[pl.name] = metric{Value: m[pl.name], Unit: pl.unit}
	}
	detail := map[string]any{"spans_file": spans, "spans": len(d.tr.spans)}
	return res, detail, nil
}

// peakRSS reads the process's peak resident set size (VmHWM), in MB.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
