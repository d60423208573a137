package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The timed window is cut into slices of sliceLen. qps, p50_ms and
// p99_ms are computed over the keepFrac of slices in which the host
// stole the least CPU time from this machine (the steal column of
// /proc/stat), so a burst of outside load on a shared host that covers
// up to a quarter of the run does not move them. Selecting by steal, not
// by speed, keeps the program's own slow periods in the numbers. The
// whole-window values are reported in the run details.
const (
	sliceLen = 2 * time.Second
	keepFrac = 0.75
)

// sliceCount is the number of slices of a window; the last may be short.
func sliceCount(length time.Duration) int {
	return int((length + sliceLen - 1) / sliceLen)
}

// sampleEvery is the resident-set sampling interval. Go returns freed
// heap to the OS slowly, so resident size changes slowly and a 10 ms
// sample catches its peaks.
const sampleEvery = 10 * time.Millisecond

// clientTally is one client's account of the timed window: a latency
// histogram per slice and per family, allocated before the window opens.
type clientTally struct {
	slice             []*hist
	fam               []*hist
	attempted, failed int
	wrong             int
	bad               string
	families          []int // attempted queries per family
}

func newTally(nslice, nfam int) *clientTally {
	t := &clientTally{families: make([]int, nfam)}
	for k := 0; k < nslice; k++ {
		t.slice = append(t.slice, newHist())
	}
	for i := 0; i < nfam; i++ {
		t.fam = append(t.fam, newHist())
	}
	return t
}

// window is the record of one timed window, all clients merged.
type window struct {
	*clientTally
	fams            []family
	length, elapsed time.Duration
	allocBytes      uint64
	host            hostSamples
}

// measure runs every client in a closed loop for the window. Each client
// issues its next query only when the previous one has returned.
func measure(inst *instance, length time.Duration) (*window, error) {
	fams := inst.clients[0].s.fams
	tallies := make([]*clientTally, len(inst.clients))
	nslice := sliceCount(length)
	for i := range tallies {
		tallies[i] = newTally(nslice, len(fams))
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(length)
	stop := make(chan struct{})
	hostDone := make(chan hostSamples)
	go func() { hostDone <- sampleHost(start, length, stop) }()
	var wg sync.WaitGroup
	for i, c := range inst.clients {
		wg.Add(1)
		go func(t *clientTally, c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) && t.bad == "" {
				q := c.s.next()
				o := c.exec(ctx, q)
				t.attempted++
				t.families[q.famIdx]++
				switch {
				case o.bad != "":
					t.bad = o.bad
					t.failed++
				case o.err != nil:
					t.failed++
				case o.got != q.want:
					t.failed++
					t.wrong++
				default:
					t.slice[sliceOf(time.Since(start), length)].add(ms(o.lat))
					t.fam[q.famIdx].add(ms(o.lat))
				}
			}
		}(tallies[i], c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	host := <-hostDone
	runtime.ReadMemStats(&m1)

	w := &window{clientTally: newTally(nslice, len(fams)), fams: fams, length: length, elapsed: elapsed,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc, host: host}
	for _, t := range tallies {
		if t.bad != "" {
			return nil, errors.New(t.bad)
		}
		w.attempted += t.attempted
		w.failed += t.failed
		w.wrong += t.wrong
		for i, n := range t.families {
			w.families[i] += n
		}
		for k := range t.slice {
			w.slice[k].merge(t.slice[k])
		}
		for i := range t.fam {
			w.fam[i].merge(t.fam[i])
		}
	}
	return w, nil
}

// hostSamples are the per-slice readings of the process and the host:
// the peak resident set size (MB) and the share of CPU time the host
// stole (-1 where /proc/stat gives none).
type hostSamples struct {
	rssPeak []float64
	steal   []float64
}

// sampleHost samples the resident set size every sampleEvery and the
// CPU steal at every slice boundary until stop is closed.
func sampleHost(start time.Time, length time.Duration, stop <-chan struct{}) hostSamples {
	n := sliceCount(length)
	h := hostSamples{rssPeak: make([]float64, n), steal: make([]float64, n)}
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	cur := 0
	steal0, total0, stealErr := cpuSteal()
	closeSlice := func() {
		steal1, total1, err := cpuSteal()
		if err != nil || stealErr != nil || total1 <= total0 {
			h.steal[cur] = -1
		} else {
			h.steal[cur] = (steal1 - steal0) / (total1 - total0)
		}
		steal0, total0, stealErr = steal1, total1, err
	}
	for {
		i := sliceOf(time.Since(start), length)
		if i != cur {
			closeSlice()
			cur = i
		}
		if mb, err := residentMB(); err == nil {
			h.rssPeak[i] = math.Max(h.rssPeak[i], mb)
		}
		select {
		case <-stop:
			closeSlice()
			return h
		case <-tick.C:
		}
	}
}

// cpuSteal reads the machine-wide steal and total CPU time, in clock
// ticks, from the first line of /proc/stat.
func cpuSteal() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("no steal column in /proc/stat")
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// sliceOf is the slice a moment of the window falls in; completions after
// the deadline belong to the last slice.
func sliceOf(at, length time.Duration) int {
	return min(int(at/sliceLen), sliceCount(length)-1)
}

// residentMB reads the current resident set size from /proc/self/statm.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, errors.New("malformed /proc/self/statm")
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// summary is the end-to-end metrics of a window plus run details.
type summary struct {
	values map[string]float64
	detail map[string]any
}

// summarize computes the metrics over the kept slices: the keepFrac of
// slices with the least CPU steal (ties, and machines without a steal
// reading, keep the earlier slices). Their samples are pooled for p50 and
// p99; when the pool has fewer than ten samples beyond p99, p99 comes
// from the whole window. peak_rss_mb is the median of the slices' peaks.
func (w *window) summarize() (*summary, error) {
	all := newHist()
	for _, h := range w.slice {
		all.merge(h)
	}
	if p, _, n, ok := tail(all); !ok || p < 99 {
		return nil, fmt.Errorf("%d completed queries: p99 needs %d samples beyond it", n, minBeyond)
	}
	n := len(w.slice)
	dur := make([]time.Duration, n)
	rates := make([]float64, n)
	order := make([]int, n)
	for k, h := range w.slice {
		dur[k] = sliceLen
		if k == n-1 {
			dur[k] = w.elapsed - sliceLen*time.Duration(n-1)
		}
		rates[k] = float64(h.count()) / dur[k].Seconds()
		order[k] = k
	}
	steal := func(k int) float64 { return max(w.host.steal[k], 0) }
	sort.SliceStable(order, func(i, j int) bool { return steal(order[i]) < steal(order[j]) })
	kept := order[:int(math.Ceil(keepFrac*float64(n)))]
	sort.Ints(kept)
	pool := newHist()
	var keptDur time.Duration
	for _, k := range kept {
		pool.merge(w.slice[k])
		keptDur += dur[k]
	}
	p99 := percentile(all, 99)
	p, _, _, ok := tail(pool)
	p99FromPool := ok && p >= 99
	if p99FromPool {
		p99 = percentile(pool, 99)
	}
	famP50 := map[string]float64{}
	famCount := map[string]int{}
	for i, f := range w.fams {
		famP50[f.name] = percentile(w.fam[i], 50)
		famCount[f.name] = w.families[i]
	}
	hwm, err := peakRSS()
	if err != nil {
		return nil, err
	}
	completed := float64(all.count())
	return &summary{
		values: map[string]float64{
			"qps":                float64(pool.count()) / keptDur.Seconds(),
			"p50_ms":             percentile(pool, 50),
			"p99_ms":             p99,
			"ok_frac":            completed / float64(w.attempted),
			"alloc_mb_per_query": float64(w.allocBytes) / 1e6 / math.Max(completed, 1),
			"peak_rss_mb":        median(append([]float64(nil), w.host.rssPeak...)),
		},
		detail: map[string]any{
			"samples":           all.count(),
			"kept_samples":      pool.count(),
			"kept_slices":       kept,
			"p99_from_kept":     p99FromPool,
			"window_qps":        completed / w.elapsed.Seconds(),
			"window_p50_ms":     percentile(all, 50),
			"window_p99_ms":     percentile(all, 99),
			"slice_qps":         rates,
			"slice_peak_rss_mb": w.host.rssPeak,
			"slice_steal_frac":  w.host.steal,
			"vm_hwm_mb":         hwm,
			"wrong_answers":     w.wrong,
			"window_s":          w.elapsed.Seconds(),
			"family_counts":     famCount,
			"family_p50_ms":     famP50,
		},
	}, nil
}
