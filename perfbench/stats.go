package main

import (
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"

	"lera/internal/value"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail value backed by fewer than ten samples is a single outlier, not
// a percentile.
const minBeyond = 10

// percentileLadder is the set of percentiles tail chooses from, highest
// first.
var percentileLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 75, 50}

// ranked is a set of samples that can return its r-th smallest value.
type ranked interface {
	count() int
	at(r int) float64
}

// sorted is a ranked set held as a sorted slice.
type sorted []float64

func (s sorted) count() int       { return len(s) }
func (s sorted) at(r int) float64 { return s[r] }

// percentile returns the nearest-rank p-th percentile.
func percentile(s ranked, p float64) float64 {
	if s.count() == 0 {
		return math.NaN()
	}
	return s.at(rankIndex(s.count(), p))
}

// rankIndex is the nearest-rank index of the p-th percentile of n samples.
func rankIndex(n int, p float64) int {
	// The epsilon keeps binary rounding of p (99.9 is inexact) from
	// pushing an exact rank up by one.
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tail returns the highest percentile of the ladder that has at least
// minBeyond samples beyond it, with its value and the sample count. ok is
// false when even the median lacks minBeyond samples beyond it.
func tail(s ranked) (p, v float64, n int, ok bool) {
	n = s.count()
	for _, p := range percentileLadder {
		i := rankIndex(n, p)
		if n > 0 && n-(i+1) >= minBeyond {
			return p, s.at(i), n, true
		}
	}
	return 0, math.NaN(), n, false
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return percentile(sorted(xs), 50)
}

// Latency histograms have logarithmic buckets: bucket i covers
// [histMin·histBase^i, histMin·histBase^(i+1)) ms, from 1 µs to 100 s,
// so a value read back is within 0.1% of the sample it stands for.
const (
	histMin  = 1e-3
	histMax  = 1e5
	histBase = 1.002
)

var histBuckets = int(math.Log(histMax/histMin)/math.Log(histBase)) + 1

// hist is a latency histogram of fixed size: recording a sample never
// allocates, so a long run does not grow the heap it is measuring.
type hist struct {
	counts []uint32
	n      int
}

func newHist() *hist { return &hist{counts: make([]uint32, histBuckets)} }

func (h *hist) add(ms float64) {
	i := 0
	if ms > histMin {
		i = min(int(math.Log(ms/histMin)/math.Log(histBase)), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) count() int { return h.n }

// at returns the geometric middle of the bucket holding rank r.
func (h *hist) at(r int) float64 {
	for i, c := range h.counts {
		if r < int(c) {
			return histMin * math.Pow(histBase, float64(i)+0.5)
		}
		r -= int(c)
	}
	return math.NaN()
}

// answer is an order-independent fingerprint of a query result: the row
// count and two sums of per-row hashes. Equal multisets of rows give
// equal answers; sums make the fingerprint independent of row order
// without sorting the result.
type answer struct {
	Rows int
	Sum  uint64
	Mix  uint64
}

// add folds one rendered row into the fingerprint.
func (a *answer) add(row string) {
	h := fnv.New64a()
	h.Write([]byte(row))
	x := h.Sum64()
	a.Rows++
	a.Sum += x
	a.Mix += splitmix(x)
}

// splitmix is the SplitMix64 finalizer, a second independent hash of x.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// answerOf fingerprints rendered rows (each a slice of cells).
func answerOf(rows [][]string) answer {
	var a answer
	for _, r := range rows {
		a.add(strings.Join(r, "\x1f"))
	}
	return a
}

// answerOfValues fingerprints engine rows, rendering each cell the way
// the server does (value.Value.String), so embedded and served results
// share one fingerprint.
func answerOfValues(rows [][]value.Value) answer {
	var a answer
	var buf []byte
	for _, r := range rows {
		buf = buf[:0]
		for i, v := range r {
			if i > 0 {
				buf = append(buf, '\x1f')
			}
			if v.K == value.KInt {
				buf = strconv.AppendInt(buf, v.I, 10)
			} else {
				buf = append(buf, v.String()...)
			}
		}
		a.add(string(buf))
	}
	return a
}
