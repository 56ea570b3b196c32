package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// quantile is one reported order statistic: the value at percentile p of n
// samples.
type quantile struct {
	value float64
	p     float64
	n     int
}

// percentile returns the nearest-rank percentile p (0 < p ≤ 100) of samples,
// leaving samples unchanged. It returns NaN for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	samples = append([]float64(nil), samples...)
	sort.Float64s(samples)
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}

// tail reports percentile want of samples, or, when fewer than minTail
// samples would lie beyond it, the highest percentile that keeps minTail
// beyond it; never below the median.
func tail(samples []float64, want float64) quantile {
	n := len(samples)
	p := want
	if n > 0 {
		if limit := 100 * (1 - float64(minTail)/float64(n)); limit < p {
			p = math.Floor(limit*10) / 10
		}
	}
	if p < 50 {
		p = 50
	}
	return quantile{value: percentile(samples, p), p: p, n: n}
}

// mean returns the arithmetic mean, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the median of xs.
func median(xs []float64) float64 { return percentile(xs, 50) }

// slope is the least-squares slope of y against x (0 when x is constant).
func slope(x, y []float64) float64 {
	mx, my := mean(x), mean(y)
	var sxy, sxx float64
	for i := range x {
		sxy += (x[i] - mx) * (y[i] - my)
		sxx += (x[i] - mx) * (x[i] - mx)
	}
	if sxx == 0 {
		return 0
	}
	return sxy / sxx
}

// drift is the mean of the last quarter of xs over the mean of its first
// quarter (1 for fewer than four values).
func drift(xs []float64) float64 {
	q := len(xs) / 4
	if q == 0 {
		return 1
	}
	first := mean(xs[:q])
	if first == 0 {
		return 1
	}
	return mean(xs[len(xs)-q:]) / first
}

// sliceRates splits a run of length elapsed into n equal slices and returns
// each slice's completions per second, given each completion's offset from
// the run's start. Their median is a throughput that one stall, which slows
// a single slice, cannot move.
func sliceRates(doneAt []time.Duration, elapsed time.Duration, n int) []float64 {
	counts := make([]int, n)
	for _, t := range doneAt {
		k := int(int64(t) * int64(n) / int64(elapsed))
		counts[min(max(k, 0), n-1)]++
	}
	width := elapsed.Seconds() / float64(n)
	rates := make([]float64, n)
	for k, c := range counts {
		rates[k] = float64(c) / width
	}
	return rates
}

// sliceMedian cuts xs, in arrival order, into n consecutive slices of equal
// count and returns the median of the slices' medians, so that a stall which
// slows one slice cannot move it. With fewer than n values it is the median.
func sliceMedian(xs []float64, n int) float64 {
	if len(xs) < n {
		return median(xs)
	}
	meds := make([]float64, n)
	for k := range meds {
		meds[k] = median(xs[k*len(xs)/n : (k+1)*len(xs)/n])
	}
	return median(meds)
}

// schedule is an open-loop arrival schedule: request i is due at
// start + i/rate, computed from i so that rounding never accumulates.
type schedule struct {
	start time.Time
	rate  float64
}

// due returns when request i should be sent.
func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) * float64(time.Second) / s.rate))
}

// spinAhead is how long before a due time waitUntil stops sleeping and
// spins. A Go timer fires up to about a millisecond late (the netpoller
// waits in whole milliseconds), and a late send would count as server
// latency.
const spinAhead = 2 * time.Millisecond

// waitUntil returns at t, or at once if t has passed: it sleeps until
// spinAhead before t and spins for the rest.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinAhead; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// count returns how many requests fall due in a run of length d.
func (s schedule) count(d time.Duration) int {
	return int(math.Ceil(d.Seconds() * s.rate))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// matchKey mixes one match (query id and the two timestamps) into a 64-bit
// key. A document's digest is the wrapping sum of its matches' keys, which
// is independent of delivery order, so in-process results, wire MATCH lines
// arriving in any order, and the oracle's results compare directly.
func matchKey(qid, lts, rts int64) uint64 {
	h := uint64(qid)*0x9e3779b97f4a7c15 ^ uint64(lts)*0xbf58476d1ce4e5b9 ^ uint64(rts)*0x94d049bb133111eb
	h ^= h >> 31
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	return h
}

// digest is one document's match set: its count and key sum.
type digest struct {
	n   int
	sum uint64
}

func (d *digest) add(qid, lts, rts int64) {
	d.n++
	d.sum += matchKey(qid, lts, rts)
}
