package main

import (
	"math"
	"math/bits"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 over 500 samples rests on five values and is noise.
const minTail = 10

// hist is a log-linear latency histogram in nanoseconds: values below 64
// are exact, and above that each power of two is split into 64 buckets,
// so a reported value is within 1/64 (1.6%) of a recorded one. It keeps
// memory fixed however many calls a phase makes.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	subBits     = 6
	subBuckets  = 1 << subBits
	histBuckets = (64 - subBits + 1) * subBuckets
)

func bucketOf(v int64) int {
	if v < subBuckets {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - 1 // e >= subBits
	m := int(uint64(v) >> (e - subBits))
	return (e-subBits+1)*subBuckets + m - subBuckets
}

// valueOf returns the middle of bucket b.
func valueOf(b int) int64 {
	if b < subBuckets {
		return int64(b)
	}
	e := b/subBuckets + subBits - 1
	m := int64(b%subBuckets + subBuckets)
	lo := m << (e - subBits)
	return lo + (int64(1)<<(e-subBits))/2
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// percentile returns the nearest-rank q-quantile, and ok only when at
// least minTail samples lie beyond it.
func (h *hist) percentile(q float64) (v int64, ok bool) {
	if h.n == 0 || q < 0 || q > 1 {
		return 0, false
	}
	rank := max(uint64(math.Ceil(q*float64(h.n))), 1)
	if h.n-rank < minTail {
		return 0, false
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return valueOf(b), true
		}
	}
	return 0, false // unreachable: seen reaches n >= rank
}

// medianF returns the median of xs (the mean of the middle pair for an
// even count), or 0 for none.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
