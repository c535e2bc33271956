package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// band renders the noise band of a metric's per-block values: the distance
// between their first and third quartiles as a share of their median.
func band(xs []float64) string {
	if len(xs) < 2 {
		return fmt.Sprintf("band n/a (%d block)", len(xs))
	}
	m := median(xs)
	if m == 0 {
		return fmt.Sprintf("band n/a (median 0, %d blocks)", len(xs))
	}
	return fmt.Sprintf("band ±%.1f%% IQR over %d blocks", 100*(quantile(xs, 0.75)-quantile(xs, 0.25))/math.Abs(m), len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// deriveSeed gives each labelled input its own seed from the workload seed,
// so the program sees only generated per-run seeds.
func deriveSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	x := uint64(seed) ^ h.Sum64()
	// splitmix64 finaliser
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 33) // 31 bits: an ordinary positive seed
}
