package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that divide xs into four groups,
// by the same rule as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here and by anyone checking the
// benchmark with Python agree exactly. One sample gives three copies of it.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// relIQR is the distance between the first and third quartile as a share of
// the median; 0 when the median is 0.
func relIQR(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// tailPercentiles is the ladder the tail rule climbs.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// tailPercentile returns the highest percentile of the ladder that leaves at
// least ten samples beyond it, given n samples: a tail read from fewer than
// ten samples is one slow outlier, not a percentile. ok is false when even
// the median has fewer than ten samples above it.
func tailPercentile(n int) (p float64, ok bool) {
	for i := len(tailPercentiles) - 1; i >= 0; i-- {
		p := tailPercentiles[i]
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	return s[lo] + (s[hi]-s[lo])*(r-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// treeHash is the 64-bit FNV-1a hash of one canonical Newick line; the
// duplicate check keys its set by it.
func treeHash(newick []byte) uint64 {
	h := fnv.New64a()
	h.Write(newick)
	return h.Sum64()
}

// digestAdd folds one tree hash into an order-independent stand digest: the
// wrapping sum of the hashes passed through a bijective mixer, so two
// streams of the same stand in any order digest equally, while a missing,
// extra or repeated tree changes the digest.
func digestAdd(d, h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return d + h
}

// spread formats a sample's minimum, quartiles and maximum for the report.
func spread(xs []float64) string {
	if len(xs) == 0 {
		return "none"
	}
	q1, q2, q3 := quartiles(xs)
	s := sortedCopy(xs)
	return fmt.Sprintf("min %.6g q1 %.6g median %.6g q3 %.6g max %.6g", s[0], q1, q2, q3, s[len(s)-1])
}
