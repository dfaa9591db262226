package stats

import "math/bits"

// Hist is a log-bucketed histogram of non-negative durations (pclocks). Each
// power-of-two octave is split into histSub sub-buckets, bounding the
// relative quantile error at 1/histSub (12.5%); values below histSub are
// recorded exactly. The count, sum and exact maximum ride along, so
// Quantile(100) is exact and means need no second counter. The zero value is
// an empty histogram ready for use, and merging per-processor histograms is
// element-wise addition — both properties the per-node cache statistics and
// the telemetry sampler rely on.
type Hist struct {
	N       uint64
	Sum     int64
	MaxV    int64
	Buckets [histBuckets]uint64
}

const (
	histSub = 8
	// histBuckets covers values up to (2*histSub)<<histMaxOctave - 1
	// (~1.7e10 pclocks, minutes of simulated time); larger values clamp
	// into the last bucket, whose reported bound is the exact maximum.
	histBuckets = 256
)

// histIndex maps a value to its bucket.
func histIndex(v int64) int {
	if v < histSub {
		return int(v)
	}
	o := bits.Len64(uint64(v)) - 4 // octave; 0 for v in [8,16)
	i := o*histSub + int(v>>uint(o))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histBound returns the inclusive upper bound of bucket i.
func histBound(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	o := i/histSub - 1
	return ((int64(i-o*histSub) + 1) << uint(o)) - 1
}

// Add records one value. Negative values clamp to zero.
func (h *Hist) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.N++
	h.Sum += v
	if v > h.MaxV {
		h.MaxV = v
	}
	h.Buckets[histIndex(v)]++
}

// Merge accumulates another histogram into h.
func (h *Hist) Merge(o Hist) {
	h.N += o.N
	h.Sum += o.Sum
	if o.MaxV > h.MaxV {
		h.MaxV = o.MaxV
	}
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Count returns the number of recorded values.
func (h *Hist) Count() uint64 { return h.N }

// Max returns the exact largest recorded value (0 when empty).
func (h *Hist) Max() int64 { return h.MaxV }

// Mean returns the exact arithmetic mean (0 when empty).
func (h *Hist) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.N)
}

// Quantile returns an upper bound for the p-th percentile (0 < p <= 100): the
// upper bound of the bucket holding the p-th ranked value, clamped to the
// exact maximum. Empty histograms return 0.
func (h *Hist) Quantile(p float64) int64 {
	if h.N == 0 {
		return 0
	}
	target := uint64(p / 100 * float64(h.N))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, n := range h.Buckets {
		seen += n
		if n > 0 && seen >= target {
			if b := histBound(i); i < histBuckets-1 && b < h.MaxV {
				return b
			}
			return h.MaxV
		}
	}
	return h.MaxV
}
