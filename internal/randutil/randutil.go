// Package randutil provides deterministic, seedable randomness helpers used
// throughout the simulation substrate. Every generator in this repository
// draws from an explicit *rand.Rand so that whole-study runs are exactly
// reproducible from a single seed.
package randutil

import (
	"math"
	"math/rand"
	"strconv"
)

// New returns a rand.Rand seeded with the given seed.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Derive returns a new RNG deterministically derived from a parent RNG and a
// label. It lets independent subsystems share one master seed without
// consuming interleaved values from a single stream (which would make the
// output of one subsystem depend on the call order of another).
func Derive(r *rand.Rand, label string) *rand.Rand {
	var h int64 = 1469598103934665603
	for _, c := range label {
		h ^= int64(c)
		h *= 1099511628211
	}
	return New(h ^ r.Int63())
}

// Bool returns true with probability p.
func Bool(r *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// IntRange returns a uniform integer in [lo, hi] inclusive.
func IntRange(r *rand.Rand, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + r.Intn(hi-lo+1)
}

// Pick returns a uniformly random element of items. It panics when items is
// empty, mirroring the contract of rand.Intn.
func Pick[T any](r *rand.Rand, items []T) T {
	return items[r.Intn(len(items))]
}

// PickN returns n distinct elements sampled without replacement. When
// n >= len(items) a shuffled copy of all items is returned.
func PickN[T any](r *rand.Rand, items []T, n int) []T {
	idx := r.Perm(len(items))
	if n > len(items) {
		n = len(items)
	}
	out := make([]T, 0, n)
	for _, i := range idx[:n] {
		out = append(out, items[i])
	}
	return out
}

// Shuffle permutes items in place.
func Shuffle[T any](r *rand.Rand, items []T) {
	r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
}

// Weighted selects an index according to the provided non-negative weights.
// A zero or negative total weight selects index 0.
func Weighted(r *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// WeightedString maps a weight table of label->weight onto a choice. Map
// iteration order is randomized by the runtime, so the table is flattened in
// sorted-key order first to keep selection deterministic.
func WeightedString(r *rand.Rand, table map[string]float64) string {
	keys := sortedKeys(table)
	weights := make([]float64, len(keys))
	for i, k := range keys {
		weights[i] = table[k]
	}
	return keys[Weighted(r, weights)]
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion sort: tables are tiny and this avoids an import.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// NormalClamped draws from a normal distribution with the given mean and
// standard deviation, clamped to [lo, hi].
func NormalClamped(r *rand.Rand, mean, stddev, lo, hi float64) float64 {
	v := r.NormFloat64()*stddev + mean
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// SkewedAge samples an age distribution matching the paper's victim
// population: clustered in the late teens / early twenties (mean 21.7) with a
// long tail up to the seventies and a floor at 10.
func SkewedAge(r *rand.Rand) int {
	// Mixture: 85% young core, 15% broad tail.
	if r.Float64() < 0.85 {
		return int(NormalClamped(r, 20, 4.5, 10, 45))
	}
	return int(NormalClamped(r, 34, 14, 10, 74))
}

// Digits returns a string of n random decimal digits.
func Digits(r *rand.Rand, n int) string {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte('0' + r.Intn(10))
	}
	return string(buf)
}

// LowerWord returns a random lowercase ASCII word of length n.
func LowerWord(r *rand.Rand, n int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = letters[r.Intn(len(letters))]
	}
	return string(buf)
}

// HexString returns n random lowercase hex characters.
func HexString(r *rand.Rand, n int) string {
	const hexdig = "0123456789abcdef"
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = hexdig[r.Intn(len(hexdig))]
	}
	return string(buf)
}

// Phone returns a plausible NANP-style phone number, in one of several
// formats doxers actually use.
func Phone(r *rand.Rand) string {
	return string(AppendPhone(r, nil))
}

// AppendDigits appends n random decimal digits to dst. Same draw sequence
// as Digits, without the intermediate buffer and string.
func AppendDigits(r *rand.Rand, dst []byte, n int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, byte('0'+r.Intn(10)))
	}
	return dst
}

// AppendLowerWord appends a random lowercase ASCII word of length n to dst.
// Same draw sequence as LowerWord.
func AppendLowerWord(r *rand.Rand, dst []byte, n int) []byte {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	for i := 0; i < n; i++ {
		dst = append(dst, letters[r.Intn(len(letters))])
	}
	return dst
}

// AppendHexString appends n random lowercase hex characters to dst. Same
// draw sequence as HexString.
func AppendHexString(r *rand.Rand, dst []byte, n int) []byte {
	const hexdig = "0123456789abcdef"
	for i := 0; i < n; i++ {
		dst = append(dst, hexdig[r.Intn(len(hexdig))])
	}
	return dst
}

// AppendPad appends v zero-padded to at least width digits (fmt's %0*d for
// non-negative v) without going through the fmt machinery.
func AppendPad(dst []byte, v, width int) []byte {
	digits := 1
	for x := v; x >= 10; x /= 10 {
		digits++
	}
	for ; width > digits; width-- {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(v), 10)
}

// AppendPhone appends a Phone-formatted number to dst, drawing the same
// RNG sequence as Phone (area, exchange, line, then the format selector).
func AppendPhone(r *rand.Rand, dst []byte) []byte {
	area := 201 + r.Intn(780)
	mid := 200 + r.Intn(799)
	last := r.Intn(10000)
	switch r.Intn(4) {
	case 0:
		dst = append(dst, '(')
		dst = AppendPad(dst, area, 3)
		dst = append(dst, ')', ' ')
		dst = AppendPad(dst, mid, 3)
		dst = append(dst, '-')
		return AppendPad(dst, last, 4)
	case 1:
		dst = AppendPad(dst, area, 3)
		dst = append(dst, '-')
		dst = AppendPad(dst, mid, 3)
		dst = append(dst, '-')
		return AppendPad(dst, last, 4)
	case 2:
		dst = append(dst, '+', '1')
		dst = AppendPad(dst, area, 3)
		dst = AppendPad(dst, mid, 3)
		return AppendPad(dst, last, 4)
	default:
		dst = AppendPad(dst, area, 3)
		dst = append(dst, '.')
		dst = AppendPad(dst, mid, 3)
		dst = append(dst, '.')
		return AppendPad(dst, last, 4)
	}
}

// Poisson draws from a Poisson distribution with the given mean using
// Knuth's method; adequate for the small means used in comment generation.
func Poisson(r *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	target := math.Exp(-mean)
	l := 1.0
	k := 0
	for {
		l *= r.Float64()
		if l <= target {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}
