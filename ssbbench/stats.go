package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	ms "morphstore"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// percentileLadder lists the percentiles a tail latency may be reported at.
var percentileLadder = []float64{50, 90, 95, 99, 99.9, 99.99}

// tailPercentile returns the highest ladder percentile of a sample of n
// values that leaves at least minBeyond samples above its nearest rank, or 0
// when not even the median does. A p99 therefore needs n >= 1000.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if n-nearestRank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// nearestRank is the 1-based rank of the p-th percentile in n sorted values.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9)) // 99.9/100*10000 is not exactly 9990
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs (0 when empty).
// It sorts a copy; xs is left unchanged.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// median returns the median of xs, averaging the two middle values of an
// even-sized sample (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// maxOf returns the largest value of xs (0 when empty).
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// sortedKeys returns the keys of m in increasing order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func ms64(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20

// opKind is one kind of operation the error rate counts.
type opKind int

const (
	opExecute opKind = iota
	opIngest
	opDelete
	opRemorph
	numOps
)

var opNames = [numOps]string{"execute", "ingest", "delete", "remorph"}

// accounting counts attempted and failed operations for the error rate. An
// operation fails when its call returns an error or, for Execute, when its
// result differs from the reference; a mismatch also fails the run. Safe for
// concurrent use by the reader and the writer.
type accounting struct {
	attempted, failed [numOps]atomic.Int64
	mismatches        atomic.Int64
}

// record counts one call of kind k and reports whether it succeeded.
func (a *accounting) record(k opKind, err error) bool {
	a.attempted[k].Add(1)
	if err != nil {
		a.failed[k].Add(1)
		return false
	}
	return true
}

// mismatch marks an Execute call already recorded as successful as failed,
// because its result differs from the reference.
func (a *accounting) mismatch() {
	a.failed[opExecute].Add(1)
	a.mismatches.Add(1)
}

// totals returns the attempted and failed operation counts over all kinds.
func (a *accounting) totals() (attempted, failed int64) {
	for k := range a.attempted {
		attempted += a.attempted[k].Load()
		failed += a.failed[k].Load()
	}
	return attempted, failed
}

// summary lists attempted/failed per operation kind.
func (a *accounting) summary() string {
	var b strings.Builder
	for k, name := range opNames {
		fmt.Fprintf(&b, " %s %d/%d", name, a.attempted[k].Load(), a.failed[k].Load())
	}
	return b.String()
}

// errorRate is failed ÷ attempted operations (0 when nothing was attempted).
func (a *accounting) errorRate() float64 {
	att, fail := a.totals()
	if att == 0 {
		return 0
	}
	return float64(fail) / float64(att)
}

// mergeBaseFormats unions the base-column formats the queries' cost-based
// assignments chose. A column the queries disagree on gets StaticBP, the
// only compressed format with random access, so every query can read it;
// those columns are returned sorted as disputed.
func mergeBaseFormats(perQuery []map[string]ms.FormatDesc) (merged map[string]ms.FormatDesc, disputed []string) {
	merged = make(map[string]ms.FormatDesc)
	first := make(map[string]ms.FormatDesc)
	for _, base := range perQuery {
		for col, d := range base {
			f, ok := first[col]
			if !ok {
				first[col], merged[col] = d, d
				continue
			}
			if d != f && !slices.Contains(disputed, col) {
				merged[col] = ms.StaticBP
				disputed = append(disputed, col)
			}
		}
	}
	sort.Strings(disputed)
	return merged, disputed
}

// sortRows orders result rows by their key tuples, the order
// ExtractSSBResult and SSBReference use.
func sortRows(rows []ms.SSBRow) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i].Keys, rows[j].Keys
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

// rowsEqual compares two sorted result sets.
func rowsEqual(a, b []ms.SSBRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Sum != b[i].Sum || len(a[i].Keys) != len(b[i].Keys) {
			return false
		}
		for k := range a[i].Keys {
			if a[i].Keys[k] != b[i].Keys[k] {
				return false
			}
		}
	}
	return true
}

// mergeRows returns the result of a query over the union of two row sets
// from the results over each: every SSB query sums per group, so groups
// present in both add up. The inputs are left unchanged.
func mergeRows(a, b []ms.SSBRow) []ms.SSBRow {
	idx := make(map[string]int, len(a)+len(b))
	out := make([]ms.SSBRow, 0, len(a)+len(b))
	key := func(keys []uint64) string {
		buf := make([]byte, 0, 8*len(keys))
		for _, k := range keys {
			for s := 0; s < 64; s += 8 {
				buf = append(buf, byte(k>>s))
			}
		}
		return string(buf)
	}
	for _, rows := range [][]ms.SSBRow{a, b} {
		for _, r := range rows {
			k := key(r.Keys)
			if i, ok := idx[k]; ok {
				out[i].Sum += r.Sum
				continue
			}
			idx[k] = len(out)
			out = append(out, ms.SSBRow{Keys: append([]uint64(nil), r.Keys...), Sum: r.Sum})
		}
	}
	sortRows(out)
	return out
}
