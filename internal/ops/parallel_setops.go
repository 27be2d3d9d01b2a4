package ops

import (
	"fmt"

	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// This file implements the value-range-parallel drivers of the sorted-set
// operators. Intersect/merge carry no state across elements other than the
// two cursors, so cutting BOTH inputs at one shared set of boundary values
// (formats.SplitSortedAligned: boundary values sampled from the first input,
// cut points located by galloping lower-bound searches) yields range pairs
// that can be processed independently: concatenating the per-range results
// in range order reproduces the sequential two-pointer merge exactly,
// duplicates included. The per-range outputs are finished through the
// parallel compressed stitch, so the result column is byte-identical to the
// sequential operator's at every parallelism level.
//
// Unlike the morsel drivers, the range cuts are value positions, not
// block-aligned element positions, so both inputs are materialized as value
// slices first (zero-copy for uncompressed inputs). That also makes the
// parallel path total over formats — RLE inputs, which cannot be
// morsel-split, still partition by value range.

// splitSortedInputs materializes both sorted inputs and cuts them at shared
// value boundaries; a nil pair list sends the caller to the sequential
// operator (par <= 1, or the first input too small to be worth splitting).
// The two decompressions run as concurrent budget-slot tasks (they are real
// work, so they count against the engine allowance, and decompressing them
// in parallel halves the serial tail ahead of the range kernels); the
// coarsest cancellation window of the sorted-set drivers is therefore one
// full-column decompress rather than one morsel.
func (rt Runtime) splitSortedInputs(a, b *columns.Column) ([]formats.RangePair, []uint64, []uint64, error) {
	// Intersection and union are symmetric in their operands, so the larger
	// input goes first: it drives the boundary sampling and the size gate,
	// and a tiny first operand cannot force a huge second one sequential.
	if a.N() < b.N() {
		a, b = b, a
	}
	if rt.Par() <= 1 || a.N() < 2*formats.MinMorsel {
		return nil, nil, nil, nil
	}
	cols := [2]*columns.Column{a, b}
	var vals [2][]uint64
	if err := rt.runTasks(2, func(_, i int) error {
		v, err := readAll(cols[i])
		vals[i] = v
		return err
	}); err != nil {
		return nil, nil, nil, err
	}
	return formats.SplitSortedAligned(vals[0], vals[1], rt.Par()), vals[0], vals[1], nil
}

// Intersect is the value-range-parallel form of IntersectSorted: both
// sorted inputs are split at shared value boundaries and the per-range
// intersections are concatenated in range order. The result is
// byte-identical to IntersectSorted at every par.
func (rt Runtime) Intersect(a, b *columns.Column, out columns.FormatDesc) (*columns.Column, error) {
	if err := checkCols(a, b); err != nil {
		return nil, err
	}
	if err := rt.Err(); err != nil {
		return nil, err
	}
	pairs, avals, bvals, err := rt.splitSortedInputs(a, b)
	if err != nil {
		return nil, err
	}
	if pairs == nil {
		if avals == nil {
			rt.seqFallback()
			return IntersectSorted(a, b, out)
		}
		// The inputs are already materialized but admit no value boundary
		// (e.g. one giant duplicate run); run the slice kernel whole rather
		// than decompressing a second time through the streamed operator.
		// The kernel is one serial pass, so the lease shrinks like every
		// other sequential fallback (the stitch of its output serializes
		// behind the shrunken lease, a minor loss next to the serial scan).
		rt.seqFallback()
		return rt.stitchCompressed(out, min(a.N(), b.N()), [][]uint64{intersectValues(avals, bvals)})
	}
	results := make([][]uint64, len(pairs))
	err = rt.runTasks(len(pairs), func(_, i int) error {
		p := pairs[i]
		results[i] = intersectValues(
			avals[p.A.Start:p.A.Start+p.A.Count],
			bvals[p.B.Start:p.B.Start+p.B.Count])
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ops: parallel intersect: %w", err)
	}
	return rt.stitchCompressed(out, min(a.N(), b.N()), results)
}

// Merge is the value-range-parallel form of MergeSorted.
func (rt Runtime) Merge(a, b *columns.Column, out columns.FormatDesc) (*columns.Column, error) {
	if err := checkCols(a, b); err != nil {
		return nil, err
	}
	if err := rt.Err(); err != nil {
		return nil, err
	}
	pairs, avals, bvals, err := rt.splitSortedInputs(a, b)
	if err != nil {
		return nil, err
	}
	if pairs == nil {
		if avals == nil {
			rt.seqFallback()
			return MergeSorted(a, b, out)
		}
		rt.seqFallback()
		return rt.stitchCompressed(out, a.N()+b.N(), [][]uint64{mergeValues(avals, bvals)})
	}
	results := make([][]uint64, len(pairs))
	err = rt.runTasks(len(pairs), func(_, i int) error {
		p := pairs[i]
		results[i] = mergeValues(
			avals[p.A.Start:p.A.Start+p.A.Count],
			bvals[p.B.Start:p.B.Start+p.B.Count])
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ops: parallel merge: %w", err)
	}
	return rt.stitchCompressed(out, a.N()+b.N(), results)
}

// intersectValues is the slice form of the IntersectSorted kernel; its
// output must equal the streamed operator's element for element (including
// duplicate handling) so the concatenated ranges stay byte-identical. It
// takes the branch-free bitmap kernel when that applies and the two-pointer
// merge otherwise.
func intersectValues(a, b []uint64) []uint64 {
	if dst, ok := intersectBitmap(a, b); ok {
		return dst
	}
	return intersectMerge(a, b)
}

// bitmapSpanPerValue bounds the value span the bitmap intersection accepts,
// per element of the shorter input: the bitmap then costs at most half a
// word per element to clear.
const bitmapSpanPerValue = 32

// intersectBitmap marks the shorter input in a bitmap over its value span
// [lo, hi] and filters the longer input through it, with no data-dependent
// branch per element. It applies (ok) only when both inputs are strictly
// increasing — checked inline while building and probing — and the span is
// at most bitmapSpanPerValue times the shorter input's length. Under those
// conditions every common value occurs once in each input, so the result
// equals the merge's; duplicates, which the merge emits pairwise, and wide
// sparse spans are left to intersectMerge.
func intersectBitmap(a, b []uint64) (dst []uint64, ok bool) {
	short, long := a, b
	if len(short) > len(long) {
		short, long = long, short
	}
	if len(short) == 0 {
		return []uint64{}, true
	}
	lo, hi := short[0], short[len(short)-1]
	if hi < lo || hi-lo > bitmapSpanPerValue*uint64(len(short)) {
		return nil, false
	}
	span := hi - lo
	// One spare bit past the span stays clear: probes outside [lo, hi]
	// clamp onto it.
	bm := make([]uint64, (span+1)/64+1)
	prev := lo
	for i, v := range short {
		if i > 0 && v <= prev {
			return nil, false
		}
		prev = v
		d := v - lo
		bm[d/64] |= 1 << (d % 64)
	}
	// Every output value is a distinct element of short, so the cursor
	// stays below len(short) and the unconditional write at it below
	// len(short)+1.
	dst = make([]uint64, len(short)+1)
	k := 0
	for i, v := range long {
		if i > 0 && v <= prev {
			return nil, false
		}
		prev = v
		d := min(v-lo, span+1)
		dst[k] = v
		k += int(bm[d/64] >> (d % 64) & 1)
	}
	return dst[:k], true
}

// intersectMerge is the two-pointer merge form of intersectValues, which
// also handles duplicates and unbounded value spans.
func intersectMerge(a, b []uint64) []uint64 {
	dst := make([]uint64, 0, min(len(a), len(b))/4+16)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case b[j] < a[i]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// mergeValues is the slice form of the MergeSorted kernel (sorted union;
// an element present in both inputs is emitted once).
func mergeValues(a, b []uint64) []uint64 {
	dst := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i < len(a) && (j >= len(b) || a[i] < b[j]):
			dst = append(dst, a[i])
			i++
		case j < len(b) && (i >= len(a) || b[j] < a[i]):
			dst = append(dst, b[j])
			j++
		default: // equal
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}
