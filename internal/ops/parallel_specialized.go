package ops

import (
	"fmt"
	"slices"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// This file wires the specialized direct operators (specialized.go) into the
// morsel-parallel drivers: the static BP SWAR kernels partition naturally at
// the 64-value packing-group granularity (any SWAR width divides 64, so a
// partition boundary is always a packed-word boundary), and the per-block
// DynBP sum partitions at block granularity. Each worker runs the direct
// kernel over the packed words of its own partition — no decompression —
// and the outputs merge exactly like the generic drivers': position lists
// stitch in partition order, partial sums add modulo 2^64.

// parSwarOK reports whether the per-partition SWAR select kernel covers the
// input column: a static BP column with a non-zero word-parallel width. The
// all-zero width-0 column has no packed words, so the parallel dispatcher
// routes it to the generic morsel path, which produces the same positions.
func parSwarOK(in *columns.Column) bool {
	return CanSelectDirect(in) && in.Desc().Bits > 0
}

// parSelectSwar evaluates the SWAR predicate directly on the packed words of
// each partition of a static BP column, each worker emitting straight into
// its partition's position list, and stitches the lists in partition order.
// Partition starts and emitChunk are multiples of 64 elements, so every
// chunk handed to the section kernel starts on a packed-word boundary.
func (rt Runtime) parSelectSwar(in *columns.Column, parts []formats.Partition, p bitutil.SwarPred, out columns.FormatDesc, what string) (*columns.Column, error) {
	words, err := swarWords(in)
	if err != nil {
		return nil, err
	}
	results := make([][]uint64, len(parts))
	err = rt.runParts(parts, func(_, i int, pt formats.Partition) error {
		res := make([]uint64, 0, pt.Count/8+16)
		for start, end := pt.Start, pt.Start+pt.Count; start < end; start += emitChunk {
			count := min(emitChunk, end-start)
			res = slices.Grow(res, count)
			k := swarSelectKernel(words, &p, start, count, res[len(res):len(res)+count])
			res = res[:len(res)+k]
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ops: parallel %s: %w", what, err)
	}
	return rt.stitchCompressed(positionDesc(out, in.N()), in.N(), results)
}

// parSumStaticBPDirect sums each partition directly on its packed word range
// via the window-parallel SWAR accumulation (SumStaticBPDirect per morsel).
func (rt Runtime) parSumStaticBPDirect(in *columns.Column, parts []formats.Partition) (uint64, *columns.Column, error) {
	b := uint(in.Desc().Bits)
	words := in.MainWords()
	partials := make([]uint64, len(parts))
	err := rt.runParts(parts, func(_, i int, pt formats.Partition) error {
		// pt.Start is a multiple of 64 elements, so the section's packed
		// words begin word-aligned at Start*b/64 and span exactly the words
		// holding its Count fields (the accumulation consumes whole words).
		startW := pt.Start * int(b) / 64
		endW := startW + bitutil.PackedWords(pt.Count, b)
		partials[i] = bitutil.SumPackedWords(words[startW:endW], pt.Count, b)
		return nil
	})
	if err != nil {
		return 0, nil, fmt.Errorf("ops: parallel swar sum: %w", err)
	}
	var total uint64
	for _, t := range partials {
		total += t
	}
	return total, columns.FromValues([]uint64{total}), nil
}

// parSumDynBPDirect sums each partition of a DynBP column block by block
// directly on the packed payload words (SumDynBPDirect per morsel), plus the
// uncompressed remainder for the tail partition.
func (rt Runtime) parSumDynBPDirect(in *columns.Column, parts []formats.Partition) (uint64, *columns.Column, error) {
	words := in.MainWords()
	// One serial header walk (no payload is touched) positions every
	// partition's word cursor up front; partitions are block-aligned, so a
	// partition start never lands inside a block.
	offsets := make([]int, len(parts))
	w, e := 0, 0
	for i, pt := range parts {
		for ; e < pt.Start; e += formats.BlockLen {
			bw, err := dynBPHeaderWidth(words, w)
			if err != nil {
				return 0, nil, err
			}
			w += 1 + int(bw)*(formats.BlockLen/64)
		}
		offsets[i] = w
	}
	partials := make([]uint64, len(parts))
	err := rt.runParts(parts, func(_, i int, pt formats.Partition) error {
		w := offsets[i]
		var t uint64
		end := min(pt.Start+pt.Count, in.MainElems())
		for e := pt.Start; e < end; e += formats.BlockLen {
			bw, err := dynBPHeaderWidth(words, w)
			if err != nil {
				return err
			}
			w++
			pw := int(bw) * (formats.BlockLen / 64)
			if w+pw > len(words) {
				return fmt.Errorf("ops: %w: dyn BP payload beyond buffer", formats.ErrCorrupt)
			}
			t += bitutil.SumPackedWords(words[w:w+pw], formats.BlockLen, bw)
			w += pw
		}
		// The tail partition also covers the uncompressed remainder.
		if pt.Start+pt.Count > in.MainElems() {
			for _, v := range in.Remainder() {
				t += v
			}
		}
		partials[i] = t
		return nil
	})
	if err != nil {
		return 0, nil, fmt.Errorf("ops: parallel dyn BP sum: %w", err)
	}
	var total uint64
	for _, t := range partials {
		total += t
	}
	return total, columns.FromValues([]uint64{total}), nil
}

// dynBPHeaderWidth reads and validates the block width header at words[w].
func dynBPHeaderWidth(words []uint64, w int) (uint, error) {
	if w >= len(words) {
		return 0, fmt.Errorf("ops: %w: dyn BP header beyond buffer", formats.ErrCorrupt)
	}
	b := uint(words[w])
	if b > 64 {
		return 0, fmt.Errorf("ops: %w: dyn BP width %d", formats.ErrCorrupt, b)
	}
	return b, nil
}
