package ops

import (
	"fmt"

	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/qerr"
	"morphstore/internal/vector"
)

// SelectIn evaluates the set-membership predicate `element IN set` over the
// input column and returns the sorted list of matching positions as a column
// in the requested output format, like Select. The set must be sorted
// strictly ascending (the string layer hands over translated dictionary IDs
// that way); membership is a branch-free galloping binary search for large
// sets and a linear probe for small ones. An empty set is valid and yields
// an empty position list through the same writer machinery, so the result
// bytes stay identical across kernels for a given output descriptor.
func SelectIn(in *columns.Column, set []uint64, out columns.FormatDesc, style vector.Style) (*columns.Column, error) {
	if err := checkCols(in); err != nil {
		return nil, err
	}
	if err := checkSet(set); err != nil {
		return nil, err
	}
	w, err := formats.NewWriter(positionDesc(out, in.N()), in.N())
	if err != nil {
		return nil, err
	}
	r, err := formats.NewReader(in)
	if err != nil {
		return nil, err
	}
	stage := make([]uint64, blockBuf)

	// Purely-uncompressed fast path: direct access to the whole column.
	if vv, ok := r.(formats.ValueViewer); ok {
		if vals, viewable := vv.View(); viewable {
			if err := selectInOver(vals, 0, set, style, stage, w); err != nil {
				return nil, err
			}
			return w.Close()
		}
	}

	buf := make([]uint64, blockBuf)
	base := uint64(0)
	for {
		k, err := r.Read(buf)
		if err != nil {
			return nil, fmt.Errorf("ops: select in: %w", err)
		}
		if k == 0 {
			break
		}
		if err := selectInOver(buf[:k], base, set, style, stage, w); err != nil {
			return nil, err
		}
		base += uint64(k)
	}
	return w.Close()
}

// checkSet validates the membership set's sort contract.
func checkSet(set []uint64) error {
	for i := 1; i < len(set); i++ {
		if set[i] <= set[i-1] {
			return qerr.Tag(fmt.Errorf("ops: select in: set not strictly ascending at index %d", i), qerr.ErrInvalidSchema)
		}
	}
	return nil
}

// selectInOver runs the membership kernel over one uncompressed block,
// staging matching positions and writing them out in blockBuf-sized batches.
// The kernel is scalar for every style: membership has no vector form here,
// and position output stays byte-identical regardless.
func selectInOver(vals []uint64, base uint64, set []uint64, _ vector.Style, stage []uint64, w formats.Writer) error {
	for off := 0; off < len(vals); off += blockBuf {
		end := off + blockBuf
		if end > len(vals) {
			end = len(vals)
		}
		k := selectInKernel(vals[off:end], base+uint64(off), set, stage)
		if err := w.Write(stage[:k]); err != nil {
			return err
		}
	}
	return nil
}

// linearSetMax is the set size below which a linear probe beats the binary
// search's branch mispredictions.
const linearSetMax = 8

// selectInKernel emits the positions of vals whose element is in the sorted
// set.
func selectInKernel(vals []uint64, base uint64, set []uint64, stage []uint64) int {
	k := 0
	if len(set) == 0 {
		return 0
	}
	if len(set) <= linearSetMax {
		for i, v := range vals {
			for _, s := range set {
				if v == s {
					stage[k] = base + uint64(i)
					k++
					break
				}
				if v < s {
					break
				}
			}
		}
		return k
	}
	lo0, hi0 := set[0], set[len(set)-1]
	for i, v := range vals {
		if v < lo0 || v > hi0 {
			continue
		}
		lo, hi := 0, len(set)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if set[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(set) && set[lo] == v {
			stage[k] = base + uint64(i)
			k++
		}
	}
	return k
}

// SelectIn is the morsel-parallel form of the sequential SelectIn, splitting
// the input into work-queue morsels for up to rt.Par() workers.
func (rt Runtime) SelectIn(in *columns.Column, set []uint64, out columns.FormatDesc, style vector.Style) (*columns.Column, error) {
	if err := checkCols(in); err != nil {
		return nil, err
	}
	if err := checkSet(set); err != nil {
		return nil, err
	}
	if err := rt.Err(); err != nil {
		return nil, err
	}
	parts := formats.SplitColumnMorsels(in, rt.Par())
	if parts == nil {
		rt.seqFallback()
		return SelectIn(in, set, out, style)
	}
	return rt.parSelectIn(in, parts, set, out, style)
}

func (rt Runtime) parSelectIn(in *columns.Column, parts []formats.Partition, set []uint64, out columns.FormatDesc, style vector.Style) (*columns.Column, error) {
	results := make([][]uint64, len(parts))
	stages := make([][]uint64, rt.workers(len(parts)))
	err := rt.runParts(parts, func(w, i int, pt formats.Partition) error {
		if stages[w] == nil {
			stages[w] = make([]uint64, blockBuf)
		}
		sink := &appendSink{vals: make([]uint64, 0, pt.Count/8+16)}
		if err := streamSection(in, pt, func(vals []uint64, base uint64) error {
			return selectInOver(vals, base, set, style, stages[w], sink)
		}); err != nil {
			return err
		}
		results[i] = sink.vals
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ops: parallel select in: %w", err)
	}
	return rt.stitchCompressed(positionDesc(out, in.N()), in.N(), results)
}
