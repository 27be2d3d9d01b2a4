package ops

import (
	"fmt"
	"slices"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/vector"
)

// posKernel is the vector-register-layer contract of the selective
// operators: it writes to stage the positions base+i of the elements of vals
// that satisfy its predicate, in order, and returns their count. stage must
// hold len(vals) entries: the scalar kernels are branch-free, writing the
// candidate position of every element and advancing the output cursor only
// on a match (safe because the cursor never passes the input index), so
// their cost does not depend on how predictable the predicate is.
type posKernel func(vals []uint64, base uint64, stage []uint64) int

// selectWith is the column and buffer layer shared by the selective
// operators (Fig. 4): the input is decompressed block-wise into a
// cache-resident buffer (or viewed directly when uncompressed), kern emits
// the qualifying positions, and the output writer recompresses them
// block-wise.
func selectWith(in *columns.Column, out columns.FormatDesc, kern posKernel, what string) (*columns.Column, error) {
	w, err := formats.NewWriter(positionDesc(out, in.N()), in.N())
	if err != nil {
		return nil, err
	}
	r, err := formats.NewReader(in)
	if err != nil {
		return nil, err
	}
	stage := make([]uint64, blockBuf)
	emit := func(vals []uint64, base uint64) error {
		for off := 0; off < len(vals); off += blockBuf {
			chunk := vals[off:min(off+blockBuf, len(vals))]
			k := kern(chunk, base+uint64(off), stage)
			if err := w.Write(stage[:k]); err != nil {
				return err
			}
		}
		return nil
	}

	// Purely-uncompressed fast path: direct access to the whole column.
	if vv, ok := r.(formats.ValueViewer); ok {
		if vals, viewable := vv.View(); viewable {
			if err := emit(vals, 0); err != nil {
				return nil, err
			}
			return w.Close()
		}
	}

	buf := make([]uint64, blockBuf)
	for base := uint64(0); ; {
		k, err := r.Read(buf)
		if err != nil {
			return nil, fmt.Errorf("ops: %s: %w", what, err)
		}
		if k == 0 {
			return w.Close()
		}
		if err := emit(buf[:k], base); err != nil {
			return nil, err
		}
		base += uint64(k)
	}
}

// appendSelected runs kern over vals in emitChunk-element chunks and emits
// the positions straight into dst, growing its spare capacity to each
// chunk's length as the kernel contract requires.
func appendSelected(dst, vals []uint64, base uint64, kern posKernel) []uint64 {
	for off := 0; off < len(vals); off += emitChunk {
		chunk := vals[off:min(off+emitChunk, len(vals))]
		dst = slices.Grow(dst, len(chunk))
		k := kern(chunk, base+uint64(off), dst[len(dst):len(dst)+len(chunk)])
		dst = dst[:len(dst)+k]
	}
	return dst
}

// emitChunk is the chunk length of the kernels that emit straight into a
// growing result list. A chunk's worth of spare capacity must exist before
// each kernel call, so a short chunk keeps that slack, and the list's growth
// beyond its final length, small.
const emitChunk = 256

// b2i converts a predicate outcome into a cursor increment without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Select evaluates the predicate `element <op> val` over the input column and
// returns the sorted list of matching positions as a column in the requested
// output format. It is the on-the-fly de/re-compression operator of Fig. 4.
func Select(in *columns.Column, op bitutil.CmpKind, val uint64, out columns.FormatDesc, style vector.Style) (*columns.Column, error) {
	if err := checkCols(in); err != nil {
		return nil, err
	}
	return selectWith(in, out, selectKernel(op, val, style), "select")
}

// selectKernel returns the comparison kernel for the processing style.
func selectKernel(op bitutil.CmpKind, val uint64, style vector.Style) posKernel {
	if style == vector.Vec512 {
		return func(vals []uint64, base uint64, stage []uint64) int {
			return selectKernelVec(vals, base, op, val, stage)
		}
	}
	return func(vals []uint64, base uint64, stage []uint64) int {
		return selectKernelScalar(vals, base, op, val, stage)
	}
}

// selectKernelScalar is the scalar specialization of the select core.
func selectKernelScalar(vals []uint64, base uint64, op bitutil.CmpKind, val uint64, stage []uint64) int {
	stage = stage[:len(vals)]
	k := 0
	switch op {
	case bitutil.CmpEq:
		for i, v := range vals {
			stage[k] = base + uint64(i)
			k += b2i(v == val)
		}
	case bitutil.CmpNe:
		for i, v := range vals {
			stage[k] = base + uint64(i)
			k += b2i(v != val)
		}
	case bitutil.CmpLt:
		for i, v := range vals {
			stage[k] = base + uint64(i)
			k += b2i(v < val)
		}
	case bitutil.CmpLe:
		for i, v := range vals {
			stage[k] = base + uint64(i)
			k += b2i(v <= val)
		}
	case bitutil.CmpGt:
		for i, v := range vals {
			stage[k] = base + uint64(i)
			k += b2i(v > val)
		}
	case bitutil.CmpGe:
		for i, v := range vals {
			stage[k] = base + uint64(i)
			k += b2i(v >= val)
		}
	}
	return k
}

// vecCmp applies the comparison to two registers, producing a lane mask.
func vecCmp(a, b vector.Vec, op bitutil.CmpKind) vector.Mask {
	switch op {
	case bitutil.CmpEq:
		return vector.CmpEq(a, b)
	case bitutil.CmpNe:
		return vector.CmpNe(a, b)
	case bitutil.CmpLt:
		return vector.CmpLt(a, b)
	case bitutil.CmpLe:
		return vector.CmpLe(a, b)
	case bitutil.CmpGt:
		return vector.CmpGt(a, b)
	case bitutil.CmpGe:
		return vector.CmpGe(a, b)
	default:
		return 0
	}
}

// selectKernelVec is the Vec512 specialization: compare eight lanes at a
// time and compress-store the qualifying positions.
func selectKernelVec(vals []uint64, base uint64, op bitutil.CmpKind, val uint64, stage []uint64) int {
	bcast := vector.Set1(val)
	k := 0
	i := 0
	for ; i+vector.Lanes <= len(vals); i += vector.Lanes {
		v := vector.Load(vals[i:])
		m := vecCmp(v, bcast, op)
		if m != 0 {
			k += vector.CompressStore(stage[k:], m, vector.SeqFrom(base+uint64(i)))
		}
	}
	for ; i < len(vals); i++ {
		if op.Eval(vals[i], val) {
			stage[k] = base + uint64(i)
			k++
		}
	}
	return k
}

// SelectBetween evaluates the conjunctive range predicate
// lo <= element <= hi, returning matching positions like Select. An empty
// range (lo > hi) matches nothing.
func SelectBetween(in *columns.Column, lo, hi uint64, out columns.FormatDesc, style vector.Style) (*columns.Column, error) {
	if err := checkCols(in); err != nil {
		return nil, err
	}
	return selectWith(in, out, betweenKernel(lo, hi, style), "select between")
}

// betweenKernel returns the range kernel for the processing style.
func betweenKernel(lo, hi uint64, style vector.Style) posKernel {
	switch {
	case lo > hi:
		// The kernels' single unsigned comparison v-lo <= hi-lo would wrap.
		return func([]uint64, uint64, []uint64) int { return 0 }
	case style == vector.Vec512:
		return func(vals []uint64, base uint64, stage []uint64) int {
			return betweenKernelVec(vals, base, lo, hi, stage)
		}
	default:
		return func(vals []uint64, base uint64, stage []uint64) int {
			return betweenKernelScalar(vals, base, lo, hi, stage)
		}
	}
}

func betweenKernelScalar(vals []uint64, base uint64, lo, hi uint64, stage []uint64) int {
	stage = stage[:len(vals)]
	k := 0
	// v-lo <= hi-lo is a single unsigned comparison for lo <= v <= hi.
	span := hi - lo
	for i, v := range vals {
		stage[k] = base + uint64(i)
		k += b2i(v-lo <= span)
	}
	return k
}

func betweenKernelVec(vals []uint64, base uint64, lo, hi uint64, stage []uint64) int {
	vlo := vector.Set1(lo)
	vspan := vector.Set1(hi - lo)
	k := 0
	i := 0
	for ; i+vector.Lanes <= len(vals); i += vector.Lanes {
		v := vector.Load(vals[i:])
		m := vector.CmpLe(vector.Sub(v, vlo), vspan)
		if m != 0 {
			k += vector.CompressStore(stage[k:], m, vector.SeqFrom(base+uint64(i)))
		}
	}
	span := hi - lo
	for ; i < len(vals); i++ {
		if vals[i]-lo <= span {
			stage[k] = base + uint64(i)
			k++
		}
	}
	return k
}
