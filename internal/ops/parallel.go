package ops

import (
	"fmt"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/vector"
)

// This file implements morsel-parallel drivers around the streaming operator
// kernels: the input column is split into contiguous, block-aligned morsels
// (formats.SplitColumnMorsels), worker goroutines claim morsels dynamically
// from an atomic chunk-index work queue (so skewed selectivity cannot strand
// a worker on one expensive morsel while others idle), the existing
// format-oblivious kernels run per morsel, and the per-morsel outputs are
// stitched back together in morsel order through the parallel compressed
// stitch (StitchCompressed): block-aligned sections of the output stream are
// recompressed by the workers and concatenated block-granularly.
//
// Because morsels are contiguous and processed with their global element
// offset as the position base, position lists stay globally sorted, and the
// stitched column holds exactly the same element stream as the sequential
// operator — StitchCompressed guarantees the bytes match the sequential
// writer's, so the result is byte-identical to the sequential result for
// every output format at every parallelism degree. Columns whose format
// cannot be sliced (RLE), columns too small to split, and par <= 1 all fall
// back to the sequential operator.
//
// Every driver is a Runtime method: the runtime threads the cancellation
// context and the engine budget lease through the morsel loop. The engine
// builds its runtimes with RT; FixedRT(par) gives a standalone runtime with a
// fixed worker count (benchmarks and tests).

// workerCount bounds the worker-goroutine count for a task list.
func workerCount(par, tasks int) int {
	w := min(par, tasks)
	if w < 1 {
		w = 1
	}
	return w
}

// streamSection feeds the elements of one column partition through process in
// cache-resident chunks; base carries the global element offset so selective
// kernels emit globally correct positions.
func streamSection(col *columns.Column, pt formats.Partition, process func(vals []uint64, base uint64) error) error {
	r, err := formats.NewSectionReader(col, pt.Start, pt.Count)
	if err != nil {
		return err
	}
	if vv, ok := r.(formats.ValueViewer); ok {
		if vals, viewable := vv.View(); viewable {
			return process(vals, uint64(pt.Start))
		}
	}
	buf := make([]uint64, blockBuf)
	base := uint64(pt.Start)
	for {
		k, err := r.Read(buf)
		if err != nil {
			return err
		}
		if k == 0 {
			return nil
		}
		if err := process(buf[:k], base); err != nil {
			return err
		}
		base += uint64(k)
	}
}

// streamSections feeds one partition of two equally long columns through
// process in lockstep chunks (both sections cover the same element range
// [pt.Start, pt.Start+pt.Count), so chunk k of one column pairs with chunk k
// of the other); base carries the global element offset of each chunk.
func streamSections(a, b *columns.Column, pt formats.Partition, process func(va, vb []uint64, base uint64) error) error {
	ra, err := formats.NewSectionReader(a, pt.Start, pt.Count)
	if err != nil {
		return err
	}
	rb, err := formats.NewSectionReader(b, pt.Start, pt.Count)
	if err != nil {
		return err
	}
	return streamPaired(ra, rb, uint64(pt.Start), process)
}

// SelectAuto is the morsel-parallel form of the sequential SelectAuto (and,
// with specialized=false, of Select): the input is split into work-queue
// morsels for up to rt.Par() workers. When the input splits, it parallelizes
// with the specialized per-partition kernel if one covers the input (static
// BP SWAR select on packed word ranges) and the generic morsel kernels
// otherwise; unsplittable inputs dispatch to the sequential auto operator
// (which may itself pick a specialized kernel).
func (rt Runtime) SelectAuto(in *columns.Column, op bitutil.CmpKind, val uint64, out columns.FormatDesc, style vector.Style, specialized bool) (*columns.Column, error) {
	if err := checkCols(in); err != nil {
		return nil, err
	}
	if err := rt.Err(); err != nil {
		return nil, err
	}
	parts := formats.SplitColumnMorsels(in, rt.Par())
	if parts == nil {
		rt.seqFallback()
		return SelectAuto(in, op, val, out, style, specialized)
	}
	if specialized && parSwarOK(in) {
		return rt.parSelectSwar(in, parts, bitutil.NewSwarCmp(uint(in.Desc().Bits), op, val), out, "swar select")
	}
	return rt.parSelectWith(in, parts, out, selectKernel(op, val, style), "select")
}

// parSelectWith runs kern over every morsel of in, each worker emitting
// straight into its morsel's position list, and stitches the lists in morsel
// order.
func (rt Runtime) parSelectWith(in *columns.Column, parts []formats.Partition, out columns.FormatDesc, kern posKernel, what string) (*columns.Column, error) {
	results := make([][]uint64, len(parts))
	err := rt.runParts(parts, func(_, i int, pt formats.Partition) error {
		res := make([]uint64, 0, pt.Count/8+16)
		err := streamSection(in, pt, func(vals []uint64, base uint64) error {
			res = appendSelected(res, vals, base, kern)
			return nil
		})
		results[i] = res
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("ops: parallel %s: %w", what, err)
	}
	return rt.stitchCompressed(positionDesc(out, in.N()), in.N(), results)
}

// SelectBetweenAuto is the morsel-parallel form of the sequential
// SelectBetweenAuto (and, with specialized=false, of SelectBetween),
// honouring the specialized SWAR range kernel inside each partition when the
// input format admits it.
func (rt Runtime) SelectBetweenAuto(in *columns.Column, lo, hi uint64, out columns.FormatDesc, style vector.Style, specialized bool) (*columns.Column, error) {
	if err := checkCols(in); err != nil {
		return nil, err
	}
	if err := rt.Err(); err != nil {
		return nil, err
	}
	parts := formats.SplitColumnMorsels(in, rt.Par())
	if parts == nil {
		rt.seqFallback()
		return SelectBetweenAuto(in, lo, hi, out, style, specialized)
	}
	if specialized && parSwarOK(in) {
		return rt.parSelectSwar(in, parts, bitutil.NewSwarBetween(uint(in.Desc().Bits), lo, hi), out, "swar select between")
	}
	return rt.parSelectWith(in, parts, out, betweenKernel(lo, hi, style), "select between")
}

// Project is the morsel-parallel form of the sequential Project: the position
// list is partitioned and every worker gathers into its own disjoint range of
// one shared destination buffer (output offsets are known a priori because
// project emits exactly one value per position), which the parallel
// compressed stitch then recompresses section-wise.
func (rt Runtime) Project(data, pos *columns.Column, out columns.FormatDesc, style vector.Style) (*columns.Column, error) {
	if err := checkCols(data, pos); err != nil {
		return nil, err
	}
	if err := rt.Err(); err != nil {
		return nil, err
	}
	parts := formats.SplitColumnMorsels(pos, rt.Par())
	if parts == nil {
		rt.seqFallback()
		return Project(data, pos, out, style)
	}
	dst := make([]uint64, pos.N())
	vals, direct := data.Values()
	useVecGather := direct && style == vector.Vec512
	// Each worker gets its own accessor, reused across the morsels it
	// claims: the static BP accessor caches the most recently decoded group
	// and must not be shared between goroutines. The vec gather fast path
	// reads the value slice directly instead.
	ras := make([]formats.RandomAccessor, rt.workers(len(parts)))
	err := rt.runParts(parts, func(w, _ int, pt formats.Partition) error {
		if !useVecGather && ras[w] == nil {
			var err error
			ras[w], err = formats.RandomAccess(data)
			if err != nil {
				return err
			}
		}
		off := pt.Start
		return streamSection(pos, pt, func(ps []uint64, _ uint64) error {
			for len(ps) > 0 {
				chunk := ps
				if len(chunk) > blockBuf {
					chunk = chunk[:blockBuf]
				}
				if err := checkPositions(chunk, data.N()); err != nil {
					return err
				}
				if useVecGather {
					gatherKernelVec(vals, chunk, dst[off:])
				} else {
					ras[w].Gather(dst[off:off+len(chunk)], chunk)
				}
				off += len(chunk)
				ps = ps[len(chunk):]
			}
			return nil
		})
	})
	if err != nil {
		return nil, fmt.Errorf("ops: parallel project: %w", err)
	}
	return rt.stitchCompressed(out, pos.N(), [][]uint64{dst})
}

// SemiJoin is the morsel-parallel form of the sequential SemiJoin: the
// build-side joinTable is constructed once and probed read-only by all
// workers over partitions of the probe column.
func (rt Runtime) SemiJoin(probe, build *columns.Column, out columns.FormatDesc, style vector.Style) (*columns.Column, error) {
	if err := checkCols(probe, build); err != nil {
		return nil, err
	}
	if err := rt.Err(); err != nil {
		return nil, err
	}
	parts := formats.SplitColumnMorsels(probe, rt.Par())
	if parts == nil {
		rt.seqFallback()
		return SemiJoin(probe, build, out, style)
	}
	ht, err := buildJoinTable(build, "semijoin")
	if err != nil {
		return nil, err
	}
	results := make([][]uint64, len(parts))
	err = rt.runParts(parts, func(_, i int, pt formats.Partition) error {
		local := make([]uint64, 0, pt.Count/8+16)
		if err := streamSection(probe, pt, func(vals []uint64, base uint64) error {
			local, _ = ht.appendMatches(local, nil, vals, base)
			return nil
		}); err != nil {
			return err
		}
		results[i] = local
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ops: parallel semijoin: %w", err)
	}
	return rt.stitchCompressed(positionDesc(out, probe.N()), probe.N(), results)
}

// SumAuto is the morsel-parallel form of the sequential SumAuto (and, with
// specialized=false, of SumWhole): per-partition partial sums combine by
// modular addition, which is order-independent, so the total is identical to
// the sequential result. When specialized operators are enabled, each
// partition sums directly on the compressed representation (SWAR over static
// BP word ranges, per-block accumulation over DynBP block ranges); the
// generic morsel kernels handle the rest.
func (rt Runtime) SumAuto(in *columns.Column, style vector.Style, specialized bool) (uint64, *columns.Column, error) {
	if err := checkCols(in); err != nil {
		return 0, nil, err
	}
	if err := rt.Err(); err != nil {
		return 0, nil, err
	}
	parts := formats.SplitColumnMorsels(in, rt.Par())
	if parts == nil {
		rt.seqFallback()
		return SumAuto(in, style, specialized)
	}
	if specialized {
		switch in.Desc().Kind {
		case columns.StaticBP:
			if in.Desc().Bits > 0 {
				return rt.parSumStaticBPDirect(in, parts)
			}
		case columns.DynBP:
			return rt.parSumDynBPDirect(in, parts)
		}
	}
	return rt.parSum(in, parts, style)
}

// JoinN1 is the morsel-parallel form of the sequential JoinN1: the build-side
// joinTable (key -> build position) is constructed once and probed read-only
// by all workers over partitions of the probe column. Each worker stages its
// two aligned position outputs (probe position, joined build position) in
// local buffers; both are stitched in partition order, so the dual outputs
// stay aligned row for row and byte-identical to the sequential join.
func (rt Runtime) JoinN1(probeKeys, buildKeys *columns.Column, outProbe, outBuild columns.FormatDesc, style vector.Style) (probePos, buildPos *columns.Column, err error) {
	if err := checkCols(probeKeys, buildKeys); err != nil {
		return nil, nil, err
	}
	if err := rt.Err(); err != nil {
		return nil, nil, err
	}
	parts := formats.SplitColumnMorsels(probeKeys, rt.Par())
	if parts == nil {
		rt.seqFallback()
		return JoinN1(probeKeys, buildKeys, outProbe, outBuild, style)
	}
	ht, err := buildJoinTable(buildKeys, "join")
	if err != nil {
		return nil, nil, err
	}
	resP := make([][]uint64, len(parts))
	resB := make([][]uint64, len(parts))
	err = rt.runParts(parts, func(_, i int, pt formats.Partition) error {
		localP := make([]uint64, 0, pt.Count/8+16)
		localB := make([]uint64, 0, pt.Count/8+16)
		if err := streamSection(probeKeys, pt, func(vals []uint64, base uint64) error {
			localP, localB = ht.appendMatches(localP, localB, vals, base)
			return nil
		}); err != nil {
			return err
		}
		resP[i], resB[i] = localP, localB
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("ops: parallel join: %w", err)
	}
	probePos, err = rt.stitchCompressed(positionDesc(outProbe, probeKeys.N()), probeKeys.N(), resP)
	if err != nil {
		return nil, nil, err
	}
	buildPos, err = rt.stitchCompressed(positionDesc(outBuild, buildKeys.N()), probeKeys.N(), resB)
	return probePos, buildPos, err
}

// CalcBinary is the morsel-parallel form of the sequential CalcBinary: both
// inputs are split at one set of shared block-aligned boundaries and streamed
// in lockstep per partition. Calc emits exactly one value per element, so
// every worker writes into its own disjoint range of one shared destination
// buffer, which the parallel compressed stitch recompresses section-wise.
func (rt Runtime) CalcBinary(op CalcKind, a, b *columns.Column, out columns.FormatDesc, style vector.Style) (*columns.Column, error) {
	if err := checkCols(a, b); err != nil {
		return nil, err
	}
	if err := rt.Err(); err != nil {
		return nil, err
	}
	if a.N() != b.N() {
		return nil, fmt.Errorf("ops: calc: inputs have %d and %d elements", a.N(), b.N())
	}
	parts := formats.SplitColumnsAlignedMorsels(a, b, rt.Par())
	if parts == nil {
		rt.seqFallback()
		return CalcBinary(op, a, b, out, style)
	}
	dst := make([]uint64, a.N())
	err := rt.runParts(parts, func(_, _ int, pt formats.Partition) error {
		return streamSections(a, b, pt, func(va, vb []uint64, base uint64) error {
			if style == vector.Vec512 {
				calcKernelVec(op, va, vb, dst[base:])
			} else {
				calcKernelScalar(op, va, vb, dst[base:])
			}
			return nil
		})
	})
	if err != nil {
		return nil, fmt.Errorf("ops: parallel calc: %w", err)
	}
	return rt.stitchCompressed(out, a.N(), [][]uint64{dst})
}

// SumGrouped is the morsel-parallel form of the sequential SumGrouped: group
// ids and values are split at shared boundaries, every worker accumulates the
// morsels it claims into its own partial group-sum array of length nGroups,
// and one reducer merges the partials. Per-group addition modulo 2^64 is
// commutative and associative, so the merged sums equal the sequential ones
// exactly no matter which worker claimed which morsel, and the result column
// (always uncompressed) is byte-identical. Groupings with more groups than
// elements per worker fall back to the sequential operator (the per-worker
// arrays and the merge would dominate).
func (rt Runtime) SumGrouped(gids, vals *columns.Column, nGroups int, style vector.Style) (*columns.Column, error) {
	if err := checkCols(gids, vals); err != nil {
		return nil, err
	}
	if err := rt.Err(); err != nil {
		return nil, err
	}
	if gids.N() != vals.N() {
		return nil, fmt.Errorf("ops: grouped sum: gids has %d elements, vals %d", gids.N(), vals.N())
	}
	if nGroups < 0 {
		return nil, fmt.Errorf("ops: grouped sum: negative group count %d", nGroups)
	}
	parts := formats.SplitColumnsAlignedMorsels(gids, vals, rt.Par())
	// Each worker zeroes and the reducer re-adds an nGroups-length array;
	// when groups are numerous relative to a worker's share of the elements
	// that overhead outweighs the parallelized scan, so high-cardinality
	// groupings run sequentially.
	workers := rt.workers(len(parts))
	if parts == nil || nGroups > gids.N()/workers {
		rt.seqFallback()
		return SumGrouped(gids, vals, nGroups, style)
	}
	partials := make([][]uint64, workers)
	err := rt.runParts(parts, func(w, _ int, pt formats.Partition) error {
		if partials[w] == nil {
			partials[w] = make([]uint64, nGroups)
		}
		return streamSections(gids, vals, pt, func(gs, vs []uint64, _ uint64) error {
			return sumGroupedChunk(partials[w], gs, vs, nGroups)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("ops: parallel grouped sum: %w", err)
	}
	sums := make([]uint64, nGroups)
	for _, local := range partials {
		for g, s := range local {
			sums[g] += s
		}
	}
	return columns.FromValues(sums), nil
}

func (rt Runtime) parSum(in *columns.Column, parts []formats.Partition, style vector.Style) (uint64, *columns.Column, error) {
	partials := make([]uint64, len(parts))
	err := rt.runParts(parts, func(_, i int, pt formats.Partition) error {
		var t uint64
		if err := streamSection(in, pt, func(vals []uint64, _ uint64) error {
			if style == vector.Vec512 {
				t += sumKernelVec(vals)
			} else {
				for _, v := range vals {
					t += v
				}
			}
			return nil
		}); err != nil {
			return err
		}
		partials[i] = t
		return nil
	})
	if err != nil {
		return 0, nil, fmt.Errorf("ops: parallel sum: %w", err)
	}
	var total uint64
	for _, t := range partials {
		total += t
	}
	return total, columns.FromValues([]uint64{total}), nil
}
