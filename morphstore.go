// Package morphstore is a from-scratch Go implementation of MorphStore, the
// in-memory columnar analytical query engine with a holistic
// compression-enabled processing model (Damme et al., "MorphStore:
// Analytical Query Engine with a Holistic Compression-Enabled Processing
// Model", arXiv:2004.09350, 2020).
//
// The engine executes operator-at-a-time query plans over columns of
// unsigned 64-bit integers. Its distinguishing property is that every base
// column and every materialized intermediate result can carry its own
// lightweight integer compression format — static bit packing, block-wise
// binary packing (SIMD-BP512), DELTA and FOR cascades, or RLE — chosen
// independently per column, with operators integrating compression at four
// degrees: purely uncompressed processing, on-the-fly de/re-compression,
// specialized operators working directly on compressed data, and on-the-fly
// morphing between formats.
//
// This package is the public facade over the implementation packages:
//
//	internal/columns   column storage (compressed main part + remainder)
//	internal/formats   the compression format corpus
//	internal/morph     format morphing
//	internal/ops       physical query operators
//	internal/core      plans, format configurations, execution, search
//	internal/delta     writable-table delta stores, snapshots, remorph
//	internal/stats     data-characteristics collection
//	internal/costmodel gray-box cost model for format selection
//	internal/ssb       Star Schema Benchmark substrate
//
// # Quick start
//
//	vals := []uint64{3, 1, 4, 1, 5, 9, 2, 6}
//	col, _ := morphstore.Compress(vals, morphstore.DynBP)
//	eng := morphstore.NewEngine(nil, morphstore.WithStyle(morphstore.Vec512))
//	pos, _ := eng.Select(ctx, col, morphstore.CmpGt, 3,
//		morphstore.WithOutput(morphstore.DeltaBP))
//
// Query plans compile once and execute concurrently under a context:
//
//	eng := morphstore.NewEngine(db, morphstore.WithParallelism(8))
//	q, _ := eng.Prepare(plan, morphstore.WithCostBasedFormats())
//	res, _ := q.Execute(ctx)
//
// See engine.go for the engine API and examples/ for complete programs.
package morphstore

import (
	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/core"
	"morphstore/internal/costmodel"
	"morphstore/internal/formats"
	"morphstore/internal/morph"
	"morphstore/internal/ops"
	"morphstore/internal/ssb"
	"morphstore/internal/stats"
	"morphstore/internal/vector"
)

// Column is a sequence of unsigned 64-bit integers materialized in exactly
// one (possibly compressed) format.
type Column = columns.Column

// FormatDesc describes a column's compression format.
type FormatDesc = columns.FormatDesc

// The supported compression formats. StaticBPWidth(b) requests static bit
// packing with an explicit width; StaticBP derives the width from the data.
var (
	// Uncompressed stores one 64-bit word per element.
	Uncompressed = columns.UncomprDesc
	// StaticBP is bit packing with one derived fixed width per column; the
	// only compressed format with random read access.
	StaticBP = columns.StaticBPDesc(0)
	// DynBP is block-wise binary packing over 512-element blocks (the
	// 64-bit SIMD-BP512 analog).
	DynBP = columns.DynBPDesc
	// DeltaBP cascades delta coding with DynBP; it excels on sorted data
	// such as the position lists produced by selections.
	DeltaBP = columns.DeltaBPDesc
	// ForBP cascades frame-of-reference coding with DynBP; it excels on
	// narrow ranges of large values.
	ForBP = columns.ForBPDesc
	// RLE is run-length encoding.
	RLE = columns.RLEDesc
)

// StaticBPWidth requests static bit packing with an explicit width.
func StaticBPWidth(bits uint) FormatDesc { return columns.StaticBPDesc(bits) }

// Formats returns the paper's five formats; AllFormats additionally
// includes the RLE extension.
func Formats() []FormatDesc { return formats.PaperDescs() }

// AllFormats returns every supported format.
func AllFormats() []FormatDesc { return formats.AllDescs() }

// FromValues wraps vals as an uncompressed column without copying.
func FromValues(vals []uint64) *Column { return columns.FromValues(vals) }

// Compress materializes vals as a new column in the requested format.
func Compress(vals []uint64, desc FormatDesc) (*Column, error) {
	return formats.Compress(vals, desc)
}

// Decompress expands a column into a fresh value slice.
func Decompress(col *Column) ([]uint64, error) { return formats.Decompress(col) }

// ConcatCompressed concatenates columns of one format into a single column
// holding their element streams back to back, byte-identical to compressing
// the concatenated streams monolithically — but built from block-granular
// copies of the parts' compressed blocks, with only per-seam fixups (DeltaBP
// first-block rebase, RLE adjacent-run merge, bit-stream shifts for
// misaligned static BP seams). It is the splice primitive behind the
// parallel operators' compressed stitch, exported for partition-at-rest use
// cases (assembling shard results without a decompression round trip).
func ConcatCompressed(desc FormatDesc, parts []*Column) (*Column, error) {
	return formats.ConcatCompressed(desc, parts)
}

// Morph re-represents a column in another format without materializing it
// uncompressed in main memory (direct morphing where available, block-wise
// streaming otherwise).
func Morph(col *Column, desc FormatDesc) (*Column, error) { return morph.Morph(col, desc) }

// Style selects the processing-style specialization of operator kernels.
type Style = vector.Style

// Processing styles: scalar or 8-lane 512-bit vector processing.
const (
	Scalar = vector.Scalar
	Vec512 = vector.Vec512
)

// CmpKind is a comparison operator for selections.
type CmpKind = bitutil.CmpKind

// Comparison operators.
const (
	CmpEq = bitutil.CmpEq
	CmpNe = bitutil.CmpNe
	CmpLt = bitutil.CmpLt
	CmpLe = bitutil.CmpLe
	CmpGt = bitutil.CmpGt
	CmpGe = bitutil.CmpGe
)

// CalcKind is an element-wise arithmetic operator.
type CalcKind = ops.CalcKind

// Arithmetic operators.
const (
	CalcAdd = ops.CalcAdd
	CalcSub = ops.CalcSub
	CalcMul = ops.CalcMul
)

// Select returns the sorted positions of elements matching `element op val`,
// recompressed in the requested output format.
//
// Deprecated: Use Engine.Select(ctx, in, op, val, WithOutput(out), WithStyle(style)).
func Select(in *Column, op CmpKind, val uint64, out FormatDesc, style Style) (*Column, error) {
	return ops.Select(in, op, val, out, style)
}

// SelectBetween returns the sorted positions of elements in [lo, hi].
//
// Deprecated: Use Engine.SelectBetween(ctx, in, lo, hi, WithOutput(out), WithStyle(style)).
func SelectBetween(in *Column, lo, hi uint64, out FormatDesc, style Style) (*Column, error) {
	return ops.SelectBetween(in, lo, hi, out, style)
}

// Project gathers data values at the given positions; the data column must
// support random access (Uncompressed or StaticBP).
//
// Deprecated: Use Engine.Project(ctx, data, pos, WithOutput(out), WithStyle(style)).
func Project(data, pos *Column, out FormatDesc, style Style) (*Column, error) {
	return ops.Project(data, pos, out, style)
}

// Sum aggregates all elements of a column.
//
// Deprecated: Use Engine.Sum(ctx, in, WithStyle(style)).
func Sum(in *Column, style Style) (uint64, error) {
	s, _, err := ops.SumWhole(in, style)
	return s, err
}

// ParSelect is the morsel-parallel form of Select: the input is split into
// at most par contiguous block-aligned partitions processed on worker
// goroutines. The result is byte-identical to Select at every par.
//
// Deprecated: Use Engine.Select with WithParallelism(par).
func ParSelect(in *Column, op CmpKind, val uint64, out FormatDesc, style Style, par int) (*Column, error) {
	return ops.ParSelect(in, op, val, out, style, par)
}

// ParSelectBetween is the morsel-parallel form of SelectBetween.
//
// Deprecated: Use Engine.SelectBetween with WithParallelism(par).
func ParSelectBetween(in *Column, lo, hi uint64, out FormatDesc, style Style, par int) (*Column, error) {
	return ops.ParSelectBetween(in, lo, hi, out, style, par)
}

// ParProject is the morsel-parallel form of Project.
//
// Deprecated: Use Engine.Project with WithParallelism(par).
func ParProject(data, pos *Column, out FormatDesc, style Style, par int) (*Column, error) {
	return ops.ParProject(data, pos, out, style, par)
}

// ParSemiJoin emits probe positions whose key occurs in build, probing the
// shared build-side table from par workers. The table is direct-address
// when the build keys are dense (fewer than 2^32-1 rows and
// hi-lo < max(4n, 2^18)) and hashed otherwise.
//
// Deprecated: Use Engine.SemiJoin with WithParallelism(par).
func ParSemiJoin(probe, build *Column, out FormatDesc, style Style, par int) (*Column, error) {
	return ops.ParSemiJoin(probe, build, out, style, par)
}

// ParSum is the morsel-parallel form of Sum.
//
// Deprecated: Use Engine.Sum with WithParallelism(par).
func ParSum(in *Column, style Style, par int) (uint64, error) {
	s, _, err := ops.ParSum(in, style, par)
	return s, err
}

// JoinN1 equi-joins a probe-side key column against a build-side key column
// with unique values, returning the matching probe positions and, aligned
// with them, the joined build positions.
//
// Deprecated: Use Engine.JoinN1(ctx, probe, build, WithOutputs(outProbe, outBuild), WithStyle(style)).
func JoinN1(probe, build *Column, outProbe, outBuild FormatDesc, style Style) (probePos, buildPos *Column, err error) {
	return ops.JoinN1(probe, build, outProbe, outBuild, style)
}

// ParJoinN1 is the morsel-parallel form of JoinN1: the build-side table is
// built once and probed from par workers; both position outputs are
// byte-identical to JoinN1 at every par. The table is direct-address when
// the build keys are dense (fewer than 2^32-1 rows and
// hi-lo < max(4n, 2^18)) and hashed otherwise.
//
// Deprecated: Use Engine.JoinN1 with WithParallelism(par).
func ParJoinN1(probe, build *Column, outProbe, outBuild FormatDesc, style Style, par int) (probePos, buildPos *Column, err error) {
	return ops.ParJoinN1(probe, build, outProbe, outBuild, style, par)
}

// SumGrouped sums vals per group id, for group ids in [0, nGroups).
//
// Deprecated: Use Engine.SumGrouped(ctx, gids, vals, nGroups, WithStyle(style)).
func SumGrouped(gids, vals *Column, nGroups int, style Style) (*Column, error) {
	return ops.SumGrouped(gids, vals, nGroups, style)
}

// ParSumGrouped is the morsel-parallel form of SumGrouped: workers merge
// per-partition partial group-sum arrays.
//
// Deprecated: Use Engine.SumGrouped with WithParallelism(par).
func ParSumGrouped(gids, vals *Column, nGroups int, style Style, par int) (*Column, error) {
	return ops.ParSumGrouped(gids, vals, nGroups, style, par)
}

// Intersect intersects two sorted position lists.
//
// Deprecated: Use Engine.Intersect(ctx, a, b, WithOutput(out)).
func Intersect(a, b *Column, out FormatDesc) (*Column, error) {
	return ops.IntersectSorted(a, b, out)
}

// ParIntersect is the value-range-parallel form of Intersect: both sorted
// inputs are split at shared value boundaries and the per-range
// intersections are concatenated in range order, byte-identical to
// Intersect at every par.
//
// Deprecated: Use Engine.Intersect with WithParallelism(par).
func ParIntersect(a, b *Column, out FormatDesc, par int) (*Column, error) {
	return ops.ParIntersect(a, b, out, par)
}

// Union merges two sorted position lists without duplicates.
//
// Deprecated: Use Engine.Union(ctx, a, b, WithOutput(out)).
func Union(a, b *Column, out FormatDesc) (*Column, error) {
	return ops.MergeSorted(a, b, out)
}

// ParUnion is the value-range-parallel form of Union.
//
// Deprecated: Use Engine.Union with WithParallelism(par).
func ParUnion(a, b *Column, out FormatDesc, par int) (*Column, error) {
	return ops.ParMerge(a, b, out, par)
}

// GroupFirst assigns a dense group id (in order of first occurrence) to
// every element of keys. It returns the per-row group ids and, per group,
// the position of its first occurrence (the extents column; projecting the
// key column with it yields the per-group key values).
//
// Deprecated: Use Engine.GroupFirst(ctx, keys, WithOutputs(outGids, outExtents), WithStyle(style)).
func GroupFirst(keys *Column, outGids, outExtents FormatDesc, style Style) (gids, extents *Column, err error) {
	return ops.GroupFirst(keys, outGids, outExtents, style)
}

// ParGroupFirst is the morsel-parallel form of GroupFirst: per-worker hash
// group tables merged deterministically into canonical first-occurrence
// group ids, byte-identical to GroupFirst at every par.
//
// Deprecated: Use Engine.GroupFirst with WithParallelism(par).
func ParGroupFirst(keys *Column, outGids, outExtents FormatDesc, style Style, par int) (gids, extents *Column, err error) {
	return ops.ParGroupFirst(keys, outGids, outExtents, style, par)
}

// GroupNext refines an existing grouping with an additional key column: rows
// fall into the same output group iff they had the same previous group id
// and the same new key (iterative multi-column grouping). Outputs follow the
// GroupFirst conventions.
//
// Deprecated: Use Engine.GroupNext(ctx, prevGids, keys, WithOutputs(outGids, outExtents), WithStyle(style)).
func GroupNext(prevGids, keys *Column, outGids, outExtents FormatDesc, style Style) (gids, extents *Column, err error) {
	return ops.GroupNext(prevGids, keys, outGids, outExtents, style)
}

// ParGroupNext is the morsel-parallel form of GroupNext.
//
// Deprecated: Use Engine.GroupNext with WithParallelism(par).
func ParGroupNext(prevGids, keys *Column, outGids, outExtents FormatDesc, style Style, par int) (gids, extents *Column, err error) {
	return ops.ParGroupNext(prevGids, keys, outGids, outExtents, style, par)
}

// Calc combines two equal-length columns element-wise.
//
// Deprecated: Use Engine.Calc(ctx, op, a, b, WithOutput(out), WithStyle(style)).
func Calc(op CalcKind, a, b *Column, out FormatDesc, style Style) (*Column, error) {
	return ops.CalcBinary(op, a, b, out, style)
}

// ParCalc is the morsel-parallel form of Calc: both inputs are split at
// shared block-aligned boundaries and combined in lockstep by par workers.
//
// Deprecated: Use Engine.Calc with WithParallelism(par).
func ParCalc(op CalcKind, a, b *Column, out FormatDesc, style Style, par int) (*Column, error) {
	return ops.ParCalcBinary(op, a, b, out, style, par)
}

// Profile holds the data characteristics driving format selection.
type Profile = stats.Profile

// Analyze collects the data characteristics of a value sequence.
func Analyze(vals []uint64) *Profile { return stats.Collect(vals) }

// EstimateBytes estimates the physical size of data with the given profile
// in the given format, using the gray-box cost model.
func EstimateBytes(p *Profile, desc FormatDesc) (int, error) {
	return costmodel.EstimateBytes(p, desc)
}

// SuggestFormat returns the format with the smallest estimated size among
// the candidates (the cost-based selection strategy of the paper's §5).
func SuggestFormat(p *Profile, candidates []FormatDesc) (FormatDesc, error) {
	return costmodel.ChooseBySize(p, candidates)
}

// Plan is an executable operator-at-a-time query plan.
type Plan = core.Plan

// PlanBuilder assembles plans; see core.Builder for the operator vocabulary.
type PlanBuilder = core.Builder

// ColRef names one intermediate column of a plan under construction.
type ColRef = core.ColRef

// NewPlanBuilder returns an empty plan builder.
func NewPlanBuilder() *PlanBuilder { return core.NewBuilder() }

// DB is a database of base tables.
type DB = core.DB

// NewDB returns an empty database.
func NewDB() *DB { return core.NewDB() }

// Config assigns formats to a plan's intermediates and selects the
// processing style and the parallelism degree (Config.Parallelism: 0 =
// GOMAXPROCS, 1 = sequential; results are byte-identical at every level).
type Config = core.Config

// Result is a plan execution outcome with footprint/runtime accounting.
type Result = core.Result

// Execute runs a plan against a database under the given configuration.
//
// Deprecated: Use NewEngine(db), Engine.Prepare(p, WithConfig(cfg)), and Prepared.Execute(ctx): the plan compiles once, executions accept a context, and concurrent queries share one worker budget.
func Execute(p *Plan, db *DB, cfg *Config) (*Result, error) {
	return core.Execute(p, db, cfg)
}

// UncompressedConfig processes everything uncompressed.
func UncompressedConfig(style Style) *Config { return core.UncompressedConfig(style) }

// UniformConfig assigns one format to every intermediate of the plan.
func UniformConfig(p *Plan, desc FormatDesc, style Style) *Config {
	return core.UniformConfig(p, desc, style)
}

// Assignment is a complete format combination (base columns and
// intermediates) for one plan.
type Assignment = core.Assignment

// CostBasedAssignment picks a format for every column of the plan with the
// gray-box cost model (footprint objective).
func CostBasedAssignment(p *Plan, db *DB) (*Assignment, error) {
	return core.CostBasedAssignment(p, db)
}

// FootprintSearch exhaustively determines the best and worst format
// combinations with respect to the memory footprint.
func FootprintSearch(p *Plan, db *DB) (best, worst *Assignment, err error) {
	return core.FootprintSearch(p, db)
}

// SSBData is a generated Star Schema Benchmark instance.
type SSBData = ssb.Data

// SSBQuery identifies one of the 13 SSB queries ("1.1" ... "4.3").
type SSBQuery = ssb.Query

// SSBQueries lists the 13 SSB queries in benchmark order.
var SSBQueries = ssb.Queries

// GenerateSSB deterministically generates a dictionary-encoded SSB instance
// at the given scale factor (SF 1 = 6 M lineorder rows).
func GenerateSSB(sf float64, seed int64) (*SSBData, error) { return ssb.Generate(sf, seed) }

// BuildSSBPlan constructs the operator-at-a-time plan of an SSB query.
func BuildSSBPlan(q SSBQuery, d *SSBData) (*Plan, error) { return ssb.BuildPlan(q, d.Dicts) }

// SSBRow is one canonicalized SSB result row.
type SSBRow = ssb.Row

// SSBReference computes an SSB query's ground-truth result row-wise.
func SSBReference(q SSBQuery, d *SSBData) ([]SSBRow, error) { return ssb.Reference(q, d) }

// ExtractSSBResult canonicalizes an engine result for comparison.
func ExtractSSBResult(q SSBQuery, res *Result) ([]SSBRow, error) {
	return ssb.ExtractResult(q, res)
}
