package ops

import (
	"errors"
	"math/rand"
	"testing"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/vector"
)

// refBetween is the row-wise reference for the range predicate.
func refBetween(vals []uint64, lo, hi uint64) []uint64 {
	out := []uint64{}
	for i, v := range vals {
		if lo <= v && v <= hi {
			out = append(out, uint64(i))
		}
	}
	return out
}

// uniformVals returns n values drawn uniformly from [0, mod).
func uniformVals(n int, mod uint64, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(rng.Int63n(int64(mod)))
	}
	return vals
}

// randomPositions keeps each position of [0, n) with probability pct/100.
func randomPositions(n, pct int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	out := []uint64{}
	for i := 0; i < n; i++ {
		if rng.Intn(100) < pct {
			out = append(out, uint64(i))
		}
	}
	return out
}

// TestSelectBetweenDirectAllZeroColumnFormat pins the all-zero static BP
// column (width 0) under a range that excludes zero: every path must build
// its (empty) output with the position width derived from the input length,
// so format, length and words agree across specialized on/off and
// parallelism.
func TestSelectBetweenDirectAllZeroColumnFormat(t *testing.T) {
	in := mkCol(t, make([]uint64, 100000), columns.StaticBPDesc(0))
	if in.Desc().Bits != 0 {
		t.Fatalf("all-zero column should pack at width 0, got %d", in.Desc().Bits)
	}
	out := columns.StaticBPDesc(0)
	for _, r := range [][2]uint64{{5, 9}, {0, 9}, {1, 1}} {
		want, err := SelectBetween(in, r[0], r[1], out, vector.Scalar)
		if err != nil {
			t.Fatal(err)
		}
		if want.Desc() != columns.StaticBPDesc(17) {
			t.Fatalf("[%d,%d]: generic output %v, want static_bp(17)", r[0], r[1], want.Desc())
		}
		for _, specialized := range []bool{false, true} {
			for _, par := range []int{1, 4} {
				got, err := FixedRT(par).SelectBetweenAuto(in, r[0], r[1], out, vector.Scalar, specialized)
				if err != nil {
					t.Fatal(err)
				}
				assertSameColumn(t, "all-zero between", want, got)
			}
		}
		got, err := SelectBetweenStaticBPDirect(in, r[0], r[1], out)
		if err != nil {
			t.Fatal(err)
		}
		assertSameColumn(t, "all-zero direct between", want, got)
	}
}

// TestSwarSelectKernelPartialTails runs the SWAR section kernel over every
// SWAR width at lengths that end inside a packed word, at chunk and word
// boundaries, and from non-zero 64-aligned starts, against the row-wise
// reference.
func TestSwarSelectKernelPartialTails(t *testing.T) {
	for _, b := range []uint{1, 2, 4, 8, 16, 32} {
		per := int(64 / b)
		maxv := bitutil.Mask(b)
		for _, n := range []int{1, per - 1, per + 1, 64 + 3, blockBuf + per + 1, 3*blockBuf + 5} {
			if n < 1 {
				continue
			}
			vals := uniformVals(n, maxv+1, int64(n)*int64(b))
			in := mkCol(t, vals, columns.StaticBPDesc(b))
			for _, r := range [][2]uint64{{0, 0}, {1, maxv - 1}, {maxv / 3, maxv / 2}, {maxv, maxv}, {2, 1}} {
				want := refBetween(vals, r[0], r[1])
				got, err := SelectBetweenStaticBPDirect(in, r[0], r[1], columns.UncomprDesc)
				if err != nil {
					t.Fatal(err)
				}
				if g := decode(t, got); !equalU64(g, want) {
					t.Fatalf("b=%d n=%d [%d,%d]: %d positions, want %d", b, n, r[0], r[1], len(g), len(want))
				}
				// The kernel from a 64-aligned start inside the column.
				p := bitutil.NewSwarBetween(b, r[0], r[1])
				for start := 0; start < n; start += 64 * 3 {
					count := min(n-start, 200)
					stage := make([]uint64, count)
					k := swarSelectKernel(in.MainWords(), &p, start, count, stage)
					var sub []uint64
					for _, pos := range want {
						if pos >= uint64(start) && pos < uint64(start+count) {
							sub = append(sub, pos)
						}
					}
					if !equalU64(stage[:k], sub) {
						t.Fatalf("b=%d n=%d [%d,%d] start=%d: kernel disagrees", b, n, r[0], r[1], start)
					}
				}
			}
		}
	}
}

// TestParallelSelectMidSelectivity runs select and between at ~30% and ~50%
// selectivity over uniform-random inputs — the unpredictable-branch regime
// of SSB's range predicates — across formats, styles, specialized on/off and
// parallelism, against the row-wise reference and the sequential operator.
func TestParallelSelectMidSelectivity(t *testing.T) {
	vals := uniformVals(parTestN, 1000, 41)
	descs := append(formats.AllDescs(), columns.StaticBPDesc(16))
	type pred struct {
		op     bitutil.CmpKind
		val    uint64
		lo, hi uint64
		rng    bool
	}
	preds := []pred{
		{op: bitutil.CmpLt, val: 300},
		{op: bitutil.CmpGe, val: 500},
		{lo: 200, hi: 499, rng: true},
		{lo: 250, hi: 749, rng: true},
	}
	for _, inDesc := range descs {
		in := mkCol(t, vals, inDesc)
		for _, pr := range preds {
			var ref []uint64
			if pr.rng {
				ref = refBetween(vals, pr.lo, pr.hi)
			} else {
				ref = refSelect(vals, pr.op, pr.val)
			}
			if sel := float64(len(ref)) / float64(len(vals)); sel < 0.25 || sel > 0.55 {
				t.Fatalf("selectivity %.2f outside the mid range", sel)
			}
			for _, style := range vector.Styles {
				ctx := inDesc.String() + "/" + style.String()
				var want *columns.Column
				var err error
				if pr.rng {
					want, err = SelectBetween(in, pr.lo, pr.hi, columns.DeltaBPDesc, style)
				} else {
					want, err = Select(in, pr.op, pr.val, columns.DeltaBPDesc, style)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !equalU64(decode(t, want), ref) {
					t.Fatalf("%s: sequential operator disagrees with the reference", ctx)
				}
				for _, specialized := range []bool{false, true} {
					for _, par := range parLevels {
						var got *columns.Column
						if pr.rng {
							got, err = FixedRT(par).SelectBetweenAuto(in, pr.lo, pr.hi, columns.DeltaBPDesc, style, specialized)
						} else {
							got, err = FixedRT(par).SelectAuto(in, pr.op, pr.val, columns.DeltaBPDesc, style, specialized)
						}
						if err != nil {
							t.Fatalf("%s p=%d: %v", ctx, par, err)
						}
						assertSameColumn(t, ctx, want, got)
					}
				}
			}
		}
	}
}

// TestParallelIntersectMidSelectivity intersects random position lists at
// ~27%/48% and ~30%/50% density, with random hit/miss patterns (the bitmap
// kernel's regime, which the par >= 2 range kernels take), across formats
// and parallelism.
func TestParallelIntersectMidSelectivity(t *testing.T) {
	n := 3 * parTestN
	for _, pcts := range [][2]int{{27, 48}, {30, 50}} {
		aVals := randomPositions(n, pcts[0], int64(pcts[0]))
		bVals := randomPositions(n, pcts[1], int64(pcts[1]))
		ref := intersectMerge(aVals, bVals) // duplicates matched pairwise
		for _, aDesc := range formats.AllDescs() {
			ac := mkCol(t, aVals, aDesc)
			bc := mkCol(t, bVals, columns.DeltaBPDesc)
			for _, outDesc := range []columns.FormatDesc{columns.UncomprDesc, columns.DeltaBPDesc, columns.StaticBPDesc(0)} {
				want, err := IntersectSorted(ac, bc, outDesc)
				if err != nil {
					t.Fatal(err)
				}
				if !equalU64(decode(t, want), ref) {
					t.Fatalf("%v: sequential intersect disagrees with the reference", aDesc)
				}
				for _, par := range parLevels {
					got, err := FixedRT(par).Intersect(ac, bc, outDesc)
					if err != nil {
						t.Fatal(err)
					}
					assertSameColumn(t, "intersect "+aDesc.String()+"->"+outDesc.String(), want, got)
				}
			}
		}
	}
}

// TestIntersectBitmapPaths pins which intersection kernel runs on each input
// shape and that both give the merge's result.
func TestIntersectBitmapPaths(t *testing.T) {
	asc := make([]uint64, 1000)
	for i := range asc {
		asc[i] = uint64(i)
	}
	cases := []struct {
		name   string
		a, b   []uint64
		bitmap bool
	}{
		{"random_mid", randomPositions(5000, 27, 1), randomPositions(5000, 48, 2), true},
		{"duplicates_short", []uint64{1, 2, 2, 3}, asc, false},
		{"duplicates_long", asc[:10], []uint64{0, 1, 1, 2, 5}, false},
		{"wide_sparse_span", []uint64{0, 1 << 40}, asc, false},
		{"empty", nil, asc, true},
		{"both_empty", nil, nil, true},
		{"disjoint", asc[:500], asc[500:], true},
		{"identical", asc, asc, true},
		{"single", []uint64{7}, asc, true},
		{"single_miss", []uint64{7}, []uint64{1, 9}, true},
		{"long_outside_span", []uint64{100, 101}, []uint64{0, 100, 101, 1 << 50}, true},
	}
	for _, tc := range cases {
		want := intersectMerge(tc.a, tc.b)
		got, ok := intersectBitmap(tc.a, tc.b)
		if ok != tc.bitmap {
			t.Fatalf("%s: bitmap path taken = %v, want %v", tc.name, ok, tc.bitmap)
		}
		if ok && !equalU64(got, want) {
			t.Fatalf("%s: bitmap %v, merge %v", tc.name, got, want)
		}
		if v := intersectValues(tc.a, tc.b); !equalU64(v, want) {
			t.Fatalf("%s: intersectValues %v, merge %v", tc.name, v, want)
		}
		if v := intersectValues(tc.b, tc.a); !equalU64(v, want) {
			t.Fatalf("%s (swapped): intersectValues %v, merge %v", tc.name, v, want)
		}
	}
}

// TestSwarSelectTruncatedPayload checks that a static BP column whose packed
// words cannot hold all of its fields fails typed on every SWAR path instead
// of reading past the payload or dropping the missing fields.
func TestSwarSelectTruncatedPayload(t *testing.T) {
	const n = 3 * formats.MinMorsel
	words := make([]uint64, 10) // n 4-bit fields need n/16 words
	in, err := columns.New(columns.StaticBPDesc(4), n, n, len(words), words)
	if err != nil {
		t.Fatal(err)
	}
	_, e1 := SelectStaticBPDirect(in, bitutil.CmpEq, 0, columns.UncomprDesc)
	_, e2 := SelectBetweenStaticBPDirect(in, 0, 3, columns.UncomprDesc)
	_, e3 := FixedRT(2).SelectBetweenAuto(in, 0, 3, columns.UncomprDesc, vector.Scalar, true)
	for i, err := range []error{e1, e2, e3} {
		if !errors.Is(err, formats.ErrCorrupt) {
			t.Errorf("path %d: error %v, want ErrCorrupt", i, err)
		}
	}
}
