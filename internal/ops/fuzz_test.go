package ops

import (
	"math/rand"
	"testing"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/vector"
)

// FuzzSelectKernels maps one seed to a whole selection case — SWAR width,
// comparison or range, constants (field-range edges, beyond the range, or
// random) and values — and checks the SWAR direct kernel, the generic kernel
// in both styles and the two-worker runtime with specialized kernels on
// against the row-wise reference. The runtime's column must also be
// byte-identical to the generic operator's.
func FuzzSelectKernels(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 7, 42, 1 << 20, -5} {
		f.Add(seed)
	}
	widths := []uint{1, 2, 4, 8, 16, 32}
	outs := []columns.FormatDesc{columns.UncomprDesc, columns.DeltaBPDesc, columns.StaticBPDesc(0), columns.DynBPDesc}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		b := widths[rng.Intn(len(widths))]
		maxv := bitutil.Mask(b)
		// Up to three minimum morsels per worker, so FixedRT(2) splits
		// about half of the cases and falls back on the rest.
		n := rng.Intn(6 * formats.MinMorsel)
		limit := maxv
		if rng.Intn(2) == 0 {
			limit = rng.Uint64() & maxv // skewed: values crowd the low range
		}
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() % (limit + 1)
		}
		konst := func() uint64 {
			switch rng.Intn(3) {
			case 0:
				edges := []uint64{0, 1, maxv - 1, maxv, maxv + 1, ^uint64(0)}
				return edges[rng.Intn(len(edges))]
			default:
				return rng.Uint64() & maxv
			}
		}
		in, err := formats.Compress(vals, columns.StaticBPDesc(b))
		if err != nil {
			t.Fatal(err)
		}
		out := outs[rng.Intn(len(outs))]

		var ref []uint64
		var direct, generic, vec, par *columns.Column
		var e1, e2, e3, e4 error
		if rng.Intn(2) == 0 {
			lo, hi := konst(), konst()
			ref = refBetween(vals, lo, hi)
			direct, e1 = SelectBetweenStaticBPDirect(in, lo, hi, out)
			generic, e2 = SelectBetween(in, lo, hi, out, vector.Scalar)
			vec, e3 = SelectBetween(in, lo, hi, out, vector.Vec512)
			par, e4 = FixedRT(2).SelectBetweenAuto(in, lo, hi, out, vector.Scalar, true)
		} else {
			op, val := allOps[rng.Intn(len(allOps))], konst()
			ref = refSelect(vals, op, val)
			direct, e1 = SelectStaticBPDirect(in, op, val, out)
			generic, e2 = Select(in, op, val, out, vector.Scalar)
			vec, e3 = Select(in, op, val, out, vector.Vec512)
			par, e4 = FixedRT(2).SelectAuto(in, op, val, out, vector.Scalar, true)
		}
		for _, err := range []error{e1, e2, e3, e4} {
			if err != nil {
				t.Fatalf("b=%d n=%d: %v", b, n, err)
			}
		}
		for name, c := range map[string]*columns.Column{"direct": direct, "generic": generic, "vec512": vec, "par2": par} {
			if got := decode(t, c); !equalU64(got, ref) {
				t.Fatalf("b=%d n=%d %s: %d positions, want %d", b, n, name, len(got), len(ref))
			}
		}
		assertSameColumn(t, "direct", generic, direct)
		assertSameColumn(t, "par2", generic, par)
	})
}
