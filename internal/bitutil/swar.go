// SWAR (SIMD within a register) primitives: exact field-parallel comparison
// and summation over bit-packed 64-bit words, for field widths that divide 64.
//
// These kernels are the pure-Go substitute for the AVX-512 bit-parallel scan
// instructions the original C++ MorphStore uses (cf. BitWeaving, SIMD-Scan):
// several packed fields are compared against a predicate constant with a
// handful of word-level instructions instead of one comparison per field.
//
// Exactness is obtained with the even/odd split: fields are isolated into
// windows of width 2*b (the neighbour field zeroed), so carries and borrows
// of the window-local arithmetic can never cross into the next field. The
// comparison primitive is the x >= y test: (x | 2^(2b-1)) - y keeps the
// window's top bit iff x >= y.
package bitutil

import "math/bits"

// SwarWidthOK reports whether the SWAR kernels support field width b.
// Supported widths divide 64 and leave at least two fields per word.
func SwarWidthOK(b uint) bool {
	return b > 0 && b <= 32 && 64%b == 0
}

// swarMasks returns (evenMask, testMask) for width b: evenMask selects
// fields 0,2,4,... (each field viewed in a 2b-wide window), testMask has the
// top bit of every 2b window set.
func swarMasks(b uint) (even uint64, test uint64) {
	w := 2 * b
	for off := uint(0); off < 64; off += w {
		even |= Mask(b) << off
		test |= uint64(1) << (off + w - 1)
	}
	return even, test
}

// Broadcast replicates the low b bits of v into every b-wide field of a word.
func Broadcast(v uint64, b uint) uint64 {
	v &= Mask(b)
	if b == 0 {
		return 0
	}
	var out uint64
	for off := uint(0); off < 64; off += b {
		out |= v << off
	}
	return out
}

// CmpKind enumerates the comparison operators shared by the scan kernels.
type CmpKind uint8

const (
	CmpEq CmpKind = iota // field == constant
	CmpNe                // field != constant
	CmpLt                // field <  constant
	CmpLe                // field <= constant
	CmpGt                // field >  constant
	CmpGe                // field >= constant
)

func (c CmpKind) String() string {
	switch c {
	case CmpEq:
		return "=="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return "?"
	}
}

// Eval applies the comparison to a pair of scalars.
func (c CmpKind) Eval(x, y uint64) bool {
	switch c {
	case CmpEq:
		return x == y
	case CmpNe:
		return x != y
	case CmpLt:
		return x < y
	case CmpLe:
		return x <= y
	case CmpGt:
		return x > y
	case CmpGe:
		return x >= y
	default:
		return false
	}
}

// SwarPred is a field-parallel predicate over b-wide packed fields with its
// masks and broadcast constants precomputed once per operator call. Every
// comparison is normalized to a window test lo <= f <= hi, negated for !=,
// so Match evaluates all 64/b fields of a word with the same branch-free
// instruction sequence whatever the operator: the >= lo and <= hi window
// tests of each even/odd half are ANDed before any compaction.
type SwarPred struct {
	even, test uint64 // even-field mask; top bit of every 2b window
	lo, hiT    uint64 // lo, and hi with the window top bits, in every even window
	flip       uint64 // bit f*b of every field for a negated predicate, else 0
	b          uint   // field width
	shift      uint   // log2(b)
}

// NewSwarBetween returns the predicate lo <= f <= hi for width-b fields. An
// empty range (lo > hi, or lo beyond the field range) matches nothing. b
// must satisfy SwarWidthOK.
func NewSwarBetween(b uint, lo, hi uint64) SwarPred {
	return newSwarPred(b, lo, hi, false)
}

// NewSwarCmp returns the predicate `f <op> val` for width-b fields; val may
// exceed the field range. b must satisfy SwarWidthOK.
func NewSwarCmp(b uint, op CmpKind, val uint64) SwarPred {
	const top = ^uint64(0)
	switch op {
	case CmpEq:
		return newSwarPred(b, val, val, false)
	case CmpNe:
		return newSwarPred(b, val, val, true)
	case CmpLt:
		if val == 0 {
			return newSwarPred(b, 1, 0, false)
		}
		return newSwarPred(b, 0, val-1, false)
	case CmpLe:
		return newSwarPred(b, 0, val, false)
	case CmpGt:
		if val == top {
			return newSwarPred(b, 1, 0, false)
		}
		return newSwarPred(b, val+1, top, false)
	case CmpGe:
		return newSwarPred(b, val, top, false)
	default:
		return newSwarPred(b, 1, 0, false)
	}
}

func newSwarPred(b uint, lo, hi uint64, negate bool) SwarPred {
	// Fields are < 2^b, so bounds beyond the field range clamp, and an empty
	// window becomes [Mask(b), 0], which no field satisfies.
	hi = min(hi, Mask(b))
	if lo > hi {
		lo, hi = Mask(b), 0
	}
	even, test := swarMasks(b)
	p := SwarPred{
		even:  even,
		test:  test,
		lo:    Broadcast(lo, 2*b) & even,
		hiT:   Broadcast(hi, 2*b)&even | test,
		b:     b,
		shift: uint(bits.TrailingZeros(b)),
	}
	if negate {
		p.flip = Broadcast(1, b)
	}
	return p
}

// Match tests every field of the packed word x and returns a mask with bit
// f*b set iff field f satisfies the predicate, so the matching field index
// is TrailingZeros(mask) >> Shift() with no division.
func (p *SwarPred) Match(x uint64) uint64 {
	xe := x & p.even
	xo := (x >> p.b) & p.even
	// (x | top) - y keeps a window's top bit iff x >= y: no borrow crosses
	// a window because both fields are < 2^b <= 2^(2b-1).
	te := ((xe | p.test) - p.lo) & (p.hiT - xe) & p.test
	to := ((xo | p.test) - p.lo) & (p.hiT - xo) & p.test
	return (te>>(2*p.b-1) | to>>(p.b-1)) ^ p.flip
}

// Shift returns log2 of the field width: a Match bit index shifted right by
// it is the field index.
func (p *SwarPred) Shift() uint { return p.shift }

// SumPackedWords sums every b-wide field across the packed words using
// window-parallel accumulation. n is the total number of fields represented;
// unused fields of the final partial word must be zero (true for all
// MorphStore packed buffers, which zero-initialize their words).
func SumPackedWords(words []uint64, n int, b uint) uint64 {
	if b == 0 || n == 0 {
		return 0
	}
	if !SwarWidthOK(b) {
		var s uint64
		for i := 0; i < n; i++ {
			s += Get(words, i, b)
		}
		return s
	}
	even, _ := swarMasks(b)
	odd := even << b
	w := 2 * b

	// Each 2b window accumulates values < 2^b; capacity 2^(2b)-1 allows at
	// least 2^b safe additions before a fold is required.
	safe := 1 << b
	if safe > 1<<20 {
		safe = 1 << 20
	}

	var total uint64
	var accE, accO uint64
	pending := 0
	m := Mask(w)
	fold := func() {
		for off := uint(0); off < 64; off += w {
			total += (accE >> off) & m
			total += (accO >> off) & m
		}
		accE, accO = 0, 0
		pending = 0
	}
	for _, x := range words {
		accE += x & even
		accO += (x & odd) >> b
		pending++
		if pending >= safe {
			fold()
		}
	}
	fold()
	return total
}
