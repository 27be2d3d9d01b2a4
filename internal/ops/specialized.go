package ops

import (
	"fmt"
	"math/bits"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/vector"
)

// This file implements the "specialized operator" integration degree
// (Fig. 2c): operators that process compressed data directly, without
// decompressing into any buffer. They are format-specific by design and the
// engine employs them selectively (§3.2), falling back to the on-the-fly
// de/re-compression operators everywhere else.

// CanSelectDirect reports whether SelectStaticBPDirect supports the column:
// a static BP column whose width admits the word-parallel SWAR kernels.
func CanSelectDirect(in *columns.Column) bool {
	return in.Desc().Kind == columns.StaticBP &&
		(bitutil.SwarWidthOK(uint(in.Desc().Bits)) || in.Desc().Bits == 0)
}

// SelectStaticBPDirect evaluates a comparison predicate directly on the
// packed words of a static BP column using the SWAR kernels: 64/b fields
// are tested per word-level instruction sequence, in the spirit of
// BitWeaving/SIMD-Scan. The output positions are recompressed as usual.
func SelectStaticBPDirect(in *columns.Column, op bitutil.CmpKind, val uint64, out columns.FormatDesc) (*columns.Column, error) {
	if err := checkCols(in); err != nil {
		return nil, err
	}
	if !CanSelectDirect(in) {
		return nil, fmt.Errorf("ops: direct select unsupported for %v", in.Desc())
	}
	b := uint(in.Desc().Bits)
	if b == 0 { // all-zero column: no packed words to scan
		return Select(in, op, val, out, vector.Scalar)
	}
	return swarSelect(in, bitutil.NewSwarCmp(b, op, val), out)
}

// SelectBetweenStaticBPDirect evaluates lo <= element <= hi directly on the
// packed words, both window tests combined in one SWAR predicate.
func SelectBetweenStaticBPDirect(in *columns.Column, lo, hi uint64, out columns.FormatDesc) (*columns.Column, error) {
	if err := checkCols(in); err != nil {
		return nil, err
	}
	if !CanSelectDirect(in) {
		return nil, fmt.Errorf("ops: direct select unsupported for %v", in.Desc())
	}
	b := uint(in.Desc().Bits)
	if b == 0 { // all-zero column: no packed words to scan
		return SelectBetween(in, lo, hi, out, vector.Scalar)
	}
	return swarSelect(in, bitutil.NewSwarBetween(b, lo, hi), out)
}

// swarSelect is the sequential driver of the SWAR section kernel: it sweeps
// the packed words in blockBuf-element chunks and recompresses the matching
// positions.
func swarSelect(in *columns.Column, p bitutil.SwarPred, out columns.FormatDesc) (*columns.Column, error) {
	words, err := swarWords(in)
	if err != nil {
		return nil, err
	}
	n := in.N()
	w, err := formats.NewWriter(positionDesc(out, n), n)
	if err != nil {
		return nil, err
	}
	stage := make([]uint64, blockBuf)
	for start := 0; start < n; start += blockBuf {
		k := swarSelectKernel(words, &p, start, min(blockBuf, n-start), stage)
		if err := w.Write(stage[:k]); err != nil {
			return nil, err
		}
	}
	return w.Close()
}

// swarWords returns the packed words of a static BP column, checked to hold
// all of its fields.
func swarWords(in *columns.Column) ([]uint64, error) {
	words := in.MainWords()
	if len(words) < bitutil.PackedWords(in.N(), uint(in.Desc().Bits)) {
		return nil, fmt.Errorf("ops: %w: static BP payload shorter than its %d fields", formats.ErrCorrupt, in.N())
	}
	return words, nil
}

// swarSelectKernel writes to stage the positions of the fields matching p
// among elements [start, start+count) of the packed words and returns their
// count; stage must hold count entries. start must be a multiple of 64,
// which is a packed-word boundary for every SWAR width. It is the one
// section kernel behind the sequential and the morsel-parallel direct
// selects.
func swarSelectKernel(words []uint64, p *bitutil.SwarPred, start, count int, stage []uint64) int {
	sh := p.Shift()
	per := 64 >> sh
	wi := start >> (6 - sh)
	base := uint64(start)
	k := 0
	for end := wi + count>>(6-sh); wi < end; wi++ {
		for m := p.Match(words[wi]); m != 0; m &= m - 1 {
			stage[k] = base + uint64(bits.TrailingZeros64(m)>>sh)
			k++
		}
		base += uint64(per)
	}
	if rest := count & (per - 1); rest > 0 {
		// Partial tail word: drop the fields past the range.
		m := p.Match(words[wi]) & (uint64(1)<<(uint(rest)<<sh) - 1)
		for ; m != 0; m &= m - 1 {
			stage[k] = base + uint64(bits.TrailingZeros64(m)>>sh)
			k++
		}
	}
	return k
}

// SumStaticBPDirect sums a static BP column directly on the packed words via
// window-parallel SWAR accumulation (the bit-parallel aggregation of Feng &
// Lo [25]).
func SumStaticBPDirect(in *columns.Column) (uint64, error) {
	if err := checkCols(in); err != nil {
		return 0, err
	}
	if in.Desc().Kind != columns.StaticBP {
		return 0, fmt.Errorf("ops: direct sum unsupported for %v", in.Desc())
	}
	return bitutil.SumPackedWords(in.MainWords(), in.N(), uint(in.Desc().Bits)), nil
}

// SumDynBPDirect sums a DynBP column block by block directly on the packed
// payload words, plus the uncompressed remainder.
func SumDynBPDirect(in *columns.Column) (uint64, error) {
	if err := checkCols(in); err != nil {
		return 0, err
	}
	if in.Desc().Kind != columns.DynBP {
		return 0, fmt.Errorf("ops: direct sum unsupported for %v", in.Desc())
	}
	words := in.MainWords()
	var total uint64
	w := 0
	for e := 0; e < in.MainElems(); e += formats.BlockLen {
		b, err := dynBPHeaderWidth(words, w)
		if err != nil {
			return 0, err
		}
		w++
		pw := int(b) * (formats.BlockLen / 64)
		if w+pw > len(words) {
			return 0, fmt.Errorf("ops: %w: dyn BP payload beyond buffer", formats.ErrCorrupt)
		}
		total += bitutil.SumPackedWords(words[w:w+pw], formats.BlockLen, b)
		w += pw
	}
	for _, v := range in.Remainder() {
		total += v
	}
	return total, nil
}

// SumRLEDirect sums an RLE column as the dot product of run values and run
// lengths, never touching individual elements (Abadi et al. [2]).
func SumRLEDirect(in *columns.Column) (uint64, error) {
	if err := checkCols(in); err != nil {
		return 0, err
	}
	runs, err := formats.RLERuns(in)
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, r := range runs {
		total += r.Value * r.Length
	}
	return total, nil
}

// SelectRLEDirect evaluates a comparison predicate run by run: a matching
// run of length l contributes l consecutive positions at once.
func SelectRLEDirect(in *columns.Column, op bitutil.CmpKind, val uint64, out columns.FormatDesc) (*columns.Column, error) {
	if err := checkCols(in); err != nil {
		return nil, err
	}
	runs, err := formats.RLERuns(in)
	if err != nil {
		return nil, err
	}
	w, err := formats.NewWriter(positionDesc(out, in.N()), in.N())
	if err != nil {
		return nil, err
	}
	stage := make([]uint64, blockBuf)
	k := 0
	pos := uint64(0)
	for _, r := range runs {
		if op.Eval(r.Value, val) {
			for i := uint64(0); i < r.Length; i++ {
				stage[k] = pos + i
				k++
				if k == blockBuf {
					if err := w.Write(stage[:k]); err != nil {
						return nil, err
					}
					k = 0
				}
			}
		}
		pos += r.Length
	}
	if err := w.Write(stage[:k]); err != nil {
		return nil, err
	}
	return w.Close()
}

// SumAuto dispatches a whole-column sum to the best available integration
// degree: a specialized direct operator when the input format has one (and
// specialized operators are enabled), the generic de/re-compression operator
// otherwise. This is the selective-employment policy of §3.3.
func SumAuto(in *columns.Column, style vector.Style, specialized bool) (uint64, *columns.Column, error) {
	if specialized {
		switch in.Desc().Kind {
		case columns.StaticBP:
			s, err := SumStaticBPDirect(in)
			if err != nil {
				return 0, nil, err
			}
			return s, columns.FromValues([]uint64{s}), nil
		case columns.DynBP:
			s, err := SumDynBPDirect(in)
			if err != nil {
				return 0, nil, err
			}
			return s, columns.FromValues([]uint64{s}), nil
		case columns.RLE:
			s, err := SumRLEDirect(in)
			if err != nil {
				return 0, nil, err
			}
			return s, columns.FromValues([]uint64{s}), nil
		}
	}
	return SumWhole(in, style)
}

// SelectAuto dispatches a comparison select like SumAuto: the SWAR direct
// operator for suitable static BP columns, run-level select for RLE, and the
// generic operator otherwise.
func SelectAuto(in *columns.Column, op bitutil.CmpKind, val uint64, out columns.FormatDesc, style vector.Style, specialized bool) (*columns.Column, error) {
	if specialized {
		switch {
		case CanSelectDirect(in):
			return SelectStaticBPDirect(in, op, val, out)
		case in.Desc().Kind == columns.RLE:
			return SelectRLEDirect(in, op, val, out)
		}
	}
	return Select(in, op, val, out, style)
}

// SelectBetweenAuto dispatches a range select to the SWAR direct operator
// when available.
func SelectBetweenAuto(in *columns.Column, lo, hi uint64, out columns.FormatDesc, style vector.Style, specialized bool) (*columns.Column, error) {
	if specialized && CanSelectDirect(in) {
		return SelectBetweenStaticBPDirect(in, lo, hi, out)
	}
	return SelectBetween(in, lo, hi, out, style)
}
