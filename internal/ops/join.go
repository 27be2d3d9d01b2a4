package ops

import (
	"fmt"
	"math"

	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/vector"
)

// JoinN1 performs an N:1 equi-join between a probe-side key column (e.g. a
// fact-table foreign key) and a build-side key column with unique values
// (e.g. a filtered dimension primary key). It returns two position lists of
// equal length: the matching probe positions and, aligned with them, the
// build position each probe row joined with. The probe side streams through
// the usual de/re-compression wrapper; the build side is decompressed once
// into a joinTable and its encoded keys are inserted and probed directly, as
// in the encoded hash-join of Lee et al. [39]. The table is direct-address
// when the build keys are dense (fewer than 2^32-1 rows and
// hi-lo < max(4n, 2^18)) and a hash table otherwise; a duplicate build key
// joins with its last position.
func JoinN1(probeKeys, buildKeys *columns.Column, outProbe, outBuild columns.FormatDesc, style vector.Style) (probePos, buildPos *columns.Column, err error) {
	if err := checkCols(probeKeys, buildKeys); err != nil {
		return nil, nil, err
	}
	ht, err := buildJoinTable(buildKeys, "join")
	if err != nil {
		return nil, nil, err
	}

	wp, err := formats.NewWriter(positionDesc(outProbe, probeKeys.N()), probeKeys.N())
	if err != nil {
		return nil, nil, err
	}
	wb, err := formats.NewWriter(positionDesc(outBuild, buildKeys.N()), probeKeys.N())
	if err != nil {
		return nil, nil, err
	}
	r, err := formats.NewReader(probeKeys)
	if err != nil {
		return nil, nil, err
	}

	stageP := make([]uint64, 0, blockBuf)
	stageB := make([]uint64, 0, blockBuf)
	emit := func(vals []uint64, base uint64) error {
		p, b := ht.appendMatches(stageP, stageB, vals, base)
		if err := wp.Write(p); err != nil {
			return err
		}
		return wb.Write(b)
	}

	if vv, ok := r.(formats.ValueViewer); ok {
		if vals, viewable := vv.View(); viewable {
			for off := 0; off < len(vals); off += blockBuf {
				end := off + blockBuf
				if end > len(vals) {
					end = len(vals)
				}
				if err := emit(vals[off:end], uint64(off)); err != nil {
					return nil, nil, err
				}
			}
			probePos, err = wp.Close()
			if err != nil {
				return nil, nil, err
			}
			buildPos, err = wb.Close()
			return probePos, buildPos, err
		}
	}

	buf := make([]uint64, blockBuf)
	base := uint64(0)
	for {
		k, err := r.Read(buf)
		if err != nil {
			return nil, nil, fmt.Errorf("ops: join probe: %w", err)
		}
		if k == 0 {
			break
		}
		if err := emit(buf[:k], base); err != nil {
			return nil, nil, err
		}
		base += uint64(k)
	}
	probePos, err = wp.Close()
	if err != nil {
		return nil, nil, err
	}
	buildPos, err = wb.Close()
	return probePos, buildPos, err
}

// buildJoinTable decompresses the build-side keys into the table mapping
// key -> build position; shared by the sequential and parallel N:1 joins and
// semijoins (op names the operator in errors).
func buildJoinTable(buildKeys *columns.Column, op string) (*joinTable, error) {
	build, err := readAll(buildKeys)
	if err != nil {
		return nil, fmt.Errorf("ops: %s build side: %w", op, err)
	}
	return newJoinTable(build), nil
}

// denseFloor is the span below which a build side always gets a
// direct-address table, however few keys it has: 2^18 uint32 slots, 1 MiB.
const denseFloor = 1 << 18

// joinTable is the transient build side of a join: a read-only map from
// build key to the key's last build position, probed concurrently by all
// workers. When the keys are dense, that is the build side has fewer than
// 2^32-1 rows and hi-lo < max(4n, denseFloor), it is a direct-address array
// indexed by key-lo holding position+1 (0 = absent), never larger than
// 1 MiB or than the >= 32n-byte hash table; otherwise it is a u64Map.
type joinTable struct {
	lo    uint64
	slots []uint32 // dense table; unused when ht != nil
	ht    *u64Map  // sparse fallback; nil when dense
}

// newJoinTable builds the table over keys, where key i has build position
// i; a duplicate key keeps its last position.
func newJoinTable(keys []uint64) *joinTable {
	n := len(keys)
	if n == 0 {
		return &joinTable{}
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys[1:] {
		lo, hi = min(lo, k), max(hi, k)
	}
	if uint64(n) < math.MaxUint32 && hi-lo < max(4*uint64(n), denseFloor) {
		slots := make([]uint32, hi-lo+1)
		for i, k := range keys {
			slots[k-lo] = uint32(i + 1)
		}
		return &joinTable{lo: lo, slots: slots}
	}
	ht := newU64Map(n)
	for i, k := range keys {
		ht.put(k, uint64(i))
	}
	return &joinTable{ht: ht}
}

// appendMatches appends base+i to pos for every vals[i] found in the table
// and, for a join (bpos != nil), the matched build position to bpos. Each of
// the four table kind x output combinations gets its own loop, so the probe
// loops carry no per-key dispatch. In the dense loops a key below lo wraps
// to a huge offset, so one bounds check rejects both sides of the range.
func (t *joinTable) appendMatches(pos, bpos, vals []uint64, base uint64) ([]uint64, []uint64) {
	join := bpos != nil
	switch {
	case t.ht != nil && join:
		for i, v := range vals {
			if b, ok := t.ht.get(v); ok {
				pos = append(pos, base+uint64(i))
				bpos = append(bpos, b)
			}
		}
	case t.ht != nil:
		for i, v := range vals {
			if _, ok := t.ht.get(v); ok {
				pos = append(pos, base+uint64(i))
			}
		}
	case join:
		lo, slots := t.lo, t.slots
		for i, v := range vals {
			if d := v - lo; d < uint64(len(slots)) && slots[d] != 0 {
				pos = append(pos, base+uint64(i))
				bpos = append(bpos, uint64(slots[d]-1))
			}
		}
	default:
		lo, slots := t.lo, t.slots
		for i, v := range vals {
			if d := v - lo; d < uint64(len(slots)) && slots[d] != 0 {
				pos = append(pos, base+uint64(i))
			}
		}
	}
	return pos, bpos
}

// SemiJoin returns the probe positions whose key occurs in the build-side
// key column (used when only the existence of a dimension match matters,
// e.g. the date-filter joins of SSB Q1.x).
func SemiJoin(probeKeys, buildKeys *columns.Column, out columns.FormatDesc, style vector.Style) (*columns.Column, error) {
	if err := checkCols(probeKeys, buildKeys); err != nil {
		return nil, err
	}
	ht, err := buildJoinTable(buildKeys, "semijoin")
	if err != nil {
		return nil, err
	}

	w, err := formats.NewWriter(positionDesc(out, probeKeys.N()), probeKeys.N())
	if err != nil {
		return nil, err
	}
	r, err := formats.NewReader(probeKeys)
	if err != nil {
		return nil, err
	}
	stage := make([]uint64, 0, blockBuf)
	emit := func(vals []uint64, base uint64) error {
		p, _ := ht.appendMatches(stage, nil, vals, base)
		return w.Write(p)
	}

	if vv, ok := r.(formats.ValueViewer); ok {
		if vals, viewable := vv.View(); viewable {
			for off := 0; off < len(vals); off += blockBuf {
				end := off + blockBuf
				if end > len(vals) {
					end = len(vals)
				}
				if err := emit(vals[off:end], uint64(off)); err != nil {
					return nil, err
				}
			}
			return w.Close()
		}
	}

	buf := make([]uint64, blockBuf)
	base := uint64(0)
	for {
		k, err := r.Read(buf)
		if err != nil {
			return nil, fmt.Errorf("ops: semijoin probe: %w", err)
		}
		if k == 0 {
			break
		}
		if err := emit(buf[:k], base); err != nil {
			return nil, err
		}
		base += uint64(k)
	}
	return w.Close()
}
