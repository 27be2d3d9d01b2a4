package ops

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkJoinTable builds a join table over keys, asserts which kind it chose,
// and checks every probe against a plain Go map holding each key's last
// position, through both the join and the membership probe loops.
func checkJoinTable(t *testing.T, ctx string, keys, probes []uint64, wantDense bool) {
	t.Helper()
	ref := make(map[uint64]uint64, len(keys))
	for i, k := range keys {
		ref[k] = uint64(i)
	}
	tab := newJoinTable(keys)
	if dense := tab.ht == nil; dense != wantDense {
		t.Fatalf("%s: dense = %v, want %v", ctx, dense, wantDense)
	}
	var wantP, wantB []uint64
	for i, v := range probes {
		if b, ok := ref[v]; ok {
			wantP = append(wantP, uint64(i))
			wantB = append(wantB, b)
		}
	}
	const base = 1000
	gotP, gotB := tab.appendMatches([]uint64{}, []uint64{}, probes, base)
	for i := range gotP {
		gotP[i] -= base
	}
	if !equalU64(gotP, wantP) || !equalU64(gotB, wantB) {
		t.Fatalf("%s: join probe got %v/%v, want %v/%v", ctx, gotP, gotB, wantP, wantB)
	}
	memP, memB := tab.appendMatches(nil, nil, probes, 0)
	if memB != nil || !equalU64(memP, wantP) {
		t.Fatalf("%s: membership probe got %v (bpos %v), want %v", ctx, memP, memB, wantP)
	}
}

// probesAround returns every key plus its neighbours, the values just
// outside [lo, hi], both ends of the uint64 domain and a few random values.
func probesAround(rng *rand.Rand, keys []uint64) []uint64 {
	probes := []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1, rng.Uint64(), rng.Uint64()}
	for _, k := range keys {
		probes = append(probes, k, k-1, k+1)
	}
	rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
	return probes
}

// TestJoinTableProperty checks the build table against a map reference over
// random dense and sparse key sets, the edges of the uint64 domain, empty
// and single-key build sides, duplicates, and spans at the density
// threshold.
func TestJoinTableProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(3000)
		var lo uint64
		switch iter % 4 {
		case 0:
			lo = 0
		case 1:
			lo = math.MaxUint64 - uint64(4*n) // range ends at the top of the domain
		default:
			lo = rng.Uint64() >> uint(rng.Intn(64))
			lo = min(lo, math.MaxUint64-uint64(4*n))
		}
		// Dense: n keys drawn from [lo, lo+4n), duplicates included.
		dense := make([]uint64, n)
		for i := range dense {
			dense[i] = lo + uint64(rng.Intn(4*n))
		}
		checkJoinTable(t, fmt.Sprintf("dense iter %d", iter), dense, probesAround(rng, dense), true)

		// Sparse: random keys over the whole domain plus both extremes, so
		// hi-lo is as wide as uint64 allows.
		sparse := make([]uint64, n)
		for i := range sparse {
			sparse[i] = rng.Uint64()
		}
		sparse[0], sparse[n-1] = 0, math.MaxUint64
		checkJoinTable(t, fmt.Sprintf("sparse iter %d", iter), sparse, probesAround(rng, sparse), false)

		// Duplicates: few distinct keys, repeated; the last position wins.
		dups := make([]uint64, n)
		for i := range dups {
			dups[i] = lo + uint64(rng.Intn(5))
		}
		checkJoinTable(t, fmt.Sprintf("dups iter %d", iter), dups, probesAround(rng, dups), true)
	}

	// Empty and single-key build sides, the single key at both domain ends.
	checkJoinTable(t, "empty", nil, []uint64{0, 1, math.MaxUint64}, true)
	for _, k := range []uint64{0, 1, 1 << 40, math.MaxUint64} {
		checkJoinTable(t, fmt.Sprintf("single %d", k), []uint64{k}, probesAround(rng, []uint64{k}), true)
	}

	// The widest dense span (limit-1) stays dense and one more hashes. Small
	// build sides are bounded by denseFloor, large ones by 4n.
	for _, n := range []int{2, 100, denseFloor / 4, denseFloor/4 + 1, 70_000} {
		limit := max(4*uint64(n), denseFloor)
		for _, lo := range []uint64{0, 5, math.MaxUint64 - limit} {
			for _, span := range []uint64{limit - 1, limit} {
				keys := make([]uint64, n)
				keys[0], keys[n-1] = lo, lo+span
				for i := 1; i < n-1; i++ {
					keys[i] = lo + uint64(rng.Int63n(int64(span)+1))
				}
				probes := []uint64{lo - 1, lo, lo + 1, lo + span - 1, lo + span, lo + span + 1}
				probes = append(probes, keys[:min(n, 50)]...)
				ctx := fmt.Sprintf("threshold n=%d lo=%d span=%d", n, lo, span)
				checkJoinTable(t, ctx, keys, probes, span < limit)
			}
		}
	}
}
