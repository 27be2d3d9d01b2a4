package main

import (
	"errors"
	"testing"
	"time"

	ms "morphstore"
)

func TestMergeBaseFormats(t *testing.T) {
	got, disputed := mergeBaseFormats([]map[string]ms.FormatDesc{
		{"lineorder.lo_quantity": ms.DynBP, "date.d_datekey": ms.DeltaBP, "part.p_brand1": ms.ForBP, "supplier.s_region": ms.StaticBP},
		{"lineorder.lo_quantity": ms.DynBP, "date.d_datekey": ms.StaticBPWidth(15), "supplier.s_region": ms.DynBP},
		{"date.d_datekey": ms.DeltaBP, "customer.c_city": ms.RLE, "supplier.s_region": ms.ForBP},
		{"date.d_datekey": ms.StaticBP, "customer.c_city": ms.RLE},
	})
	want := map[string]ms.FormatDesc{
		"lineorder.lo_quantity": ms.DynBP,    // all agree
		"date.d_datekey":        ms.StaticBP, // disagreement resolves to random access
		"part.p_brand1":         ms.ForBP,    // one query only
		"customer.c_city":       ms.RLE,
		"supplier.s_region":     ms.StaticBP, // disagreement, first choice already StaticBP
	}
	if len(got) != len(want) {
		t.Fatalf("got %d columns, want %d: %v", len(got), len(want), got)
	}
	for col, d := range want {
		if got[col] != d {
			t.Errorf("%s: got %v, want %v", col, got[col], d)
		}
	}
	if len(disputed) != 2 || disputed[0] != "date.d_datekey" || disputed[1] != "supplier.s_region" {
		t.Errorf("disputed = %v, want [date.d_datekey supplier.s_region]", disputed)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && c.n-nearestRank(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v leaves fewer than %d samples beyond it", c.n, p, minBeyond)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if xs[0] != 1000 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if percentile(nil, 99) != 0 || median(nil) != 0 {
		t.Error("empty samples must read 0")
	}
}

func TestAccounting(t *testing.T) {
	var a accounting
	if a.errorRate() != 0 {
		t.Fatal("error rate of nothing attempted must be 0")
	}
	for i := 0; i < 6; i++ {
		a.record(opExecute, nil)
	}
	a.record(opIngest, nil)
	a.record(opDelete, nil)
	if a.record(opRemorph, errors.New("boom")) {
		t.Error("a failed call reported success")
	}
	a.mismatch() // one of the successful Executes returned a wrong result
	att, failed := a.totals()
	if att != 9 || failed != 2 {
		t.Errorf("totals = %d attempted, %d failed; want 9, 2", att, failed)
	}
	if got, want := a.errorRate(), 2.0/9; got != want {
		t.Errorf("error rate = %v, want %v", got, want)
	}
	if a.mismatches.Load() != 1 || a.failed[opExecute].Load() != 1 || a.failed[opRemorph].Load() != 1 {
		t.Error("failures booked against the wrong operation kind")
	}
}

func TestMergeRows(t *testing.T) {
	a := []ms.SSBRow{{Keys: []uint64{1992, 7}, Sum: 10}, {Keys: []uint64{1993, 1}, Sum: 5}}
	b := []ms.SSBRow{{Keys: []uint64{1992, 3}, Sum: 1}, {Keys: []uint64{1993, 1}, Sum: 2}}
	got := mergeRows(a, b)
	want := []ms.SSBRow{{Keys: []uint64{1992, 3}, Sum: 1}, {Keys: []uint64{1992, 7}, Sum: 10}, {Keys: []uint64{1993, 1}, Sum: 7}}
	if !rowsEqual(got, want) {
		t.Errorf("grouped merge = %v, want %v", got, want)
	}
	if a[1].Sum != 5 {
		t.Error("mergeRows modified its input")
	}
	if got := mergeRows([]ms.SSBRow{{Sum: 3}}, []ms.SSBRow{{Sum: 4}}); !rowsEqual(got, []ms.SSBRow{{Sum: 7}}) {
		t.Errorf("ungrouped merge = %v, want one row summing to 7", got)
	}
}

func TestSelfTimes(t *testing.T) {
	d := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Start: d(0), End: d(100)},
		{ID: 1, Parent: 0, Start: d(10), End: d(40)},
		{ID: 2, Parent: 0, Start: d(30), End: d(50)},  // overlaps span 1
		{ID: 3, Parent: 0, Start: d(90), End: d(120)}, // runs past its parent
		{ID: 4, Parent: 1, Start: d(20), End: d(25)},
	}
	selfTimes(spans)
	for id, want := range []time.Duration{d(50), d(25), d(20), d(30), d(5)} {
		if spans[id].Self != want {
			t.Errorf("span %d: self = %v, want %v", id, spans[id].Self, want)
		}
	}
}
