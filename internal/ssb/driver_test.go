package ssb

import (
	"strings"
	"testing"

	"morphstore/internal/vector"
)

// testDriver caches a driver over the shared test instance.
var testDriver *Driver

func getDriver(t *testing.T) *Driver {
	t.Helper()
	if testDriver == nil {
		d, err := newDriver(getData(t), 1)
		if err != nil {
			t.Fatal(err)
		}
		testDriver = d
	}
	return testDriver
}

// TestDriverAllSeries runs every format series of the paper's figures over
// all 13 queries through Run, and the MonetDB-style baseline through
// RunMonetDB; each first execution is verified against the reference inside
// the driver.
func TestDriverAllSeries(t *testing.T) {
	d := getDriver(t)
	series := []Series{
		{Formats: Uncompressed, Style: vector.Scalar},
		{Formats: Uncompressed, Style: vector.Vec512},
		{Formats: StaticBP, Style: vector.Vec512},
		{Formats: CostBased, Style: vector.Vec512},
		{Formats: CostBased, Style: vector.Vec512, Specialized: true},
		{Formats: BaseOnly, Style: vector.Vec512},
		{Formats: FootprintBest, Style: vector.Vec512},
		{Formats: FootprintWorst, Style: vector.Vec512},
	}
	// The greedy runtime search executes the whole query once per column
	// and candidate format, so it runs on the first query of each flight.
	searched := append(series[:len(series):len(series)], Series{Formats: RuntimeBest, Style: vector.Vec512})
	for _, q := range Queries {
		run := series
		if q == Q11 || q == Q21 || q == Q31 || q == Q41 {
			run = searched
		}
		for _, s := range run {
			res, rt, err := d.Run(q, s)
			if err != nil {
				t.Fatalf("%s %+v: %v", q, s, err)
			}
			if res.Meas.Footprint() <= 0 || rt <= 0 {
				t.Fatalf("%s %+v: footprint %d, runtime %v", q, s, res.Meas.Footprint(), rt)
			}
		}
		for _, narrow := range []bool{false, true} {
			if _, err := d.RunMonetDB(q, narrow); err != nil {
				t.Fatalf("%s monetsim narrow=%v: %v", q, narrow, err)
			}
		}
	}
	// The footprint series bracket every other combination.
	for _, q := range Queries {
		foot := func(f Formats) int {
			res, _, err := d.Run(q, Series{Formats: f, Style: vector.Vec512})
			if err != nil {
				t.Fatal(err)
			}
			return res.Meas.Footprint()
		}
		best, worst := foot(FootprintBest), foot(FootprintWorst)
		for _, f := range []Formats{Uncompressed, StaticBP, CostBased, BaseOnly} {
			if got := foot(f); got < best || got > worst {
				t.Errorf("%s series %d: footprint %d outside [best %d, worst %d]", q, f, got, best, worst)
			}
		}
	}
}

// TestDriverRunVerifies: a reference with one row's sum changed makes Run
// and RunMonetDB fail, so a run that skipped the check would fail here.
func TestDriverRunVerifies(t *testing.T) {
	d := getDriver(t)
	bad := *d
	bad.refs = make(map[Query][]Row, len(d.refs))
	for q, rows := range d.refs {
		bad.refs[q] = rows
	}
	rows := append([]Row(nil), d.refs[Q21]...)
	rows[len(rows)/2].Sum++
	bad.refs[Q21] = rows

	for _, s := range []Series{{Formats: Uncompressed}, {Formats: CostBased, Style: vector.Vec512, Specialized: true}} {
		if _, _, err := bad.Run(Q21, s); err == nil || !strings.Contains(err.Error(), "differs from reference") {
			t.Fatalf("%+v: Run with a wrong reference returned %v", s, err)
		}
		if _, _, err := bad.Run(Q11, s); err != nil {
			t.Fatalf("%+v: untouched query failed: %v", s, err)
		}
	}
	if _, err := bad.RunMonetDB(Q21, false); err == nil || !strings.Contains(err.Error(), "differs from reference") {
		t.Fatalf("RunMonetDB with a wrong reference returned %v", err)
	}
}

// TestDriverRuntimeSearchPerDegree: the greedy runtime search is cached per
// specialized degree, so a series is searched under the degree it runs with.
func TestDriverRuntimeSearchPerDegree(t *testing.T) {
	d := getDriver(t)
	generic := Series{Formats: RuntimeBest, Style: vector.Vec512}
	special := Series{Formats: RuntimeBest, Style: vector.Vec512, Specialized: true}
	a1, err := d.assignment(Q11, generic)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := d.assignment(Q11, special)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("runtime searches of different specialized degrees share one cache entry")
	}
	if again, _ := d.assignment(Q11, generic); again != a1 {
		t.Fatal("runtime search not cached")
	}
	// The other series ignore style and degree.
	c1, _ := d.assignment(Q11, Series{Formats: CostBased})
	c2, _ := d.assignment(Q11, Series{Formats: CostBased, Style: vector.Vec512, Specialized: true})
	if c1 == nil || c1 != c2 {
		t.Fatal("cost-based combination not shared across styles")
	}
}
