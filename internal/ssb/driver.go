package ssb

import (
	"fmt"
	"time"

	"morphstore/internal/columns"
	"morphstore/internal/core"
	"morphstore/internal/monetsim"
	"morphstore/internal/vector"
)

// Formats names how a Series picks the format combination of one query.
type Formats uint8

// The format combinations of the paper's SSB figures (Figs. 1, 7–10).
const (
	// Uncompressed leaves every column uncompressed.
	Uncompressed Formats = iota
	// StaticBP assigns static BP to every base column and intermediate.
	StaticBP
	// CostBased takes every column's format from the gray-box cost model
	// (core.CostBasedAssignment).
	CostBased
	// BaseOnly takes the cost model's base-column formats and leaves the
	// intermediates uncompressed (Fig. 8).
	BaseOnly
	// FootprintBest and FootprintWorst are the smallest and the largest
	// combination of the exhaustive per-column footprint search
	// (core.FootprintSearch, Fig. 7).
	FootprintBest
	FootprintWorst
	// RuntimeBest is the greedy runtime search (core.RuntimeGreedySearch),
	// run under the series' style and specialized-operator degree.
	RuntimeBest
)

// Series is one line of the paper's SSB figures: a format combination per
// query and the processing style and specialized-operator degree it runs
// under.
type Series struct {
	Formats     Formats
	Style       vector.Style
	Specialized bool
}

// Driver runs the paper's SSB experiments. It holds one generated instance,
// the 13 query plans and their row-wise reference results, and caches each
// query's format combination per series. It is not safe for concurrent use.
type Driver struct {
	Data  *Data
	Plans map[Query]*core.Plan

	repeats int // N of every min-of-N runtime, the runtime search's included
	refs    map[Query][]Row
	assigns map[assignKey]*core.Assignment
	monet   map[bool]*monetsim.DB // by narrow; built on first use
}

type assignKey struct {
	q Query
	s Series
}

// NewDriver generates the SSB instance at scale factor sf and builds the
// plans and references of all 13 queries. Every runtime the driver measures
// is the minimum over repeats executions.
func NewDriver(sf float64, seed int64, repeats int) (*Driver, error) {
	d, err := Generate(sf, seed)
	if err != nil {
		return nil, err
	}
	return newDriver(d, repeats)
}

func newDriver(data *Data, repeats int) (*Driver, error) {
	d := &Driver{
		Data: data, Plans: make(map[Query]*core.Plan), repeats: repeats,
		refs:    make(map[Query][]Row),
		assigns: make(map[assignKey]*core.Assignment),
		monet:   make(map[bool]*monetsim.DB),
	}
	for _, q := range Queries {
		p, err := BuildPlan(q, data.Dicts)
		if err != nil {
			return nil, err
		}
		d.Plans[q] = p
		if d.refs[q], err = Reference(q, data); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Run executes query q under series s: it encodes the base columns in the
// series' formats, prepares the plan once on a single-worker engine (the
// paper measures sequential operator-at-a-time processing), checks the
// first execution against the reference and returns that result with the
// minimum engine-measured runtime.
func (d *Driver) Run(q Query, s Series) (*core.Result, time.Duration, error) {
	a, err := d.assignment(q, s)
	if err != nil {
		return nil, 0, err
	}
	enc, err := d.Data.DB.Encode(a.Base)
	if err != nil {
		return nil, 0, err
	}
	return core.RunAssignment(enc, d.Plans[q], a, s.Style, s.Specialized, d.repeats,
		func(res *core.Result) error {
			got, err := ExtractResult(q, res)
			if err != nil {
				return err
			}
			return d.verify(q, got, "engine")
		})
}

// RunMonetDB executes query q on the MonetDB-style baseline (narrow: the
// narrowest fitting column types), checks the first result against the
// reference and returns the minimum runtime.
func (d *Driver) RunMonetDB(q Query, narrow bool) (time.Duration, error) {
	mdb, ok := d.monet[narrow]
	if !ok {
		var err error
		if mdb, err = monetsim.NewDB(d.Data.DB, narrow); err != nil {
			return 0, err
		}
		d.monet[narrow] = mdb
	}
	checked := false
	return core.MinOfN(d.repeats, func() (time.Duration, error) {
		res, err := monetsim.Execute(d.Plans[q], mdb)
		if err != nil {
			return 0, err
		}
		if !checked {
			got, err := ExtractRows(q, res.Cols)
			if err != nil {
				return 0, err
			}
			if err := d.verify(q, got, "monetsim"); err != nil {
				return 0, err
			}
			checked = true
		}
		return res.Runtime, nil
	})
}

func (d *Driver) verify(q Query, got []Row, engine string) error {
	if !RowsEqual(got, d.refs[q]) {
		return fmt.Errorf("ssb %s: %s result differs from reference", q, engine)
	}
	return nil
}

// assignment returns (cached) the format combination of series s for q.
// Only the runtime search depends on the style and specialized degree.
func (d *Driver) assignment(q Query, s Series) (*core.Assignment, error) {
	if s.Formats != RuntimeBest {
		s = Series{Formats: s.Formats}
	}
	key := assignKey{q, s}
	if a, ok := d.assigns[key]; ok {
		return a, nil
	}
	p, db := d.Plans[q], d.Data.DB
	var a *core.Assignment
	var err error
	switch s.Formats {
	case Uncompressed:
		a = core.NewAssignment()
	case StaticBP:
		a = core.NewAssignment()
		for _, name := range p.BaseColumns() {
			a.Base[name] = columns.StaticBPDesc(0)
		}
		for _, name := range p.IntermediateNames() {
			a.Inter[name] = columns.StaticBPDesc(0)
		}
	case CostBased:
		a, err = core.CostBasedAssignment(p, db)
	case BaseOnly:
		var full *core.Assignment
		if full, err = d.assignment(q, Series{Formats: CostBased}); err == nil {
			a = core.NewAssignment()
			for k, v := range full.Base {
				a.Base[k] = v
			}
		}
	case FootprintBest, FootprintWorst:
		var best, worst *core.Assignment
		if best, worst, err = core.FootprintSearch(p, db); err == nil {
			d.assigns[assignKey{q, Series{Formats: FootprintBest}}] = best
			d.assigns[assignKey{q, Series{Formats: FootprintWorst}}] = worst
			a = d.assigns[key]
		}
	case RuntimeBest:
		a, err = core.RuntimeGreedySearch(p, db, s.Style, s.Specialized, false, d.repeats)
	default:
		err = fmt.Errorf("ssb: unknown format series %d", s.Formats)
	}
	if err != nil {
		return nil, err
	}
	d.assigns[key] = a
	return a, nil
}
