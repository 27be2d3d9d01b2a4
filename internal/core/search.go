package core

import (
	"context"
	"fmt"
	"time"

	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/vector"
)

// Assignment is a complete format combination for one plan: formats for the
// encoded base columns and for every intermediate.
type Assignment struct {
	Base  map[string]columns.FormatDesc
	Inter map[string]columns.FormatDesc
}

// NewAssignment returns an empty (all-uncompressed) assignment.
func NewAssignment() *Assignment {
	return &Assignment{
		Base:  make(map[string]columns.FormatDesc),
		Inter: make(map[string]columns.FormatDesc),
	}
}

// Clone deep-copies the assignment.
func (a *Assignment) Clone() *Assignment {
	c := NewAssignment()
	for k, v := range a.Base {
		c.Base[k] = v
	}
	for k, v := range a.Inter {
		c.Inter[k] = v
	}
	return c
}

// Candidates returns the admissible formats for the named plan column:
// the paper's five formats, or only the random-access formats for columns
// consumed by project (§4.2, footnote 3).
func Candidates(p *Plan, name string) []columns.FormatDesc {
	if p.RandomAccessed(name) {
		return formats.RandomAccessDescs()
	}
	return formats.PaperDescs()
}

// materializedColumns runs the plan once fully uncompressed, returning the
// uncompressed values of every base column and intermediate by name.
func materializedColumns(p *Plan, db *DB) (map[string][]uint64, error) {
	pr, err := NewEngine(db).Prepare(p, WithKeep(true))
	if err != nil {
		return nil, err
	}
	res, err := pr.Execute(context.Background())
	if err != nil {
		return nil, err
	}
	out := make(map[string][]uint64)
	for name, col := range res.Inter {
		vals, ok := col.Values()
		if !ok {
			vals, err = formats.Decompress(col)
			if err != nil {
				return nil, err
			}
		}
		out[name] = vals
	}
	return out, nil
}

// FootprintSearch determines the best and the worst format combination with
// respect to the total memory footprint. Column footprints add up, so each
// column is optimized independently by exhaustively trying every candidate
// format — exactly the search the paper uses for Fig. 7's footprint series.
func FootprintSearch(p *Plan, db *DB) (best, worst *Assignment, err error) {
	cols, err := materializedColumns(p, db)
	if err != nil {
		return nil, nil, err
	}
	best, worst = NewAssignment(), NewAssignment()
	baseSet := make(map[string]bool)
	for _, name := range p.BaseColumns() {
		baseSet[name] = true
	}
	assign := func(a *Assignment, name string, d columns.FormatDesc) {
		if baseSet[name] {
			a.Base[name] = d
		} else {
			a.Inter[name] = d
		}
	}
	names := append(p.BaseColumns(), p.IntermediateNames()...)
	for _, name := range names {
		vals, ok := cols[name]
		if !ok {
			return nil, nil, fmt.Errorf("core: no materialization for column %q", name)
		}
		var bestDesc, worstDesc columns.FormatDesc
		bestSize, worstSize := -1, -1
		for _, d := range Candidates(p, name) {
			c, err := formats.Compress(vals, d)
			if err != nil {
				return nil, nil, err
			}
			size := c.PhysicalBytes()
			if bestSize < 0 || size < bestSize {
				bestSize, bestDesc = size, d
			}
			if worstSize < 0 || size > worstSize {
				worstSize, worstDesc = size, d
			}
		}
		assign(best, name, bestDesc)
		assign(worst, name, worstDesc)
	}
	return best, worst, nil
}

// encCache pre-encodes base columns in every candidate format so the greedy
// runtime search can swap base formats without repeated morphing.
type encCache struct {
	db   *DB
	cols map[string]map[columns.FormatDesc]*columns.Column
}

func newEncCache(db *DB) *encCache {
	return &encCache{db: db, cols: make(map[string]map[columns.FormatDesc]*columns.Column)}
}

// dbFor assembles a database view with the given base formats.
func (e *encCache) dbFor(base map[string]columns.FormatDesc) (*DB, error) {
	out := NewDB()
	for tn, t := range e.db.Tables {
		nt := &Table{Name: tn, Cols: make(map[string]*columns.Column, len(t.Cols))}
		for cn, col := range t.Cols {
			name := tn + "." + cn
			desc, ok := base[name]
			if !ok || desc.Kind == columns.Uncompressed {
				nt.Cols[cn] = col
				continue
			}
			byDesc, ok := e.cols[name]
			if !ok {
				byDesc = make(map[columns.FormatDesc]*columns.Column)
				e.cols[name] = byDesc
			}
			enc, ok := byDesc[desc]
			if !ok {
				vals, vok := col.Values()
				if !vok {
					var err error
					vals, err = formats.Decompress(col)
					if err != nil {
						return nil, err
					}
				}
				var err error
				enc, err = formats.Compress(vals, desc)
				if err != nil {
					return nil, err
				}
				byDesc[desc] = enc
			}
			nt.Cols[cn] = enc
		}
		out.Tables[tn] = nt
	}
	return out, nil
}

// MinOfN calls run n times (at least once) and returns the smallest
// duration it reported; the minimum denoises scheduler jitter. The first
// error ends the loop.
func MinOfN(n int, run func() (time.Duration, error)) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < n || i == 0; i++ {
		t, err := run()
		if err != nil {
			return 0, err
		}
		if i == 0 || t < best {
			best = t
		}
	}
	return best, nil
}

// RunAssignment prepares p with the intermediate formats of a, the style
// and the specialized-operator degree on a single-worker engine over db,
// whose base columns must already carry a.Base, and executes it repeats
// times (at least once). It returns the first result and the minimum
// engine-measured runtime. check, when non-nil, vets the first result; its
// error ends the run.
func RunAssignment(db *DB, p *Plan, a *Assignment, style vector.Style, specialized bool, repeats int,
	check func(*Result) error) (*Result, time.Duration, error) {
	// Runtime-driven format choices compare sequential operator times;
	// concurrent execution would fold scheduler contention into them.
	pr, err := NewEngine(db, WithParallelism(1)).Prepare(p,
		WithFormats(a.Inter), WithStyle(style), WithSpecialized(specialized))
	if err != nil {
		return nil, 0, err
	}
	var first *Result
	t, err := MinOfN(repeats, func() (time.Duration, error) {
		res, err := pr.Execute(context.Background())
		if err != nil {
			return 0, err
		}
		if first == nil {
			if check != nil {
				if err := check(res); err != nil {
					return 0, err
				}
			}
			first = res
		}
		return res.Meas.Runtime, nil
	})
	if err != nil {
		return nil, 0, err
	}
	return first, t, nil
}

// RuntimeGreedySearch finds a good (or, with maximize, bad) format
// combination with respect to the query runtime using the paper's greedy
// strategy: starting at the base data, fix one column's format at a time by
// trying every candidate, measuring the full query, and keeping the best.
func RuntimeGreedySearch(p *Plan, db *DB, style vector.Style, specialized, maximize bool, repeats int) (*Assignment, error) {
	cache := newEncCache(db)
	a := NewAssignment()
	baseSet := make(map[string]bool)
	for _, name := range p.BaseColumns() {
		baseSet[name] = true
	}
	names := append(p.BaseColumns(), p.IntermediateNames()...)
	for _, name := range names {
		var bestDesc columns.FormatDesc
		var bestT time.Duration
		first := true
		for _, d := range Candidates(p, name) {
			if baseSet[name] {
				a.Base[name] = d
			} else {
				a.Inter[name] = d
			}
			dbv, err := cache.dbFor(a.Base)
			if err != nil {
				return nil, err
			}
			_, t, err := RunAssignment(dbv, p, a, style, specialized, repeats, nil)
			if err != nil {
				return nil, err
			}
			better := t < bestT
			if maximize {
				better = t > bestT
			}
			if first || better {
				bestT, bestDesc, first = t, d, false
			}
		}
		if baseSet[name] {
			a.Base[name] = bestDesc
		} else {
			a.Inter[name] = bestDesc
		}
	}
	return a, nil
}
