package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	ms "morphstore"
)

// The fixed workload parameters. Every workload uses SSB at scaleFactor on
// an engine with parallelism workers and one closed-loop reading client;
// ingest-mixed adds one closed-loop writer. Neither drives more goroutines
// than the two CPUs of the hosts the bounds were set on.
const (
	scaleFactor = 0.1
	parallelism = 2
	// setup_s is the median of at least setupMinReps set-ups, repeated
	// until they took setupMinTime, but at most setupMaxReps.
	setupMinReps = 3
	setupMaxReps = 15
	setupMinTime = 3 * time.Second
	batchRows    = 8192
	remorphEvery = 16 // ingest batches between explicit remorphs
	memBudget    = 1 << 30
)

// workload is one named configuration of the benchmark.
type workload struct {
	compressed bool // base encoded with the merged cost-based formats, cost-based specialized intermediates
	ingest     bool // half of lineorder is streamed in and deleted again beside the reader
}

var workloads = map[string]workload{
	"ssb-compressed":   {compressed: true},
	"ssb-uncompressed": {},
	"ingest-mixed":     {ingest: true},
}

// shipModes are the SSB ship modes; the generator's lo_shipmode codes index
// this list.
var shipModes = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}

// inputs are everything derived from the seed before anything is timed:
// the generated data, plans, reference results and, for ingest-mixed, the
// CSV batches.
type inputs struct {
	data  *ms.SSBData
	raw   map[string]map[string][]uint64
	plans []*ms.Plan
	base  map[string]ms.FormatDesc // nil: base stays uncompressed
	// disputed lists the base columns the queries' cost-based choices
	// disagree on, encoded StaticBP.
	disputed []string

	// stateRefs[k][qi] is the reference result of query qi at data state k.
	// Read-only workloads have one state; ingest-mixed has one per number
	// of appended batches, from 0 (first half of lineorder) to len(batches)
	// (all of it).
	stateRefs [][][]ms.SSBRow

	half     int      // lineorder rows present at state 0 (ingest-mixed)
	shipmode []string // lo_shipmode as strings, all rows (ingest-mixed)
	batches  [][]byte // the second half of lineorder as CSV chunks (ingest-mixed)
}

// prepareInputs generates the data for seed and derives everything the
// timed phases compare against.
func prepareInputs(w workload, seed int64) (*inputs, error) {
	data, err := ms.GenerateSSB(scaleFactor, seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{data: data, raw: make(map[string]map[string][]uint64)}
	for tn, t := range data.DB.Tables {
		cols := make(map[string][]uint64, len(t.Cols))
		for cn, c := range t.Cols {
			if cols[cn], err = ms.Decompress(c); err != nil {
				return nil, err
			}
		}
		in.raw[tn] = cols
	}
	full := make([][]ms.SSBRow, len(ms.SSBQueries))
	var perQuery []map[string]ms.FormatDesc
	for qi, q := range ms.SSBQueries {
		p, err := ms.BuildSSBPlan(q, data)
		if err != nil {
			return nil, err
		}
		in.plans = append(in.plans, p)
		if full[qi], err = ms.SSBReference(q, data); err != nil {
			return nil, err
		}
		if w.compressed || w.ingest {
			a, err := ms.CostBasedAssignment(p, data.DB)
			if err != nil {
				return nil, fmt.Errorf("base formats of Q%s: %w", q, err)
			}
			perQuery = append(perQuery, a.Base)
		}
	}
	if perQuery != nil {
		in.base, in.disputed = mergeBaseFormats(perQuery)
	}
	if !w.ingest {
		in.stateRefs = [][][]ms.SSBRow{full}
		return in, nil
	}
	return in, in.prepareIngest(full)
}

// prepareIngest renders the second half of lineorder as CSV batches and
// computes the reference of every state the writer passes through, as the
// base half's result merged with one batch's result at a time.
func (in *inputs) prepareIngest(full [][]ms.SSBRow) error {
	lo := in.raw["lineorder"]
	n := in.data.Lineorder
	in.half = n / 2
	in.shipmode = make([]string, n)
	for i, code := range lo["lo_shipmode"] {
		in.shipmode[i] = shipModes[code]
	}
	names := sortedKeys(lo)
	header := strings.Join(names, ",") + "\n"

	refs, err := in.referenceOf(0, in.half)
	if err != nil {
		return err
	}
	in.stateRefs = [][][]ms.SSBRow{refs}
	for a := in.half; a < n; a += batchRows {
		b := min(a+batchRows, n)
		buf := []byte(header)
		for i := a; i < b; i++ {
			for c, cn := range names {
				if c > 0 {
					buf = append(buf, ',')
				}
				if cn == "lo_shipmode" {
					buf = append(buf, in.shipmode[i]...)
				} else {
					buf = strconv.AppendUint(buf, lo[cn][i], 10)
				}
			}
			buf = append(buf, '\n')
		}
		in.batches = append(in.batches, buf)
		part, err := in.referenceOf(a, b)
		if err != nil {
			return err
		}
		next := make([][]ms.SSBRow, len(refs))
		for qi := range refs {
			next[qi] = mergeRows(refs[qi], part[qi])
		}
		refs = next
		in.stateRefs = append(in.stateRefs, refs)
	}
	for qi, q := range ms.SSBQueries {
		if !rowsEqual(refs[qi], full[qi]) {
			return fmt.Errorf("merged per-batch references of Q%s differ from the full-data reference", q)
		}
	}
	return nil
}

// referenceOf computes every query's reference over lineorder rows [a, b).
func (in *inputs) referenceOf(a, b int) ([][]ms.SSBRow, error) {
	d := *in.data
	d.DB = ms.NewDB()
	d.Lineorder = b - a
	for tn, cols := range in.raw {
		part := cols
		if tn == "lineorder" {
			part = make(map[string][]uint64, len(cols))
			for cn, v := range cols {
				part[cn] = v[a:b]
			}
		}
		if err := d.DB.AddTable(tn, part); err != nil {
			return nil, err
		}
	}
	out := make([][]ms.SSBRow, len(ms.SSBQueries))
	for qi, q := range ms.SSBQueries {
		var err error
		if out[qi], err = ms.SSBReference(q, &d); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// addTables registers the workload's base tables in db. ingest-mixed starts
// with the first half of lineorder and keeps lo_shipmode as a string column.
func (w workload) addTables(db *ms.DB, in *inputs) error {
	for tn, cols := range in.raw {
		if tn != "lineorder" || !w.ingest {
			if err := db.AddTable(tn, cols); err != nil {
				return err
			}
			continue
		}
		part := make(map[string][]uint64, len(cols))
		for cn, v := range cols {
			if cn != "lo_shipmode" {
				part[cn] = v[:in.half:in.half] // appends must never reach the second half
			}
		}
		if err := db.AddTable(tn, part); err != nil {
			return err
		}
		if err := db.AddStringColumn(tn, "lo_shipmode", in.shipmode[:in.half]); err != nil {
			return err
		}
	}
	return nil
}

func (w workload) engineOptions() []ms.Option {
	opts := []ms.Option{ms.WithParallelism(parallelism)}
	if w.ingest {
		opts = append(opts, ms.WithMemoryBudget(memBudget))
	}
	return opts
}

func (w workload) prepareOptions() []ms.Option {
	switch {
	case w.compressed:
		return []ms.Option{ms.WithCostBasedFormats(), ms.WithSpecialized(true)}
	case w.ingest:
		return []ms.Option{ms.WithCostBasedFormats()}
	}
	return nil
}

// engineSet is one set-up engine with the 13 prepared queries.
type engineSet struct {
	eng   *ms.Engine
	preps []*ms.Prepared
	probe *ms.Prepared // scans and sums every base column, for base_mb

	setup, encode, prepare time.Duration
}

// setUp performs the program's own set-up and times it: tables, encoding,
// engine, 13 Prepare calls and one verified warm-up flight. Verification
// itself is not timed.
func (w workload) setUp(ctx context.Context, in *inputs, acct *accounting, rec *recorder) (*engineSet, error) {
	es := &engineSet{}
	root := rec.reserve("setup", "", -1)
	start := time.Now()
	step := func(name, query string, f func() error) error {
		d, err := rec.timed(name, query, root, f)
		es.setup += d
		return err
	}
	db := ms.NewDB()
	if err := step("add_tables", "", func() error { return w.addTables(db, in) }); err != nil {
		return nil, err
	}
	if in.base != nil {
		t0 := es.setup
		if err := step("encode", "", func() (err error) { db, err = db.Encode(in.base); return err }); err != nil {
			return nil, err
		}
		es.encode = es.setup - t0
	}
	_ = step("new_engine", "", func() error { es.eng = ms.NewEngine(db, w.engineOptions()...); return nil })
	t0 := es.setup
	for qi, q := range ms.SSBQueries {
		var p *ms.Prepared
		if err := step("prepare", string(q), func() (err error) {
			p, err = es.eng.Prepare(in.plans[qi], w.prepareOptions()...)
			return err
		}); err != nil {
			es.close()
			return nil, fmt.Errorf("prepare Q%s: %w", q, err)
		}
		es.preps = append(es.preps, p)
	}
	es.prepare = es.setup - t0
	for qi, q := range ms.SSBQueries {
		var res *ms.Result
		err := step("warmup_execute", string(q), func() (err error) {
			res, err = es.preps[qi].Execute(ctx)
			return err
		})
		if !acct.record(opExecute, err) {
			es.close()
			return nil, fmt.Errorf("warm-up Q%s: %w", q, err)
		}
		if !matches(q, res, in.stateRefs[0][qi]) {
			acct.mismatch()
			es.close()
			return nil, fmt.Errorf("warm-up Q%s: result differs from the reference", q)
		}
	}
	rec.finish(root, start, time.Now())
	return es, nil
}

// prepareProbe prepares the footprint probe: one plan scanning and summing
// every stored column, whose Meas.BaseBytes is the physical size of the
// base data the engine serves (through the delta store for written tables).
func (es *engineSet) prepareProbe(in *inputs) error {
	b := ms.NewPlanBuilder()
	for _, tn := range sortedKeys(in.raw) {
		for _, cn := range sortedKeys(in.raw[tn]) {
			b.Result(b.SumWhole("probe."+tn+"."+cn, b.Scan(tn, cn)))
		}
	}
	p, err := b.Build()
	if err != nil {
		return err
	}
	es.probe, err = es.eng.Prepare(p)
	return err
}

// baseBytes executes the footprint probe.
func (es *engineSet) baseBytes(ctx context.Context, acct *accounting, rec *recorder, parent int) (int, error) {
	var res *ms.Result
	_, err := rec.timed("probe_execute", "", parent, func() (err error) {
		res, err = es.probe.Execute(ctx)
		return err
	})
	if !acct.record(opExecute, err) {
		return 0, fmt.Errorf("footprint probe: %w", err)
	}
	return res.Meas.BaseBytes, nil
}

func (es *engineSet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = es.eng.Close(ctx) // the engine is discarded; a slow drain only delays exit
}

// matches reports whether an Execute result equals a reference result; a
// result that cannot be extracted does not match.
func matches(q ms.SSBQuery, res *ms.Result, ref []ms.SSBRow) bool {
	rows, err := ms.ExtractSSBResult(q, res)
	return err == nil && rowsEqual(rows, ref)
}
