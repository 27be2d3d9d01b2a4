package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	ms "morphstore"
)

// stateSeq tells the reader which data states a query may have seen. The
// writer numbers its mutations 1, 2, ...; state s holds s mod
// len(stateRefs) appended batches, because the delete at the end of a cycle
// returns the table to state 0. pending is raised before a mutation call and
// committed after it returns, so a query whose snapshot was pinned between a
// read of committed and a later read of pending saw a state in that range.
type stateSeq struct {
	pending, committed atomic.Int64
}

// reader is the closed-loop client running the 13 queries round robin, one
// flight (pass over the 13) after another.
type reader struct {
	ctx  context.Context
	es   *engineSet
	in   *inputs
	st   *stateSeq
	acct *accounting
	rec  *recorder

	verified         int         // queries whose result matched
	lat              [][]float64 // untraced Execute latency per query, ms
	untraced, traced flightTime  // flight counts and time per kind
	flights          []flightAgg // one per traced flight
	inter            []float64   // Σ InterBytes per flight
	mem              memDelta    // Go heap activity over untraced flights
}

// flightTime sums the wall time of flights of one kind.
type flightTime struct {
	queries int
	wall    time.Duration
}

func (f flightTime) qps() float64 {
	if f.wall <= 0 {
		return 0
	}
	return float64(f.queries) / f.wall.Seconds()
}

// memDelta accumulates runtime.MemStats differences.
type memDelta struct {
	queries             int
	allocBytes, gcCount uint64
}

func newReader(ctx context.Context, es *engineSet, in *inputs, st *stateSeq, acct *accounting, rec *recorder) *reader {
	return &reader{ctx: ctx, es: es, in: in, st: st, acct: acct, rec: rec,
		lat: make([][]float64, len(ms.SSBQueries))}
}

// run executes flights until the deadline passes. With tracing, every
// second flight is traced and the others are timed as in the untraced run,
// so that both are measured under the same conditions.
func (rd *reader) run(deadline time.Time, tracing bool) {
	for i := 0; ; i++ {
		if time.Now().After(deadline) && (i >= 2 || (!tracing && i >= 1)) {
			return
		}
		traced := tracing && i%2 == 1
		var before runtime.MemStats
		if tracing && !traced {
			runtime.ReadMemStats(&before)
		}
		start := time.Now()
		n := rd.flight(traced)
		wall := time.Since(start)
		if traced {
			rd.traced.queries += n
			rd.traced.wall += wall
			continue
		}
		rd.untraced.queries += n
		rd.untraced.wall += wall
		if tracing {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			rd.mem.queries += n
			rd.mem.allocBytes += after.TotalAlloc - before.TotalAlloc
			rd.mem.gcCount += uint64(after.NumGC - before.NumGC)
		}
	}
}

// flight runs the 13 queries once, verifies each result against the
// reference of every data state the query may have seen, and returns how
// many queries it ran.
func (rd *reader) flight(traced bool) int {
	parent := -1
	if traced {
		parent = rd.rec.reserve("flight", "", -1)
	}
	start := time.Now()
	var stats []ms.QueryStats
	inter := 0
	for qi, q := range ms.SSBQueries {
		var opts []ms.Option
		var qs ms.QueryStats
		id := -1
		if traced {
			id = rd.rec.reserve("execute", string(q), parent)
			opts = []ms.Option{ms.WithExecStats(&qs),
				ms.WithTracer(&opTracer{r: rd.rec, parent: id, query: string(q), begun: map[int]time.Time{}})}
		}
		lo := rd.st.committed.Load()
		t0 := time.Now()
		res, err := rd.es.preps[qi].Execute(rd.ctx, opts...)
		t1 := time.Now()
		hi := rd.st.pending.Load()
		rd.rec.finish(id, t0, t1)
		if !rd.acct.record(opExecute, err) {
			fmt.Fprintf(os.Stderr, "Q%s: %v\n", q, err)
			continue
		}
		if !rd.verify(qi, res, lo, hi) {
			rd.acct.mismatch()
			fmt.Fprintf(os.Stderr, "Q%s: result differs from the reference of states %d..%d\n", q, lo, hi)
			continue
		}
		rd.verified++
		inter += res.Meas.InterBytes
		if traced {
			stats = append(stats, qs)
		} else {
			rd.lat[qi] = append(rd.lat[qi], ms64(t1.Sub(t0)))
		}
	}
	rd.inter = append(rd.inter, float64(inter))
	if traced {
		rd.rec.finish(parent, start, time.Now())
		rd.flights = append(rd.flights, aggregateFlight(stats, inter))
	}
	return len(ms.SSBQueries)
}

// verify reports whether a result equals the reference of some data state
// in [lo, hi].
func (rd *reader) verify(qi int, res *ms.Result, lo, hi int64) bool {
	rows, err := ms.ExtractSSBResult(ms.SSBQueries[qi], res)
	if err != nil {
		return false
	}
	n := int64(len(rd.in.stateRefs))
	for s := lo; s <= hi && s < lo+n; s++ {
		if rowsEqual(rows, rd.in.stateRefs[s%n][qi]) {
			return true
		}
	}
	return false
}

// latencies returns every untraced Execute latency, ms.
func (rd *reader) latencies() []float64 {
	var all []float64
	for _, l := range rd.lat {
		all = append(all, l...)
	}
	return all
}

// writer is the closed-loop ingest client of ingest-mixed. Each cycle
// streams the second half of lineorder in as CSV batches, remorphs after
// every remorphEvery batches and after the last, verifies all 13 queries
// at the full state, then deletes the appended rows and remorphs again.
type writer struct {
	ctx  context.Context
	es   *engineSet
	in   *inputs
	st   *stateSeq
	acct *accounting
	rec  *recorder

	appended, deleted int64
	busy              time.Duration // ingest, remorph and delete calls
	cycles            int
	batchMs           []float64
	remorphMs         []float64
	deleteMs          []float64
	tailPeak          int
	bytesPeak         int64
	base, inter       []float64 // at the full state of each completed cycle
}

// rowsPerSecond is rows appended ÷ writer busy time.
func (wr *writer) rowsPerSecond() float64 {
	if wr.busy <= 0 {
		return 0
	}
	return float64(wr.appended) / wr.busy.Seconds()
}

// run cycles until the deadline passes, finishing at least one cycle.
func (wr *writer) run(deadline time.Time) error {
	k := len(wr.in.batches)
	var seq int64
	mutate := func(kind opKind, name string, parent int, f func() error) (time.Duration, error) {
		seq++
		wr.st.pending.Store(seq)
		d, err := wr.rec.timed(name, "", parent, f)
		wr.st.committed.Store(seq)
		wr.busy += d
		if !wr.acct.record(kind, err) {
			return d, fmt.Errorf("%s: %w", name, err)
		}
		return d, nil
	}
	remorph := func(parent int) error {
		d, err := wr.rec.timed("remorph", "", parent, func() error { return wr.es.eng.Remorph(wr.ctx, "lineorder") })
		wr.busy += d
		if !wr.acct.record(opRemorph, err) {
			return fmt.Errorf("remorph: %w", err)
		}
		wr.remorphMs = append(wr.remorphMs, ms64(d))
		return nil
	}
	for wr.cycles == 0 || time.Now().Before(deadline) {
		cycle := wr.rec.reserve("cycle", "", -1)
		start := time.Now()
		rows := 0
		for j, batch := range wr.in.batches {
			if wr.cycles > 0 && time.Now().After(deadline) {
				wr.rec.finish(cycle, start, time.Now())
				return nil
			}
			var n int
			d, err := mutate(opIngest, "ingest", cycle, func() (err error) {
				n, err = ms.Ingest(wr.ctx, wr.es.eng, "lineorder", ms.NewCSVSource(bytes.NewReader(batch)), ms.WithBatchRows(batchRows))
				return err
			})
			if err != nil {
				return err
			}
			rows += n
			wr.appended += int64(n)
			wr.batchMs = append(wr.batchMs, ms64(d))
			if wr.rec != nil { // the delta gauges are per-layer metrics of the traced run
				st := wr.es.eng.Stats()
				wr.tailPeak = max(wr.tailPeak, st.DeltaRows)
				wr.bytesPeak = max(wr.bytesPeak, st.DeltaBytes)
			}
			if (j+1)%remorphEvery == 0 || j == k-1 {
				if err := remorph(cycle); err != nil {
					return err
				}
			}
		}
		if err := wr.checkFull(cycle, seq); err != nil {
			return err
		}
		positions := make([]uint64, rows)
		for i := range positions {
			positions[i] = uint64(wr.in.half + i)
		}
		d, err := mutate(opDelete, "delete", cycle, func() error { return wr.es.eng.Delete(wr.ctx, "lineorder", positions) })
		if err != nil {
			return err
		}
		wr.deleted += int64(rows)
		wr.deleteMs = append(wr.deleteMs, ms64(d))
		if err := remorph(cycle); err != nil {
			return err
		}
		wr.cycles++
		wr.rec.finish(cycle, start, time.Now())
	}
	return nil
}

// checkFull verifies all 13 queries at the full state and measures the
// footprint there: base_mb and inter_mb of ingest-mixed.
func (wr *writer) checkFull(parent int, seq int64) error {
	full := wr.in.stateRefs[len(wr.in.stateRefs)-1]
	if n := int64(len(wr.in.stateRefs)); seq%n != n-1 {
		return fmt.Errorf("writer at state %d, not at the full state", seq)
	}
	inter := 0
	for qi, q := range ms.SSBQueries {
		var res *ms.Result
		_, err := wr.rec.timed("verify_execute", string(q), parent, func() (err error) {
			res, err = wr.es.preps[qi].Execute(wr.ctx)
			return err
		})
		if !wr.acct.record(opExecute, err) {
			return fmt.Errorf("Q%s at the full state: %w", q, err)
		}
		if !matches(q, res, full[qi]) {
			wr.acct.mismatch()
			return fmt.Errorf("Q%s at the full state: result differs from the full-data reference", q)
		}
		inter += res.Meas.InterBytes
	}
	base, err := wr.es.baseBytes(wr.ctx, wr.acct, wr.rec, parent)
	if err != nil {
		return err
	}
	wr.base = append(wr.base, float64(base))
	wr.inter = append(wr.inter, float64(inter))
	return nil
}
