// Command ssbbench is the end-to-end benchmark of MorphStore-Go: the 13 Star
// Schema Benchmark queries at SF 0.1, run by a closed-loop client against an
// engine with two workers, with every result checked against the row-wise
// reference. It drives only the public morphstore API.
//
// Workloads (see interactions.json for why each exists and which metric
// each layer metric should move):
//
//   - ssb-compressed: base columns encoded with the merged cost-based
//     formats, every query prepared cost-based with specialized operators;
//   - ssb-uncompressed: the same data and queries, all uncompressed;
//   - ingest-mixed: a writer streams half of lineorder in as CSV through
//     Ingest, remorphs, checks, deletes and repeats, beside a reader.
//
// Usage, from the repository root:
//
//	bash ssbbench/run.sh --workload ssb-compressed --seed 42 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones,
// measured untraced; with --trace 1 they are the per-layer ones, and every
// span is written to <out>/spans/<workload>-<seed>.jsonl. A result mismatch
// or a failed operation makes the exit code non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// header identifies the conditions of a run, so that runs from different
// hosts are never compared blindly.
type header struct {
	Benchmark   string  `json:"benchmark"`
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	SF          float64 `json:"sf"`
	Seconds     int     `json:"seconds"`
	Trace       bool    `json:"trace"`
	Parallelism int     `json:"engine_parallelism"`
	Readers     int     `json:"reader_clients"`
	Writers     int     `json:"writer_clients"`
	Nproc       int     `json:"nproc"`
	Gomaxprocs  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("ssbbench", flag.ContinueOnError)
	name := fs.String("workload", "ssb-compressed", "workload: ssb-compressed, ssb-uncompressed or ingest-mixed")
	seed := fs.Int64("seed", 42, "seed of the generated data")
	seconds := fs.Int("seconds", 30, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for span files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ssbbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *trace)
		return 2
	}
	tracing := *trace == 1
	hdr := header{Benchmark: "ssbbench", Workload: *name, Seed: *seed, SF: scaleFactor,
		Seconds: *seconds, Trace: tracing, Parallelism: parallelism, Readers: 1,
		Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if w.ingest {
		hdr.Writers = 1
	}
	hb, _ := json.Marshal(hdr) // a struct of plain fields always marshals
	fmt.Printf("# %s\n", hb)

	res, err := measure(context.Background(), w, hdr, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssbbench: %v\n", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-30s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	rb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssbbench: %v\n", err)
		return 1
	}
	fmt.Println(string(rb))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// measure runs one workload: inputs, repeated set-up, the timed phase and
// the checks. It returns an error only when the run could not complete; a
// completed run with wrong results returns Correct == false.
func measure(ctx context.Context, w workload, hdr header, out string) (*result, error) {
	in, err := prepareInputs(w, hdr.Seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	if in.base != nil {
		fmt.Printf("# base: %d columns encoded with the merged cost-based formats; disputed, so static_bp: %v\n", len(in.base), in.disputed)
	}
	var rec *recorder
	if hdr.Trace {
		rec = newRecorder()
	}
	acct := &accounting{}
	var sets []*engineSet
	var setupTotal time.Duration
	for len(sets) < setupMinReps || (setupTotal < setupMinTime && len(sets) < setupMaxReps) {
		if len(sets) > 0 {
			sets[len(sets)-1].close()
		}
		es, err := w.setUp(ctx, in, acct, rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		sets = append(sets, es)
		setupTotal += es.setup
	}
	es := sets[len(sets)-1]
	defer es.close()
	if err := es.prepareProbe(in); err != nil {
		return nil, fmt.Errorf("footprint probe: %w", err)
	}
	var gbps float64
	if hdr.Trace {
		if gbps, err = decompressRate(es.eng.DB(), rec); err != nil {
			return nil, err
		}
	}
	base := 0
	if !w.ingest {
		if base, err = es.baseBytes(ctx, acct, rec, -1); err != nil {
			return nil, err
		}
	}

	st := &stateSeq{}
	rd := newReader(ctx, es, in, st, acct, rec)
	var wr *writer
	werr := make(chan error, 1)
	start := time.Now()
	deadline := start.Add(time.Duration(hdr.Seconds) * time.Second)
	if w.ingest {
		wr = &writer{ctx: ctx, es: es, in: in, st: st, acct: acct, rec: rec}
		go func() { werr <- wr.run(deadline) }()
	}
	rd.run(deadline, hdr.Trace)
	elapsed := time.Since(start)
	correct := acct.mismatches.Load() == 0
	if wr != nil {
		if err := <-werr; err != nil {
			fmt.Fprintf(os.Stderr, "writer: %v\n", err)
			correct = false
		}
		s := es.eng.Stats()
		if s.AppendedRows != wr.appended || s.DeletedRows != wr.deleted {
			fmt.Fprintf(os.Stderr, "row accounting: engine counted %d appended and %d deleted rows, the writer sent %d and %d\n",
				s.AppendedRows, s.DeletedRows, wr.appended, wr.deleted)
			correct = false
		}
	}
	att, failed := acct.totals()
	fmt.Printf("# operations (attempted/failed):%s\n", acct.summary())
	fmt.Printf("# error_rate %g ratio (failed / attempted; in the result line, not a metric, because it reads 0 on a correct program)\n", acct.errorRate())
	res := &result{Correct: correct, Attempted: att, Failed: failed}

	if hdr.Trace {
		var dictBytes int64
		if w.ingest {
			if d := es.eng.Snapshot().Dict("lineorder", "lo_shipmode"); d != nil {
				dictBytes = d.Bytes()
			}
		}
		res.Metrics = layerMetrics(sets, rd, wr, gbps, dictBytes)
		path := filepath.Join(out, "spans", fmt.Sprintf("%s-%d.jsonl", hdr.Workload, hdr.Seed))
		if err := rec.write(path, hdr); err != nil {
			return nil, fmt.Errorf("spans: %w", err)
		}
		fmt.Printf("# spans: %s\n", path)
		return res, nil
	}

	lat := rd.latencies()
	if p := tailPercentile(len(lat)); p < 99 {
		fmt.Fprintf(os.Stderr, "query_p99_ms: only %d samples, so fewer than %d lie beyond p99 (highest reportable: p%g)\n", len(lat), minBeyond, p)
	}
	fmt.Printf("# %d Execute latencies: p50 and p99 over all of them; setup_s is the median of %d set-ups\n", len(lat), len(sets))
	if wr != nil {
		fmt.Printf("# ingest_rows_per_s %g rows/s (%d rows appended; the traced run reports it as ingest.rows_per_s)\n",
			wr.rowsPerSecond(), wr.appended)
	}
	res.Metrics = endToEndMetrics(sets, rd, wr, base, elapsed)
	return res, nil
}
