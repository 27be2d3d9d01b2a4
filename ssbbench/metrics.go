package main

import (
	"fmt"
	"strings"
	"time"

	ms "morphstore"
)

// opGroup maps the engine's operator kinds onto the per-layer op metrics:
// group covers group and group_next, agg covers sum and sum_grouped.
var opGroup = map[string]string{
	"join": "join", "between": "between", "project": "project",
	"intersect": "intersect", "semijoin": "semijoin",
	"group": "group", "group_next": "group",
	"sum": "agg", "sum_grouped": "agg",
	"select": "select", "calc": "calc",
}

var opMetricNames = []string{"join", "between", "project", "intersect", "semijoin", "group", "agg", "select", "calc"}

// shareMetricNames are the op groups whose share of operator time is
// reported.
var shareMetricNames = []string{"join", "between", "project"}

// flightAgg is the telemetry of one traced flight, summed over its 13
// QueryStats trees.
type flightAgg struct {
	opMs        map[string]float64 // Σ NodeStats.Wall per op group
	wallMs      float64            // Σ NodeStats.Wall over all nodes
	kernelMs    float64
	morsels     int64
	outValues   int64
	seqFallback int
	admissionMs float64 // Σ QueryStats.AdmissionWait
	memPeak     int64   // max QueryStats.MemPeak
	interBytes  int
}

func aggregateFlight(stats []ms.QueryStats, interBytes int) flightAgg {
	f := flightAgg{opMs: make(map[string]float64), interBytes: interBytes}
	for _, qs := range stats {
		f.admissionMs += ms64(qs.AdmissionWait)
		f.memPeak = max(f.memPeak, qs.MemPeak)
		for _, n := range qs.Nodes {
			w := ms64(n.Wall)
			f.wallMs += w
			if g, ok := opGroup[n.Op]; ok {
				f.opMs[g] += w
			}
			f.kernelMs += ms64(n.Kernel)
			f.morsels += n.Morsels
			f.outValues += n.OutValues
			if n.SeqFallback {
				f.seqFallback++
			}
		}
	}
	return f
}

// perFlight returns the median over flights of one flight statistic.
func perFlight(flights []flightAgg, f func(flightAgg) float64) float64 {
	xs := make([]float64, len(flights))
	for i, fl := range flights {
		xs[i] = f(fl)
	}
	return median(xs)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics derives the end-to-end metrics of an untraced run. base
// is the probe's base footprint of a read-only workload; ingest-mixed
// measures base and intermediates at the full state of each cycle instead.
func endToEndMetrics(sets []*engineSet, rd *reader, wr *writer, base int, elapsed time.Duration) map[string]metric {
	var setup []float64
	for _, s := range sets {
		setup = append(setup, s.setup.Seconds())
	}
	baseBytes, inter := float64(base), median(rd.inter)
	if wr != nil {
		baseBytes, inter = median(wr.base), median(wr.inter)
	}
	lat := rd.latencies()
	return map[string]metric{
		"setup_s":       {median(setup), "s"},
		"queries_per_s": {float64(rd.verified) / elapsed.Seconds(), "queries/s"},
		"query_p50_ms":  {median(lat), "ms"},
		"query_p99_ms":  {percentile(lat, 99), "ms"},
		"base_mb":       {baseBytes / mib, "MiB"},
		"inter_mb":      {inter / mib, "MiB"},
	}
}

// layerMetrics derives the per-layer metrics of a traced run. Metrics of a
// layer the workload does not exercise (ingest, delta and dict on the
// read-only workloads, encoding on ssb-uncompressed) read 0.
func layerMetrics(es []*engineSet, rd *reader, wr *writer, decompressGBps float64, dictBytes int64) map[string]metric {
	m := make(map[string]metric)
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	var prepare, encode []float64
	for _, e := range es {
		prepare = append(prepare, ms64(e.prepare))
		encode = append(encode, e.encode.Seconds())
	}
	fl := rd.flights
	put("core.prepare_ms", median(prepare), "ms")
	put("core.admission_wait_ms", perFlight(fl, func(f flightAgg) float64 { return f.admissionMs }), "ms")
	put("core.mem_peak_mb", perFlight(fl, func(f flightAgg) float64 { return float64(f.memPeak) / mib }), "MiB")
	put("core.seq_fallback_nodes", perFlight(fl, func(f flightAgg) float64 { return float64(f.seqFallback) }), "count")
	for _, g := range opMetricNames {
		g := g
		put("ops."+g+".ms", perFlight(fl, func(f flightAgg) float64 { return f.opMs[g] }), "ms")
	}
	for _, g := range shareMetricNames {
		g := g
		put("ops."+g+".share", perFlight(fl, func(f flightAgg) float64 {
			if f.wallMs == 0 {
				return 0
			}
			return f.opMs[g] / f.wallMs
		}), "ratio")
	}
	put("ops.kernel_ms", perFlight(fl, func(f flightAgg) float64 { return f.kernelMs }), "ms")
	put("ops.morsels", perFlight(fl, func(f flightAgg) float64 { return float64(f.morsels) }), "count")
	put("ops.out_values", perFlight(fl, func(f flightAgg) float64 { return float64(f.outValues) }), "count")

	put("formats.encode_s", median(encode), "s")
	put("formats.decompress_gbps", decompressGBps, "GB/s")
	put("formats.inter_bits_per_value", perFlight(fl, func(f flightAgg) float64 {
		if f.outValues == 0 {
			return 0
		}
		return 8 * float64(f.interBytes) / float64(f.outValues)
	}), "bits")

	var batch, remorph, del []float64
	var tailPeak, bytesPeak, rowsPerS, remorphs float64
	if wr != nil {
		batch, remorph, del = wr.batchMs, wr.remorphMs, wr.deleteMs
		tailPeak, bytesPeak = float64(wr.tailPeak), float64(wr.bytesPeak)
		remorphs = float64(len(wr.remorphMs))
		rowsPerS = wr.rowsPerSecond()
	}
	put("ingest.batch_ms_p50", median(batch), "ms")
	put("ingest.batch_ms_p99", percentile(batch, 99), "ms")
	put("ingest.rows_per_s", rowsPerS, "rows/s")
	put("delta.remorph_ms_p50", median(remorph), "ms")
	put("delta.remorph_ms_max", maxOf(remorph), "ms")
	put("delta.remorph_count", remorphs, "count")
	put("delta.delete_ms", median(del), "ms")
	put("delta.tail_rows_peak", tailPeak, "rows")
	put("delta.bytes_peak", bytesPeak, "B")
	put("dict.bytes", float64(dictBytes), "B")

	var allocMB, gcPerK float64
	if rd.mem.queries > 0 {
		allocMB = float64(rd.mem.allocBytes) / mib / float64(rd.mem.queries)
		gcPerK = 1000 * float64(rd.mem.gcCount) / float64(rd.mem.queries)
	}
	put("go.alloc_mb_per_query", allocMB, "MiB")
	put("go.gc_cycles_per_kquery", gcPerK, "count")

	for qi, q := range ms.SSBQueries {
		put("ssb.q"+strings.ReplaceAll(string(q), ".", "_")+".p50_ms", median(rd.lat[qi]), "ms")
	}
	overhead := 0.0
	if u := rd.untraced.qps(); u > 0 {
		overhead = 100 * (u - rd.traced.qps()) / u
	}
	put("trace.overhead_pct", overhead, "%")
	return m
}

// decompressRate decompresses every stored base column three times and
// returns the median rate in GB of decompressed values per second.
func decompressRate(db *ms.DB, rec *recorder) (float64, error) {
	parent := rec.reserve("decompress_base", "", -1)
	start := time.Now()
	var rates []float64
	for round := 0; round < 3; round++ {
		var bytes int
		var total time.Duration
		for _, tn := range sortedKeys(db.Tables) {
			cols := db.Tables[tn].Cols
			for _, cn := range sortedKeys(cols) {
				d, err := rec.timed("decompress", tn+"."+cn, parent, func() error {
					vals, err := ms.Decompress(cols[cn])
					bytes += 8 * len(vals)
					return err
				})
				if err != nil {
					return 0, fmt.Errorf("decompress %s.%s: %w", tn, cn, err)
				}
				total += d
			}
		}
		rates = append(rates, float64(bytes)/total.Seconds()/1e9)
	}
	rec.finish(parent, start, time.Now())
	return median(rates), nil
}
