// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), plus ablations of MorphStore-Go's own design choices.
//
// Each figure-level benchmark executes the complete experiment series per
// iteration (all format combinations, or all 13 SSB queries) and reports
// auxiliary metrics (memory footprints; for the SSB figures also the summed
// engine-measured query runtime) through b.ReportMetric, so a single
// `go test -bench=. -benchmem` regenerates every reported series at bench
// scale. The SSB figures run through the same driver as msrepro
// (internal/ssb), which checks every query result against the reference.
// The paper-style printed tables come from `go run ./cmd/msrepro`.
package morphstore

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/core"
	"morphstore/internal/datagen"
	"morphstore/internal/formats"
	"morphstore/internal/morph"
	"morphstore/internal/ops"
	"morphstore/internal/ssb"
	"morphstore/internal/vector"
)

const (
	benchMicroN = 1 << 20 // micro-benchmark column size (paper: 128 Mi)
	benchSF     = 0.01    // SSB scale factor (paper: 10)
)

// BenchmarkTable1Generate regenerates the four synthetic columns of Table 1.
func BenchmarkTable1Generate(b *testing.B) {
	for _, id := range datagen.All {
		b.Run(id.String(), func(b *testing.B) {
			b.SetBytes(int64(benchMicroN * 8))
			for i := 0; i < b.N; i++ {
				vals := datagen.Generate(id, benchMicroN, 42)
				if len(vals) != benchMicroN {
					b.Fatal("bad size")
				}
			}
		})
	}
}

// BenchmarkFigure5Select regenerates Figure 5: one iteration runs the
// select operator over all 25 input/output format combinations.
func BenchmarkFigure5Select(b *testing.B) {
	descs := formats.PaperDescs()
	for _, id := range datagen.All {
		b.Run(id.String(), func(b *testing.B) {
			vals, needle := datagen.GenerateSelectWorkload(id, benchMicroN, 42)
			inputs := make([]*columns.Column, len(descs))
			for i, d := range descs {
				c, err := formats.Compress(vals, d)
				if err != nil {
					b.Fatal(err)
				}
				inputs[i] = c
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range descs {
					for _, outd := range descs {
						if _, err := ops.Select(inputs[j], bitutil.CmpEq, needle, outd, vector.Vec512); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// BenchmarkFigure6SimpleQuery regenerates Figure 6: the simple query under
// its four format configurations, reporting the footprint.
func BenchmarkFigure6SimpleQuery(b *testing.B) {
	cases := []struct {
		name string
		x, y datagen.ColumnID
	}{
		{"case1_C1_C1", datagen.C1, datagen.C1},
		{"case2_C1_C4", datagen.C1, datagen.C4},
		{"case3_C2_C3", datagen.C2, datagen.C3},
	}
	for _, cse := range cases {
		xvals, needle := datagen.GenerateSelectWorkload(cse.x, benchMicroN, 42)
		yvals := datagen.Generate(cse.y, benchMicroN, 43)
		db := core.NewDB()
		db.AddTable("r", map[string][]uint64{"x": xvals, "y": yvals})
		bld := core.NewBuilder()
		x := bld.Scan("r", "x")
		y := bld.Scan("r", "y")
		sel := bld.Select("x_sel", x, bitutil.CmpEq, needle)
		proj := bld.Project("y_proj", y, sel)
		bld.Result(bld.SumWhole("total", proj))
		plan, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}

		static := columns.StaticBPDesc(0)
		configs := []struct {
			name  string
			base  map[string]columns.FormatDesc
			inter map[string]columns.FormatDesc
		}{
			{"uncompressed", nil, nil},
			{"staticbp_base", map[string]columns.FormatDesc{"r.x": static, "r.y": static}, nil},
			{"staticbp_all", map[string]columns.FormatDesc{"r.x": static, "r.y": static},
				map[string]columns.FormatDesc{"x_sel": static, "y_proj": static}},
			{"cascades", map[string]columns.FormatDesc{"r.x": static, "r.y": static},
				map[string]columns.FormatDesc{"x_sel": columns.DeltaBPDesc, "y_proj": columns.ForBPDesc}},
		}
		for _, cfg := range configs {
			b.Run(cse.name+"/"+cfg.name, func(b *testing.B) {
				enc, err := db.Encode(cfg.base)
				if err != nil {
					b.Fatal(err)
				}
				var foot int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := execPlan(plan, enc, 0, WithStyle(Vec512), WithFormats(cfg.inter))
					if err != nil {
						b.Fatal(err)
					}
					foot = res.Meas.Footprint()
				}
				b.ReportMetric(float64(foot)/(1<<20), "footprint-MiB")
			})
		}
	}
}

// --- shared SSB driver ---------------------------------------------------

var (
	benchSSBOnce sync.Once
	benchSSB     *ssb.Driver
	benchSSBErr  error
)

func getBenchSSB(b *testing.B) *ssb.Driver {
	benchSSBOnce.Do(func() { benchSSB, benchSSBErr = ssb.NewDriver(benchSF, 42, 1) })
	if benchSSBErr != nil {
		b.Fatal(benchSSBErr)
	}
	return benchSSB
}

// benchQueries runs all 13 SSB queries through run per iteration and
// reports their summed runtime, and their summed footprint when run measures
// one. A first pass outside the timer resolves the format combinations and
// builds the baseline's columns.
func benchQueries(b *testing.B, run func(q ssb.Query) (foot int, t time.Duration, err error)) {
	all := func() (foot int, rt time.Duration) {
		for _, q := range ssb.Queries {
			f, t, err := run(q)
			if err != nil {
				b.Fatalf("%s: %v", q, err)
			}
			foot += f
			rt += t
		}
		return foot, rt
	}
	all()
	b.ResetTimer()
	var foot int
	var rt time.Duration
	for i := 0; i < b.N; i++ {
		foot, rt = all()
	}
	if foot > 0 {
		b.ReportMetric(float64(foot)/(1<<20), "footprint-MiB")
	}
	b.ReportMetric(float64(rt.Microseconds())/1000, "query-ms")
}

// benchSeries runs the 13 SSB queries under series s through the driver,
// which prepares each query once and checks its result against the
// reference.
func benchSeries(b *testing.B, s ssb.Series) {
	d := getBenchSSB(b)
	benchQueries(b, func(q ssb.Query) (int, time.Duration, error) {
		res, t, err := d.Run(q, s)
		if err != nil {
			return 0, 0, err
		}
		return res.Meas.Footprint(), t, nil
	})
}

// vec512 is the SSB series of format combination f, vectorized, run with
// the on-the-fly de/re-compression operators.
func vec512(f ssb.Formats) ssb.Series { return ssb.Series{Formats: f, Style: vector.Vec512} }

// BenchmarkFigure1And9Systems regenerates Figures 1 and 9: one sub-benchmark
// per system, each iteration running all 13 SSB queries.
func BenchmarkFigure1And9Systems(b *testing.B) {
	for _, sys := range []struct {
		name   string
		narrow bool
	}{{"monetdb_scalar", false}, {"monetdb_narrow", true}} {
		b.Run(sys.name, func(b *testing.B) {
			d := getBenchSSB(b)
			benchQueries(b, func(q ssb.Query) (int, time.Duration, error) {
				t, err := d.RunMonetDB(q, sys.narrow)
				return 0, t, err
			})
		})
	}
	b.Run("morphstore_scalar", func(b *testing.B) {
		benchSeries(b, ssb.Series{Formats: ssb.Uncompressed, Style: vector.Scalar})
	})
	b.Run("morphstore_vec512", func(b *testing.B) { benchSeries(b, vec512(ssb.Uncompressed)) })
	b.Run("morphstore_vec512_compressed", func(b *testing.B) {
		benchSeries(b, ssb.Series{Formats: ssb.CostBased, Style: vector.Vec512, Specialized: true})
	})
}

// BenchmarkFigure7Combinations regenerates Figure 7: the worst,
// uncompressed, static BP, and best format combinations over all queries.
func BenchmarkFigure7Combinations(b *testing.B) {
	b.Run("worst", func(b *testing.B) { benchSeries(b, vec512(ssb.FootprintWorst)) })
	b.Run("uncompressed", func(b *testing.B) { benchSeries(b, vec512(ssb.Uncompressed)) })
	b.Run("staticbp", func(b *testing.B) { benchSeries(b, vec512(ssb.StaticBP)) })
	b.Run("best", func(b *testing.B) { benchSeries(b, vec512(ssb.FootprintBest)) })
}

// BenchmarkFigure8BaseVsIntermediates regenerates Figure 8: uncompressed vs
// compressed base columns only vs compressed base and intermediates.
func BenchmarkFigure8BaseVsIntermediates(b *testing.B) {
	b.Run("uncompressed", func(b *testing.B) { benchSeries(b, vec512(ssb.Uncompressed)) })
	b.Run("base_only", func(b *testing.B) { benchSeries(b, vec512(ssb.BaseOnly)) })
	b.Run("base_and_intermediates", func(b *testing.B) { benchSeries(b, vec512(ssb.CostBased)) })
}

// BenchmarkFigure10CostModel regenerates Figure 10: footprint of static BP
// vs the cost-based selection vs the exhaustive best combination.
func BenchmarkFigure10CostModel(b *testing.B) {
	b.Run("staticbp", func(b *testing.B) { benchSeries(b, vec512(ssb.StaticBP)) })
	b.Run("costbased", func(b *testing.B) { benchSeries(b, vec512(ssb.CostBased)) })
	b.Run("best", func(b *testing.B) { benchSeries(b, vec512(ssb.FootprintBest)) })
}

// parLevels are the parallelism degrees the morsel/scheduler benchmarks
// sweep; on a >=4-core host par4 vs par1 is the headline speedup.
var benchParLevels = []int{1, 2, 4, 8}

// BenchmarkParallelSelectDynBP measures the morsel-parallel select driver
// over a DynBP-compressed column at increasing parallelism degrees. The
// par1 case is the sequential baseline (it dispatches to the plain
// operator); outputs are byte-identical at every level.
func BenchmarkParallelSelectDynBP(b *testing.B) {
	vals, needle := datagen.GenerateSelectWorkload(datagen.C1, benchMicroN, 42)
	col, err := formats.Compress(vals, columns.DynBPDesc)
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range benchParLevels {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			b.SetBytes(int64(len(vals) * 8))
			for i := 0; i < b.N; i++ {
				if _, err := ops.FixedRT(par).SelectAuto(col, bitutil.CmpEq, needle, columns.DeltaBPDesc, vector.Vec512, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSum measures the morsel-parallel whole-column sum over a
// DynBP column.
func BenchmarkParallelSum(b *testing.B) {
	vals := datagen.Generate(datagen.C1, benchMicroN, 42)
	col, err := formats.Compress(vals, columns.DynBPDesc)
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range benchParLevels {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			b.SetBytes(int64(len(vals) * 8))
			for i := 0; i < b.N; i++ {
				if _, _, err := ops.FixedRT(par).SumAuto(col, vector.Vec512, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelJoinN1 measures the morsel-parallel N:1 join probe over a
// DynBP probe column against a shared read-only hash table (~50% match rate).
func BenchmarkParallelJoinN1(b *testing.B) {
	vals := datagen.Generate(datagen.C1, benchMicroN, 42)
	probeVals := make([]uint64, len(vals))
	const nBuild = 4096
	for i, v := range vals {
		probeVals[i] = v % (2 * nBuild)
	}
	probe, err := formats.Compress(probeVals, columns.DynBPDesc)
	if err != nil {
		b.Fatal(err)
	}
	buildVals := make([]uint64, nBuild)
	for i := range buildVals {
		buildVals[i] = uint64(i)
	}
	build := columns.FromValues(buildVals)
	for _, par := range benchParLevels {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			b.SetBytes(int64(len(vals) * 8))
			for i := 0; i < b.N; i++ {
				if _, _, err := ops.FixedRT(par).JoinN1(probe, build, columns.DeltaBPDesc, columns.DynBPDesc, vector.Vec512); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelCalc measures the morsel-parallel element-wise multiply
// over two DynBP columns streamed in lockstep.
func BenchmarkParallelCalc(b *testing.B) {
	a, err := formats.Compress(datagen.Generate(datagen.C1, benchMicroN, 42), columns.DynBPDesc)
	if err != nil {
		b.Fatal(err)
	}
	c, err := formats.Compress(datagen.Generate(datagen.C1, benchMicroN, 43), columns.DynBPDesc)
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range benchParLevels {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			b.SetBytes(int64(benchMicroN * 8))
			for i := 0; i < b.N; i++ {
				if _, err := ops.FixedRT(par).CalcBinary(ops.CalcMul, a, c, columns.DynBPDesc, vector.Vec512); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSumGrouped measures the morsel-parallel grouped sum with
// per-worker partial group-sum arrays (1024 groups).
func BenchmarkParallelSumGrouped(b *testing.B) {
	const nGroups = 1024
	gidVals := make([]uint64, benchMicroN)
	for i := range gidVals {
		gidVals[i] = uint64(i) % nGroups
	}
	gids, err := formats.Compress(gidVals, columns.DynBPDesc)
	if err != nil {
		b.Fatal(err)
	}
	vals, err := formats.Compress(datagen.Generate(datagen.C1, benchMicroN, 42), columns.DynBPDesc)
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range benchParLevels {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			b.SetBytes(int64(benchMicroN * 8))
			for i := 0; i < b.N; i++ {
				if _, err := ops.FixedRT(par).SumGrouped(gids, vals, nGroups, vector.Vec512); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// dynBPBaseAssign compresses every base column of the plan with DynBP,
// except randomly accessed ones, which must keep random access (static BP).
func dynBPBaseAssign(p *core.Plan) map[string]columns.FormatDesc {
	base := make(map[string]columns.FormatDesc)
	for _, name := range p.BaseColumns() {
		if p.RandomAccessed(name) {
			base[name] = columns.StaticBPDesc(0)
		} else {
			base[name] = columns.DynBPDesc
		}
	}
	return base
}

// BenchmarkParallelSSBQ11 runs the select-heavy SSB Q1.1 over
// DynBP-compressed base columns at increasing engine parallelism. This is
// the headline morsel-parallelism measurement: on a >=4-core host, par4
// should run >= 2x faster than par1 while producing byte-identical results
// (TestExecuteParallelismEquivalence proves the identity).
func BenchmarkParallelSSBQ11(b *testing.B) {
	d := getBenchSSB(b)
	plan := d.Plans[ssb.Q11]
	enc, err := d.Data.DB.Encode(dynBPBaseAssign(plan))
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range benchParLevels {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := execPlan(plan, enc, par, WithStyle(Vec512)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSSBQ41 runs SSB Q4.1, whose plan has several independent
// dimension-table select branches: this exercises the concurrent DAG
// scheduler on top of the morsel-parallel kernels.
func BenchmarkParallelSSBQ41(b *testing.B) {
	d := getBenchSSB(b)
	plan := d.Plans[ssb.Q41]
	enc, err := d.Data.DB.Encode(dynBPBaseAssign(plan))
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range benchParLevels {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := execPlan(plan, enc, par, WithStyle(Vec512)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineMultiQuery runs SSB Q1.1, prepared once on an engine with
// a GOMAXPROCS worker budget, from conc concurrent query streams: the
// shared-budget multi-query scheduling measurement. Every stream's results
// stay byte-identical to a sequential run (TestEngineConcurrentExecutes
// proves the identity).
func BenchmarkEngineMultiQuery(b *testing.B) {
	d := getBenchSSB(b)
	plan := d.Plans[ssb.Q11]
	enc, err := d.Data.DB.Encode(dynBPBaseAssign(plan))
	if err != nil {
		b.Fatal(err)
	}
	eng := core.NewEngine(enc, core.WithStyle(vector.Vec512))
	pq, err := eng.Prepare(plan)
	if err != nil {
		b.Fatal(err)
	}
	for _, conc := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("conc%d", conc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errCh := make(chan error, conc)
				for s := 0; s < conc; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, err := pq.Execute(context.Background()); err != nil {
							errCh <- err
						}
					}()
				}
				wg.Wait()
				close(errCh)
				if err := <-errCh; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCodecs measures compression and decompression throughput of every
// format on the Table 1 columns (the §2.1 speed-vs-rate trade-off).
func BenchmarkCodecs(b *testing.B) {
	for _, id := range []datagen.ColumnID{datagen.C1, datagen.C4} {
		vals := datagen.Generate(id, benchMicroN, 42)
		for _, desc := range formats.AllDescs() {
			b.Run(fmt.Sprintf("%v/%v/compress", id, desc), func(b *testing.B) {
				b.SetBytes(int64(len(vals) * 8))
				for i := 0; i < b.N; i++ {
					if _, err := formats.Compress(vals, desc); err != nil {
						b.Fatal(err)
					}
				}
			})
			col, err := formats.Compress(vals, desc)
			if err != nil {
				b.Fatal(err)
			}
			codec, err := formats.Get(desc.Kind)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]uint64, len(vals))
			b.Run(fmt.Sprintf("%v/%v/decompress", id, desc), func(b *testing.B) {
				b.SetBytes(int64(len(vals) * 8))
				for i := 0; i < b.N; i++ {
					if err := codec.Decompress(dst, col); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationBufferSize sweeps the cache-resident buffer size of the
// de/re-compression wrapper (the paper fixes 2048 elements = 16 KiB = half
// L1; this ablation justifies that choice).
func BenchmarkAblationBufferSize(b *testing.B) {
	vals := datagen.Generate(datagen.C1, benchMicroN, 42)
	col, err := formats.Compress(vals, columns.DynBPDesc)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{512, 1024, 2048, 8192, 65536, 1 << 20} {
		b.Run(fmt.Sprintf("buf%d", size), func(b *testing.B) {
			buf := make([]uint64, size)
			b.SetBytes(int64(len(vals) * 8))
			for i := 0; i < b.N; i++ {
				r, err := formats.NewReader(col)
				if err != nil {
					b.Fatal(err)
				}
				w, err := formats.NewWriter(columns.ForBPDesc, len(vals))
				if err != nil {
					b.Fatal(err)
				}
				for {
					k, err := r.Read(buf)
					if err != nil {
						b.Fatal(err)
					}
					if k == 0 {
						break
					}
					if err := w.Write(buf[:k]); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMorph compares direct morphing against the generic
// block-streaming path and against a full decompress-recompress detour.
func BenchmarkAblationMorph(b *testing.B) {
	vals := datagen.Generate(datagen.C1, benchMicroN, 42)
	col, err := formats.Compress(vals, columns.DynBPDesc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("direct", func(b *testing.B) {
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			if _, err := morph.Morph(col, columns.StaticBPDesc(0)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generic_blockwise", func(b *testing.B) {
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			if _, err := morph.Generic(col, columns.StaticBPDesc(0)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full_materialize", func(b *testing.B) {
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			dec, err := formats.Decompress(col)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := formats.Compress(dec, columns.StaticBPDesc(0)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSpecialized compares the specialized direct operators
// against the on-the-fly de/re-compression operators on the same columns.
func BenchmarkAblationSpecialized(b *testing.B) {
	vals := make([]uint64, benchMicroN)
	for i := range vals {
		vals[i] = uint64(i % 256)
	}
	sbp, err := formats.Compress(vals, columns.StaticBPDesc(8))
	if err != nil {
		b.Fatal(err)
	}
	dbp, err := formats.Compress(vals, columns.DynBPDesc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("select_swar_direct", func(b *testing.B) {
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			if _, err := ops.SelectStaticBPDirect(sbp, bitutil.CmpLt, 10, columns.DeltaBPDesc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("select_otf", func(b *testing.B) {
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			if _, err := ops.Select(sbp, bitutil.CmpLt, 10, columns.DeltaBPDesc, vector.Vec512); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sum_dynbp_direct", func(b *testing.B) {
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			if _, err := ops.SumDynBPDirect(dbp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sum_otf", func(b *testing.B) {
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			if _, _, err := ops.SumWhole(dbp, vector.Vec512); err != nil {
				b.Fatal(err)
			}
		}
	})
}
