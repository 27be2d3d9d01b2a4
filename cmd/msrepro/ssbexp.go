package main

import (
	"fmt"
	"time"

	"morphstore/internal/ssb"
	"morphstore/internal/vector"
)

// driver is the SSB instance shared by the experiments of one msrepro run.
var driver *ssb.Driver

func getSSB(opt options) (*ssb.Driver, error) {
	if driver == nil {
		fmt.Printf("\ngenerating SSB data at SF %g ...\n", opt.sf)
		d, err := ssb.NewDriver(opt.sf, opt.seed, opt.repeats)
		if err != nil {
			return nil, err
		}
		driver = d
	}
	return driver, nil
}

// vec512 is the series of format combination f, vectorized, run with the
// on-the-fly de/re-compression operators.
func vec512(f ssb.Formats) ssb.Series { return ssb.Series{Formats: f, Style: vector.Vec512} }

var uncmpScalar = ssb.Series{Formats: ssb.Uncompressed, Style: vector.Scalar}

// compressed is the continuous-compression series of the runtime
// experiments: the greedy runtime search with -full, the cost model
// otherwise.
func compressed(opt options, specialized bool) ssb.Series {
	s := vec512(ssb.CostBased)
	if opt.full {
		s.Formats = ssb.RuntimeBest
	}
	s.Specialized = specialized
	return s
}

// cell is one query's footprint and min-of-N runtime under one series.
type cell struct {
	foot int
	t    time.Duration
}

// runSeries runs query q under each series, every result verified.
func runSeries(d *ssb.Driver, q ssb.Query, series ...ssb.Series) ([]cell, error) {
	cells := make([]cell, len(series))
	for i, s := range series {
		res, t, err := d.Run(q, s)
		if err != nil {
			return nil, err
		}
		cells[i] = cell{res.Meas.Footprint(), t}
	}
	return cells, nil
}

// runFig9 regenerates Figure 9: per-query runtimes of the five systems.
func runFig9(opt options) error {
	d, err := getSSB(opt)
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Figure 9: MonetDB vs MorphStore, per-query runtimes [ms] (SF %g)", opt.sf))
	fmt.Printf("%-6s %12s %12s %12s %12s %12s\n", "query",
		"MonetDB", "MS scalar", "MS vec512", "MS vec+compr", "MonetDB nrw")
	sums := make([]float64, 5)
	for _, q := range ssb.Queries {
		// MorphStore scalar and vectorized uncompressed, then vectorized
		// with continuous compression.
		cells, err := runSeries(d, q, uncmpScalar, vec512(ssb.Uncompressed), compressed(opt, true))
		if err != nil {
			return err
		}
		tWide, err := d.RunMonetDB(q, false)
		if err != nil {
			return err
		}
		tNarrow, err := d.RunMonetDB(q, true)
		if err != nil {
			return err
		}
		row := []float64{ms(tWide), ms(cells[0].t), ms(cells[1].t), ms(cells[2].t), ms(tNarrow)}
		fmt.Printf("%-6s %12.2f %12.2f %12.2f %12.2f %12.2f\n",
			q, row[0], row[1], row[2], row[3], row[4])
		for i, v := range row {
			sums[i] += v
		}
	}
	fmt.Printf("%-6s %12.2f %12.2f %12.2f %12.2f %12.2f\n", "avg",
		sums[0]/13, sums[1]/13, sums[2]/13, sums[3]/13, sums[4]/13)
	fmt.Println("\npaper shape: scalar MorphStore ~= MonetDB; vectorization ~-19%;")
	fmt.Println("continuous compression ~-54% vs scalar (2x); narrow types help MonetDB ~-16%.")
	return nil
}

// runFig1 regenerates Figure 1: the average over all 13 queries of the four
// headline systems.
func runFig1(opt options) error {
	d, err := getSSB(opt)
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Figure 1: average runtime of all 13 SSB queries (SF %g)", opt.sf))
	var tMonet, tScalar, tVec, tCompr time.Duration
	var fUncompr, fCompr int
	for _, q := range ssb.Queries {
		t, err := d.RunMonetDB(q, false)
		if err != nil {
			return err
		}
		tMonet += t
		cells, err := runSeries(d, q, uncmpScalar, vec512(ssb.Uncompressed), compressed(opt, true))
		if err != nil {
			return err
		}
		tScalar += cells[0].t
		tVec += cells[1].t
		tCompr += cells[2].t
		fUncompr += cells[1].foot
		fCompr += cells[2].foot
	}
	rows := []struct {
		name string
		t    time.Duration
	}{
		{"MonetDB (scalar, 64-bit)", tMonet},
		{"MorphStore (scalar, 64-bit)", tScalar},
		{"MorphStore (vectorized, 64-bit)", tVec},
		{"MorphStore (vectorized, compressed)", tCompr},
	}
	for _, r := range rows {
		fmt.Printf("%-38s %10.2f ms  (%.0f%% of MS scalar)\n",
			r.name, ms(r.t)/13, 100*float64(r.t)/float64(tScalar))
	}
	fmt.Printf("\nmemory footprint: compressed %.0f%% of uncompressed (paper: -52%%)\n",
		100*float64(fCompr)/float64(fUncompr))
	return nil
}

// runFig7 regenerates Figure 7: worst / uncompressed / static BP / best
// format combinations per query, for footprint and runtime.
func runFig7(opt options) error {
	d, err := getSSB(opt)
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Figure 7: impact of the format combination (SF %g)", opt.sf))
	fmt.Printf("%-6s | %11s %11s %11s %11s | %9s %9s %9s %9s\n", "query",
		"worst[MiB]", "uncmp[MiB]", "stat[MiB]", "best[MiB]",
		"worst[ms]", "uncmp[ms]", "stat[ms]", "best[ms]")
	var fw, fu, fs, fb, tw, tu, tss, tb float64
	for _, q := range ssb.Queries {
		// The footprint "best" is the exhaustive search result; the runtime
		// "best" is the faster of it and the runtime-driven combination.
		cells, err := runSeries(d, q, vec512(ssb.FootprintWorst), vec512(ssb.Uncompressed),
			vec512(ssb.StaticBP), vec512(ssb.FootprintBest), compressed(opt, false))
		if err != nil {
			return err
		}
		wc, uc, sc, bc := cells[0], cells[1], cells[2], cells[3]
		if bt := cells[4].t; bt < bc.t {
			bc.t = bt
		}

		fmt.Printf("%-6s | %11.2f %11.2f %11.2f %11.2f | %9.2f %9.2f %9.2f %9.2f\n",
			q, mib(wc.foot), mib(uc.foot), mib(sc.foot), mib(bc.foot),
			ms(wc.t), ms(uc.t), ms(sc.t), ms(bc.t))
		fw += mib(wc.foot)
		fu += mib(uc.foot)
		fs += mib(sc.foot)
		fb += mib(bc.foot)
		tw += ms(wc.t)
		tu += ms(uc.t)
		tss += ms(sc.t)
		tb += ms(bc.t)
	}
	fmt.Printf("%-6s | %11.2f %11.2f %11.2f %11.2f | %9.2f %9.2f %9.2f %9.2f\n",
		"avg", fw/13, fu/13, fs/13, fb/13, tw/13, tu/13, tss/13, tb/13)
	fmt.Printf("\npaper shape: static BP ~37%% footprint, best ~35%%; best runtime ~66%% of\n")
	fmt.Printf("uncompressed on average; worst combination costs ~+11%% runtime.\n")
	return nil
}

// runFig8 regenerates Figure 8: no compression vs compressed base columns
// only vs compressed base + intermediates.
func runFig8(opt options) error {
	d, err := getSSB(opt)
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Figure 8: compressing base data vs intermediates (SF %g)", opt.sf))
	fmt.Printf("%-6s | %11s %11s %11s | %9s %9s %9s\n", "query",
		"uncmp[MiB]", "base[MiB]", "b+int[MiB]", "uncmp[ms]", "base[ms]", "b+int[ms]")
	var f0, f1, f2, t0, t1, t2 float64
	for _, q := range ssb.Queries {
		cells, err := runSeries(d, q, vec512(ssb.Uncompressed), vec512(ssb.BaseOnly), vec512(ssb.CostBased))
		if err != nil {
			return err
		}
		u, b, i := cells[0], cells[1], cells[2]
		fmt.Printf("%-6s | %11.2f %11.2f %11.2f | %9.2f %9.2f %9.2f\n",
			q, mib(u.foot), mib(b.foot), mib(i.foot), ms(u.t), ms(b.t), ms(i.t))
		f0 += mib(u.foot)
		f1 += mib(b.foot)
		f2 += mib(i.foot)
		t0 += ms(u.t)
		t1 += ms(b.t)
		t2 += ms(i.t)
	}
	fmt.Printf("%-6s | %11.2f %11.2f %11.2f | %9.2f %9.2f %9.2f\n",
		"avg", f0/13, f1/13, f2/13, t0/13, t1/13, t2/13)
	fmt.Printf("\npaper shape: base-only compression reaches ~54%% footprint / ~93%% runtime;\n")
	fmt.Printf("adding intermediates reaches ~35%% / ~66%% — intermediates matter more.\n")
	return nil
}

// runFig10 regenerates Figure 10: footprint of static BP vs the cost-based
// selection vs the actual best combination.
func runFig10(opt options) error {
	d, err := getSSB(opt)
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Figure 10: cost-based format selection vs optimum (SF %g)", opt.sf))
	fmt.Printf("%-6s %14s %14s %14s\n", "query", "staticBP [MiB]", "costbased[MiB]", "best [MiB]")
	var fs, fc, fb float64
	for _, q := range ssb.Queries {
		cells, err := runSeries(d, q, vec512(ssb.StaticBP), vec512(ssb.CostBased), vec512(ssb.FootprintBest))
		if err != nil {
			return err
		}
		s, c, b := mib(cells[0].foot), mib(cells[1].foot), mib(cells[2].foot)
		fmt.Printf("%-6s %14.2f %14.2f %14.2f\n", q, s, c, b)
		fs += s
		fc += c
		fb += b
	}
	fmt.Printf("%-6s %14.2f %14.2f %14.2f\n", "avg", fs/13, fc/13, fb/13)
	fmt.Println("\npaper shape: cost-based selection is virtually equal to the optimum.")
	return nil
}
