// Command msrepro regenerates every table and figure of the MorphStore
// paper's evaluation (§5) on this machine, printing paper-style result rows.
//
// Usage:
//
//	msrepro -exp all                 # everything (default micro/SSB sizes)
//	msrepro -exp fig5 -n 2097152     # select-operator format matrix
//	msrepro -exp fig9 -sf 0.1        # per-query SSB system comparison
//	msrepro -exp fig7 -full          # include greedy runtime searches
//
// Experiments: table1, fig1, fig5, fig6, fig7, fig8, fig9, fig10, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

type options struct {
	exp     string
	n       int
	sf      float64
	seed    int64
	repeats int
	full    bool
}

func main() {
	var opt options
	flag.StringVar(&opt.exp, "exp", "all", "experiment to run (table1|fig1|fig5|fig6|fig7|fig8|fig9|fig10|all)")
	flag.IntVar(&opt.n, "n", 1<<21, "micro-benchmark column size in elements (paper: 128 Mi)")
	flag.Float64Var(&opt.sf, "sf", 0.05, "SSB scale factor (paper: 10)")
	flag.Int64Var(&opt.seed, "seed", 42, "generator seed")
	flag.IntVar(&opt.repeats, "repeats", 3, "timing repetitions (minimum is reported)")
	flag.BoolVar(&opt.full, "full", false, "run the expensive greedy runtime searches (Figs. 1, 7, 9)")
	flag.Parse()

	experiments := map[string]func(options) error{
		"table1": runTable1,
		"fig5":   runFig5,
		"fig6":   runFig6,
		"fig1":   runFig1,
		"fig7":   runFig7,
		"fig8":   runFig8,
		"fig9":   runFig9,
		"fig10":  runFig10,
	}
	order := []string{"table1", "fig5", "fig6", "fig1", "fig9", "fig7", "fig8", "fig10"}

	start := time.Now()
	if opt.exp == "all" {
		for _, name := range order {
			if err := experiments[name](opt); err != nil {
				fmt.Fprintf(os.Stderr, "msrepro: %s: %v\n", name, err)
				os.Exit(1)
			}
		}
	} else if f, ok := experiments[opt.exp]; ok {
		if err := f(opt); err != nil {
			fmt.Fprintf(os.Stderr, "msrepro: %s: %v\n", opt.exp, err)
			os.Exit(1)
		}
	} else {
		fmt.Fprintf(os.Stderr, "msrepro: unknown experiment %q\n", opt.exp)
		os.Exit(2)
	}
	fmt.Printf("\ntotal wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

func header(title string) {
	fmt.Printf("\n================================================================\n")
	fmt.Printf("%s\n", title)
	fmt.Printf("================================================================\n")
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func mib(b int) float64 { return float64(b) / (1 << 20) }
