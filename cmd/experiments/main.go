// Command experiments regenerates every table and figure of the
// paper's evaluation section:
//
//	experiments table1                 HyperGraphDB-style indexing stats
//	experiments fig6  [-triples N]     avg response time, cold & warm cache
//	experiments fig7  [-triples N]     Sama scalability sweeps (a, b, c)
//	experiments fig8  [-triples N]     # of matches per query per system
//	experiments fig9  [-triples N]     precision/recall interpolation
//	experiments rr    [-triples N]     reciprocal rank check
//	experiments all   [-triples N]     everything above
//
// Results print as plain-text tables mirroring each figure's series;
// EXPERIMENTS.md records a reference run against the paper's reported
// shapes.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"sama/internal/datasets"
	"sama/internal/experiments"
	"sama/internal/workload"
)

type options struct {
	triples int
	seed    int64
	runs    int
	dir     string
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	opt := options{}
	fs.IntVar(&opt.triples, "triples", 60_000, "LUBM scale for the query experiments")
	fs.Int64Var(&opt.seed, "seed", 1, "dataset generator seed")
	fs.IntVar(&opt.runs, "runs", 10, "timed runs per measurement")
	fs.StringVar(&opt.dir, "dir", "", "scratch directory for index files (default: temp)")
	if cmd == "-h" || cmd == "--help" || cmd == "help" {
		usage()
		return
	}
	fs.Parse(os.Args[2:])

	cleanup := func() {}
	if opt.dir == "" {
		dir, cl, err := experiments.TempDir()
		if err != nil {
			fatal(err)
		}
		opt.dir = dir
		cleanup = cl
	}
	defer cleanup()

	var err error
	switch cmd {
	case "table1":
		err = runTable1(opt)
	case "fig6":
		err = runFig6(opt)
	case "fig7":
		err = runFig7(opt)
	case "fig8":
		err = runFig8(opt)
	case "fig9":
		err = runFig9(opt)
	case "rr":
		err = runRR(opt)
	case "ablation":
		err = runAblation(opt)
	case "xdata":
		err = runCrossDataset(opt)
	case "all":
		for _, f := range []func(options) error{runTable1, runFig6, runFig7, runFig8, runFig9, runRR, runCrossDataset, runAblation} {
			if err = f(opt); err != nil {
				break
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: experiments <table1|fig6|fig7|fig8|fig9|rr|xdata|ablation|all> [flags]
flags:
  -triples N   LUBM scale for the query experiments (default 60000)
  -seed N      generator seed (default 1)
  -runs N      timed runs per measurement (default 10)
  -dir PATH    scratch directory for index files
`)
}

func header(title string) {
	fmt.Printf("\n========== %s ==========\n", title)
}

func runTable1(opt options) error {
	header("Table 1: indexing")
	start := time.Now()
	rows, err := experiments.RunTable1(opt.dir, experiments.DefaultTable1Scales, opt.seed)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatTable1(rows))
	fmt.Printf("(total %v)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func lubmSystems(opt options) ([]experiments.System, *experiments.SamaSystem, error) {
	g := datasets.LUBM{}.Generate(opt.triples, opt.seed)
	fmt.Printf("LUBM: %d triples, %d nodes\n", g.EdgeCount(), g.NodeCount())
	systems, err := experiments.NewAllSystems(opt.dir, g)
	if err != nil {
		return nil, nil, err
	}
	return systems, systems[0].(*experiments.SamaSystem), nil
}

func closeAll(systems []experiments.System) {
	for _, s := range systems {
		s.Close()
	}
}

func runFig6(opt options) error {
	header("Figure 6: average response time on LUBM")
	systems, _, err := lubmSystems(opt)
	if err != nil {
		return err
	}
	defer closeAll(systems)
	res, err := experiments.RunFigure6(systems, workload.LUBMQueries(), opt.runs)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFigure6(res.Cold, "(a) cold-cache"))
	fmt.Println()
	fmt.Print(experiments.FormatFigure6(res.Warm, "(b) warm-cache"))
	return nil
}

func runFig7(opt options) error {
	header("Figure 7: Sama scalability on LUBM")
	scales := []int{opt.triples / 4, opt.triples / 2, 3 * opt.triples / 4, opt.triples,
		5 * opt.triples / 4, 3 * opt.triples / 2}
	a, err := experiments.RunFigure7a(opt.dir, scales, opt.seed, opt.runs)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFigure7(a))
	fmt.Println()

	systems, sama, err := lubmSystems(opt)
	if err != nil {
		return err
	}
	defer closeAll(systems)
	b, err := experiments.RunFigure7b(sama, 8, opt.runs)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFigure7(b))
	fmt.Println()
	c, err := experiments.RunFigure7c(sama, 7, opt.runs)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFigure7(c))
	return nil
}

func runFig8(opt options) error {
	header("Figure 8: effectiveness on LUBM (# of matches)")
	systems, _, err := lubmSystems(opt)
	if err != nil {
		return err
	}
	defer closeAll(systems)
	cells, err := experiments.RunFigure8(systems, workload.LUBMQueries())
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFigure8(cells))
	return nil
}

func runFig9(opt options) error {
	header("Figure 9: precision/recall on LUBM")
	systems, sama, err := lubmSystems(opt)
	if err != nil {
		return err
	}
	defer closeAll(systems)
	curves, err := experiments.RunFigure9(systems, sama.Graph(), workload.LUBMQueries(), experiments.Fig9Options{})
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatFigure9(curves))
	return nil
}

func runRR(opt options) error {
	header("Reciprocal rank (§6.3)")
	systems, sama, err := lubmSystems(opt)
	if err != nil {
		return err
	}
	defer closeAll(systems)
	rows, err := experiments.RunRR(sama, workload.LUBMQueries(), 20)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatRR(rows))
	return nil
}

func runCrossDataset(opt options) error {
	header("Per-dataset trend (§6.3)")
	rows, err := experiments.RunCrossDataset(opt.dir, opt.triples/3, opt.seed)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatCrossDataset(rows))
	return nil
}

func runAblation(opt options) error {
	header("Ablations (DESIGN.md design choices)")
	g := datasets.LUBM{}.Generate(opt.triples/3, opt.seed)
	fmt.Printf("LUBM: %d triples\n", g.EdgeCount())
	sys, err := experiments.NewSamaSystem(opt.dir, g)
	if err != nil {
		return err
	}
	defer sys.Close()
	var all []experiments.AblationResult
	chi, err := experiments.RunAblationChi(sys, workload.LUBMQueries(), 20)
	if err != nil {
		return err
	}
	all = append(all, chi...)
	alg, err := experiments.RunAblationAligner(sys, workload.LUBMQueries()[:6])
	if err != nil {
		return err
	}
	all = append(all, alg...)
	thes, err := experiments.RunAblationThesaurus(opt.dir, opt.triples/3, opt.seed)
	if err != nil {
		return err
	}
	all = append(all, thes...)
	incr, err := experiments.RunInsertAblation(opt.dir, opt.triples/3, opt.seed)
	if err != nil {
		return err
	}
	all = append(all, incr...)
	fmt.Print(experiments.FormatAblation(all))
	return nil
}
