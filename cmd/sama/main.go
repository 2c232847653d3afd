// Command sama is the command-line front end of the approximate RDF
// query engine:
//
//	sama index -data graph.nt -index /path/to/index
//	sama query -index /path/to/index -sparql query.rq [-k 10]
//	sama query -index /path/to/index -q 'SELECT ?x WHERE { ... }'
//	sama stats -index /path/to/index
//
// The index subcommand builds the disk-resident path index from an
// N-Triples file; query answers a SPARQL basic graph pattern with
// ranked approximate answers; stats prints the Table 1-style index
// measurements.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sama"
	"sama/internal/index"
)

// out is where subcommands print their results; tests swap it for a
// buffer to assert on the output.
var out io.Writer = os.Stdout

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "index":
		err = runIndex(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "stats":
		err = runStats(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "sama: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sama:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  sama index -data <graph.nt> -index <base>     build the path index
  sama query -index <base> (-q <sparql> | -sparql <file>) [-k 10] [-cold] [-timeout 0]
             [-stats] [-explain] [-explain-json]
  sama stats -index <base>                      print index statistics

Inserts are acknowledged only after the batch is fsynced to the
write-ahead log <base>.wal, and after a crash the next open of the
index (query, stats, samad) replays the log before it answers. One
process at a time may open an index.

For an HTTP endpoint (/query, /metrics, /debug/), use samad.
`)
}

func runIndex(args []string) error {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	data := fs.String("data", "", "N-Triples input file (required)")
	base := fs.String("index", "", "index base path (required)")
	maxLen := fs.Int("max-path-length", 12, fmt.Sprintf("maximum nodes per indexed path, 1 to %d", index.MaxPathLength))
	maxPerRoot := fs.Int("max-paths-per-root", 4096, "path budget per source")
	fs.Parse(args)
	if *data == "" || *base == "" {
		return fmt.Errorf("index: -data and -index are required")
	}
	start := time.Now()
	g, err := sama.LoadGraphFile(*data) // .ttl/.turtle or N-Triples
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "loaded %d triples (%d nodes) in %v\n",
		g.EdgeCount(), g.NodeCount(), time.Since(start).Round(time.Millisecond))
	db, err := sama.Create(*base, g,
		sama.WithPathConfig(sama.PathConfig{MaxLength: *maxLen, MaxPerRoot: *maxPerRoot}),
		sama.WithThesaurus(sama.BenchmarkThesaurus()))
	if err != nil {
		return err
	}
	defer db.Close()
	printStats(db.Stats())
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	base := fs.String("index", "", "index base path (required)")
	qtext := fs.String("q", "", "SPARQL query text")
	qfile := fs.String("sparql", "", "file containing the SPARQL query")
	k := fs.Int("k", 10, "number of answers")
	cold := fs.Bool("cold", false, "drop the cache before running (cold-cache timing)")
	timeout := fs.Duration("timeout", 0, "query deadline; on expiry the best answers found so far are printed (0 = none)")
	stats := fs.Bool("stats", false, "print the per-phase trace table after the answers")
	explain := fs.Bool("explain", false, "print the deterministic explain plan after the answers")
	explainJSON := fs.Bool("explain-json", false, "like -explain, but print the plan as JSON (byte-identical to the server's ?explain=1 document)")
	fs.Parse(args)
	if *base == "" {
		return fmt.Errorf("query: -index is required")
	}
	src := *qtext
	if src == "" {
		if *qfile == "" {
			return fmt.Errorf("query: provide -q or -sparql")
		}
		b, err := os.ReadFile(*qfile)
		if err != nil {
			return err
		}
		src = string(b)
	}
	db, err := sama.Open(*base, sama.WithThesaurus(sama.BenchmarkThesaurus()))
	if err != nil {
		return err
	}
	defer db.Close()
	if *cold {
		if err := db.DropCache(); err != nil {
			return err
		}
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := db.QuerySPARQLContext(ctx, src, *k)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	marker := ""
	if res.Partial {
		marker = fmt.Sprintf(" (partial: %s)", res.StopReason)
	}
	fmt.Fprintf(out, "%d answers in %v%s\n\n", len(res.Answers), elapsed.Round(time.Microsecond), marker)
	for i, a := range res.Answers {
		fmt.Fprintf(out, "#%d score %.2f (Λ %.2f + Ψ %.2f)", i+1, a.Score, a.Lambda, a.Psi)
		if a.Exact() {
			fmt.Fprint(out, "  [exact]")
		}
		fmt.Fprintln(out)
		for _, v := range res.Vars {
			if t, ok := a.Subst[v]; ok {
				fmt.Fprintf(out, "  ?%s = %s\n", v, t)
			}
		}
		for _, pr := range a.Pairs {
			fmt.Fprintf(out, "  %s\n", pr.Data)
		}
		fmt.Fprintln(out)
	}
	if *stats && res.Stats.Trace != nil {
		fmt.Fprintln(out, "phase breakdown:")
		res.Stats.Trace.WriteTable(out)
	}
	if *explain || *explainJSON {
		plan := res.Stats.Plan()
		if plan == nil {
			fmt.Fprintln(out, "no explain plan (tracing disabled)")
		} else if *explainJSON {
			b, err := json.MarshalIndent(plan, "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s\n", b)
		} else {
			plan.WriteText(out)
		}
	}
	return nil
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	base := fs.String("index", "", "index base path (required)")
	fs.Parse(args)
	if *base == "" {
		return fmt.Errorf("stats: -index is required")
	}
	db, err := sama.Open(*base)
	if err != nil {
		return err
	}
	defer db.Close()
	printStats(db.Stats())
	return nil
}

func printStats(st sama.IndexStats) {
	fmt.Fprintf(out, "triples:     %d\n", st.Triples)
	fmt.Fprintf(out, "|HV|:        %d\n", st.HV)
	fmt.Fprintf(out, "|HE|:        %d (edges + path hyperedges)\n", st.HE)
	fmt.Fprintf(out, "paths:       %d\n", st.Paths)
	fmt.Fprintf(out, "build time:  %v\n", st.BuildTime.Round(time.Millisecond))
	fmt.Fprintf(out, "disk:        %.1f MB\n", float64(st.DiskBytes)/(1<<20))
}
