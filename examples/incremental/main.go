// Incremental: live index maintenance (the paper's §7 future-work
// items realised). Builds an index, answers a query, inserts new
// statements without rebuilding, and shows the updated answers.
//
//	go run ./examples/incremental
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sama"
)

const newsroom = `
<reuters>  <reports>  <story1> .
<story1>   <about>    "Elections" .
<ap>       <reports>  <story2> .
<story2>   <about>    "Economy" .
<afp>      <reports>  <story3> .
<story3>   <about>    "Elections" .
`

func main() {
	g, err := sama.LoadNTriples(strings.NewReader(newsroom))
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "sama-incremental-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := sama.Create(filepath.Join(dir, "index"), g)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	fmt.Printf("indexed %d paths, %.1f KB on disk\n\n",
		db.Stats().Paths, float64(db.Stats().DiskBytes)/1024)

	query := `SELECT ?agency ?story WHERE {
		?agency <reports> ?story .
		?story <about> "Elections" .
	}`
	show(db, query, "before insert")

	// A new agency files an elections story: update the index in place.
	start := time.Now()
	err = db.Insert([]sama.Triple{
		{S: sama.NewIRI("dpa"), P: sama.NewIRI("reports"), O: sama.NewIRI("story4")},
		{S: sama.NewIRI("story4"), P: sama.NewIRI("about"), O: sama.NewLiteral("Elections")},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted 2 triples incrementally in %v (no rebuild)\n\n",
		time.Since(start).Round(time.Microsecond))

	show(db, query, "after insert")
}

func show(db *sama.DB, query, label string) {
	res, err := db.QuerySPARQL(query, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- %s: %d answers ---\n", label, len(res.Answers))
	for _, a := range res.Answers {
		if !a.Exact() {
			continue
		}
		fmt.Printf("  %s reports %s  (score %.2f)\n",
			a.Subst["agency"].Label(), a.Subst["story"].Label(), a.Score)
	}
	fmt.Println()
}
