package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sama"
)

// captureOut redirects the package-level output writer to a buffer for
// the duration of the test.
func captureOut(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	prev := out
	out = &buf
	t.Cleanup(func() { out = prev })
	return &buf
}

const testNT = `<CarlaBunes> <sponsor> <A0056> .
<A0056> <aTo> <B1432> .
<B1432> <subject> "Health Care" .
<PierceDickes> <sponsor> <B1432> .
<PierceDickes> <gender> "Male" .
`

func setupIndexed(t *testing.T) (dataFile, indexBase string) {
	t.Helper()
	dir := t.TempDir()
	dataFile = filepath.Join(dir, "data.nt")
	if err := os.WriteFile(dataFile, []byte(testNT), 0o644); err != nil {
		t.Fatal(err)
	}
	indexBase = filepath.Join(dir, "idx")
	if err := runIndex([]string{"-data", dataFile, "-index", indexBase}); err != nil {
		t.Fatal(err)
	}
	return dataFile, indexBase
}

func TestRunIndexAndStats(t *testing.T) {
	_, base := setupIndexed(t)
	if err := runStats([]string{"-index", base}); err != nil {
		t.Errorf("stats: %v", err)
	}
}

func TestRunQueryInline(t *testing.T) {
	_, base := setupIndexed(t)
	err := runQuery([]string{"-index", base,
		"-q", `SELECT ?x WHERE { ?x <gender> "Male" }`, "-k", "3"})
	if err != nil {
		t.Errorf("query: %v", err)
	}
	// Cold-cache flag path.
	err = runQuery([]string{"-index", base, "-cold",
		"-q", `SELECT ?x WHERE { ?x <gender> "Male" }`})
	if err != nil {
		t.Errorf("cold query: %v", err)
	}
}

func TestRunQueryFromFile(t *testing.T) {
	dir := t.TempDir()
	qf := filepath.Join(dir, "q.rq")
	if err := os.WriteFile(qf, []byte(`SELECT * WHERE { ?s <sponsor> ?o }`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, base := setupIndexed(t)
	if err := runQuery([]string{"-index", base, "-sparql", qf}); err != nil {
		t.Errorf("query from file: %v", err)
	}
}

func TestRunQueryTimeout(t *testing.T) {
	_, base := setupIndexed(t)
	// A generous deadline: the query completes, no partial marker.
	err := runQuery([]string{"-index", base, "-timeout", "30s",
		"-q", `SELECT ?x WHERE { ?x <gender> "Male" }`})
	if err != nil {
		t.Errorf("query with timeout: %v", err)
	}
	// An already-expired deadline still succeeds, printing the
	// best-so-far (possibly empty) prefix with the (partial) marker.
	err = runQuery([]string{"-index", base, "-timeout", "1ns",
		"-q", `SELECT ?x WHERE { ?x <gender> "Male" }`})
	if err != nil {
		t.Errorf("query with expired timeout: %v", err)
	}
}

func TestRunQueryStatsTable(t *testing.T) {
	_, base := setupIndexed(t)
	buf := captureOut(t)
	err := runQuery([]string{"-index", base, "-stats",
		"-q", `SELECT ?x WHERE { ?x <gender> "Male" }`})
	if err != nil {
		t.Fatalf("query -stats: %v", err)
	}
	got := buf.String()
	if !strings.Contains(got, "phase breakdown:") {
		t.Fatalf("no phase breakdown header in output:\n%s", got)
	}
	table := got[strings.Index(got, "phase breakdown:"):]
	for _, phase := range []string{"decompose", "cluster", "search", "assemble", "total"} {
		if !strings.Contains(table, phase) {
			t.Errorf("trace table missing %q row:\n%s", phase, table)
		}
	}
	// Each phase row carries a duration; spot-check the total row's
	// shape: "total  <dur>  answers=N".
	if !regexp.MustCompile(`(?m)^total\s+\S+\s+answers=\d+`).MatchString(table) {
		t.Errorf("total row malformed:\n%s", table)
	}
	if !strings.Contains(table, "io") || !strings.Contains(table, "reads=") {
		t.Errorf("io attribution row missing:\n%s", table)
	}
}

// TestRunIndexWithWALAndRecover drives the CLI's durability surface end
// to end: build with -wal, insert durably through the library, abandon
// the handle without closing (the crash), then a plain query recovers
// by opening the index: it answers with the crashed insert visible, and
// the replay is durable, so a second query replays nothing.
func TestRunIndexWithWALAndRecover(t *testing.T) {
	dir := t.TempDir()
	dataFile := filepath.Join(dir, "data.nt")
	if err := os.WriteFile(dataFile, []byte(testNT), 0o644); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "idx")
	walDir := filepath.Join(dir, "wal")
	if err := runIndex([]string{"-data", dataFile, "-index", base, "-wal", walDir}); err != nil {
		t.Fatal(err)
	}

	// Crash: insert through the library and never Close — the batch is
	// in the fsynced log but not in the checkpointed pages.
	db, err := sama.Open(base, sama.WithThesaurus(sama.BenchmarkThesaurus()))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert([]sama.Triple{{
		S: sama.NewIRI("NewSen"), P: sama.NewIRI("sponsor"), O: sama.NewIRI("A0056"),
	}}); err != nil {
		t.Fatal(err)
	}
	// No Close, no Flush: the process "dies" here.

	// The batch is left for the next open to replay: a copy of the
	// crashed files replays it.
	copyDir := t.TempDir()
	for _, f := range [][2]string{
		{base + ".meta", filepath.Join(copyDir, "idx.meta")},
		{base + ".pages", filepath.Join(copyDir, "idx.pages")},
		{filepath.Join(walDir, "wal.log"), filepath.Join(copyDir, "wal", "wal.log")},
	} {
		b, err := os.ReadFile(f[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(f[1]), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f[1], b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := sama.Open(filepath.Join(copyDir, "idx"), sama.WithWAL(filepath.Join(copyDir, "wal")))
	if err != nil {
		t.Fatal(err)
	}
	if rs := cp.Recovery(); rs.Records == 0 {
		t.Fatalf("a copy of the crashed files replayed nothing (%+v): the insert was checkpointed", rs)
	}
	cp.Close()

	buf := captureOut(t)
	if err := runQuery([]string{"-index", base, "-q", `SELECT ?x WHERE { ?x <sponsor> <A0056> }`}); err != nil {
		t.Fatalf("query on the crashed index: %v", err)
	}
	if !strings.Contains(buf.String(), "NewSen") {
		t.Fatalf("crashed insert missing from answers:\n%s", buf.String())
	}
	re, err := sama.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rs := re.Recovery(); rs.Records != 0 {
		t.Errorf("second open replayed %d records; the first open's replay was not checkpointed", rs.Records)
	}
}

func TestCLIErrors(t *testing.T) {
	if err := runIndex([]string{}); err == nil {
		t.Error("index without flags accepted")
	}
	if err := runIndex([]string{"-data", "/nonexistent.nt", "-index", t.TempDir() + "/x"}); err == nil {
		t.Error("missing data file accepted")
	}
	if err := runQuery([]string{}); err == nil {
		t.Error("query without index accepted")
	}
	if err := runQuery([]string{"-index", t.TempDir() + "/absent", "-q", "SELECT * WHERE { ?s <p> <o> }"}); err == nil {
		t.Error("absent index accepted")
	}
	_, base := setupIndexed(t)
	if err := runQuery([]string{"-index", base}); err == nil {
		t.Error("query without -q/-sparql accepted")
	}
	if err := runQuery([]string{"-index", base, "-q", "not sparql"}); err == nil {
		t.Error("bad SPARQL accepted")
	}
	if err := runStats([]string{}); err == nil {
		t.Error("stats without index accepted")
	}
}
