package sama

import (
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// crashCopy copies a database's files — base.pages, base.meta and the
// log in base.wal/ — without closing it, as a kill at this instant
// would leave them, and returns the copy's base path. Opening the copy
// keeps clear of the original's lock.
func crashCopy(t *testing.T, base string) string {
	t.Helper()
	cp := filepath.Join(t.TempDir(), "copy")
	for _, name := range []string{".pages", ".meta", ".wal/wal.log"} {
		b, err := os.ReadFile(base + name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(cp+name), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cp+name, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return cp
}

// TestDefaultDatabaseSurvivesCrash: a database created with no options
// logs every insert, so a copy of its files taken without Close opens
// with the acknowledged insert replayed, answering an exact query.
func TestDefaultDatabaseSurvivesCrash(t *testing.T) {
	base := filepath.Join(t.TempDir(), "db")
	g, err := LoadNTriples(strings.NewReader(govtrackNT))
	if err != nil {
		t.Fatal(err)
	}
	db, err := Create(base, g)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Insert([]Triple{{
		S: NewIRI("NewSen"), P: NewIRI("sponsor"), O: NewIRI("A0056"),
	}}); err != nil {
		t.Fatal(err)
	}
	re, err := Open(crashCopy(t, base))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rs := re.Recovery(); rs.Records != 1 {
		t.Fatalf("Recovery() = %+v, want 1 record", rs)
	}
	res, err := re.QuerySPARQL(`SELECT ?x WHERE { ?x <sponsor> <A0056> }`, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Answers {
		if a.Exact() && a.Subst["x"] == NewIRI("NewSen") {
			return
		}
	}
	t.Fatalf("no exact answer binds the recovered insert: %v", res.Answers)
}

// TestWALPublicAPI drives the write path through the public surface
// as the benchmark harness does: Create with WithWAL (which changes
// nothing), a durable insert, a simulated crash (a copy of the files
// taken without Close), then Open alone replays the log, and the
// reopened database takes further inserts and checkpoints them away.
// TestDefaultDatabaseSurvivesCrash checks the replayed answers.
func TestWALPublicAPI(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "db")
	g, err := LoadNTriples(strings.NewReader(govtrackNT))
	if err != nil {
		t.Fatal(err)
	}
	db, err := Create(base, g, WithWAL(filepath.Join(dir, "wal")))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Insert([]Triple{{
		S: NewIRI("NewSen"), P: NewIRI("sponsor"), O: NewIRI("A0056"),
	}}); err != nil {
		t.Fatal(err)
	}
	if st, ok := db.WALStats(); !ok || st.Appends != 1 {
		t.Fatalf("WALStats() = %+v, %v; want one append, ok", st, ok)
	}
	re, err := Open(crashCopy(t, base))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rs := re.Recovery(); rs.Records != 1 || rs.Triples != 1 {
		t.Fatalf("Recovery() = %+v, want 1 record / 1 triple", rs)
	}
	if err := re.Insert([]Triple{{
		S: NewIRI("NewSen"), P: NewIRI("gender"), O: NewLiteral("Male"),
	}}); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if st, _ := re.WALStats(); st.Appends != 1 || st.Bytes >= int64(st.AppendedBytes) {
		t.Fatalf("the checkpoint reclaimed no log: %+v", st)
	}
}

// TestWALObservability: the WAL counters of a database created with no
// options surface on /metrics, equal to WALStats, with no segment gauge
// (the log is one file), and a created database reports no replay.
func TestWALObservability(t *testing.T) {
	dir := t.TempDir()
	g, err := LoadNTriples(strings.NewReader(govtrackNT))
	if err != nil {
		t.Fatal(err)
	}
	db, err := Create(filepath.Join(dir, "db"), g)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Insert([]Triple{{
		S: NewIRI("NewSen"), P: NewIRI("sponsor"), O: NewIRI("A0056"),
	}}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(db.DebugHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	st, ok := db.WALStats()
	if !ok {
		t.Fatal("WALStats: ok is false")
	}
	for _, want := range []string{
		fmt.Sprintf("sama_wal_appends_total %d\n", st.Appends),
		fmt.Sprintf("sama_wal_syncs_total %d\n", st.Syncs),
		fmt.Sprintf("sama_wal_appended_bytes_total %d\n", st.AppendedBytes),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%.2000s", want, body)
		}
	}
	if strings.Contains(string(body), "sama_wal_segments") {
		t.Errorf("/metrics still exports sama_wal_segments:\n%.2000s", body)
	}
	if st.Appends != 1 {
		t.Errorf("WALStats.Appends = %d, want 1", st.Appends)
	}
	if rs := db.Recovery(); rs != (RecoveryStats{}) {
		t.Errorf("Recovery() = %+v on a created database, want zero", rs)
	}
}
