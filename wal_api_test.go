package sama

import (
	"fmt"
	"io"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
)

// TestWALPublicAPI drives the durable write path through the public
// surface: Create with WithWAL, a durable insert, a simulated crash
// (the handle is abandoned without Close or Flush), then Open alone
// replays the log: the acknowledged insert answers queries, and the
// reopened database takes further inserts.
func TestWALPublicAPI(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "db")
	g, err := LoadNTriples(strings.NewReader(govtrackNT))
	if err != nil {
		t.Fatal(err)
	}
	db, err := Create(base, g, WithWAL(filepath.Join(dir, "wal")), WithWALCheckpoint(-1))
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := db.WALStats(); !ok {
		t.Fatalf("WALStats: no WAL on a WithWAL database (%+v)", st)
	}
	if err := db.Insert([]Triple{{
		S: NewIRI("NewSen"), P: NewIRI("sponsor"), O: NewIRI("A0056"),
	}}); err != nil {
		t.Fatal(err)
	}
	st, _ := db.WALStats()
	if st.Appends == 0 {
		t.Fatal("insert did not append to the WAL")
	}
	// Crash: no Close, no Flush — the insert lives only in the fsynced
	// log and the in-memory state we now abandon.

	re, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rs := re.Recovery(); rs.Records != 1 || rs.Triples != 1 {
		t.Fatalf("Recovery() = %+v, want 1 record / 1 triple", rs)
	}
	res, err := re.QuerySPARQL(`SELECT ?x WHERE { ?x <sponsor> <A0056> }`, 10)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, a := range res.Answers {
		if b, ok := a.Bindings(res.Vars)["x"]; ok && b.Value == "NewSen" {
			found = true
		}
	}
	if !found {
		t.Fatalf("recovered insert missing from answers: %v", res.Answers)
	}

	// The reopened database takes further writes, and checkpoints
	// reclaim the log.
	if err := re.Insert([]Triple{{
		S: NewIRI("NewSen"), P: NewIRI("gender"), O: NewLiteral("Male"),
	}}); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
}

// TestWALObservability: the WAL counters surface on /metrics, equal to
// WALStats, and a created database reports no replay.
func TestWALObservability(t *testing.T) {
	dir := t.TempDir()
	g, err := LoadNTriples(strings.NewReader(govtrackNT))
	if err != nil {
		t.Fatal(err)
	}
	db, err := Create(filepath.Join(dir, "db"), g, WithWAL(filepath.Join(dir, "wal")))
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
		t.Fatal("WALStats: no WAL on a WithWAL database")
	}
	for _, want := range []string{
		fmt.Sprintf("sama_wal_appends_total %d\n", st.Appends),
		fmt.Sprintf("sama_wal_syncs_total %d\n", st.Syncs),
		fmt.Sprintf("sama_wal_batches_total %d\n", st.Batches),
		fmt.Sprintf("sama_wal_appended_bytes_total %d\n", st.AppendedBytes),
		fmt.Sprintf("sama_wal_segments %d\n", st.Segments),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%.2000s", want, body)
		}
	}
	if st.Appends != 1 {
		t.Errorf("WALStats.Appends = %d, want 1", st.Appends)
	}
	if rs := db.Recovery(); rs != (RecoveryStats{}) {
		t.Errorf("Recovery() = %+v on a created database, want zero", rs)
	}
}
