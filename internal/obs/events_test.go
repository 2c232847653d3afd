package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestEventLogRingNewestFirst(t *testing.T) {
	l := NewEventLog(4)
	log := l.Logger("engine")
	for i := 0; i < 6; i++ {
		log.Info("event", "i", i)
	}
	evs := l.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("snapshot = %d events, want ring capacity 4", len(evs))
	}
	for j, want := range []string{"5", "4", "3", "2"} {
		if got := evs[j].Attrs["i"]; got != want {
			t.Errorf("snapshot[%d].i = %q, want %q (newest first)", j, got, want)
		}
	}
	if evs[0].Subsystem != "engine" || evs[0].Message != "event" {
		t.Errorf("event = %+v, want subsystem=engine msg=event", evs[0])
	}
	if evs[0].Seq <= evs[1].Seq {
		t.Errorf("seq not increasing: %d then %d", evs[1].Seq, evs[0].Seq)
	}
}

func TestEventLogLevel(t *testing.T) {
	l := NewEventLog(8)
	log := l.Logger("index")
	log.Debug("hidden") // below the ring's Info level
	log.Info("shown")
	if evs := l.Snapshot(); len(evs) != 1 || evs[0].Message != "shown" {
		t.Fatalf("snapshot = %+v, want only the Info record", evs)
	}
	if log.Enabled(context.Background(), slog.LevelDebug) {
		t.Error("a Debug record is enabled; the ring records Info and above")
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	log := l.Logger("anything") // must not panic, must discard
	log.Info("dropped", "k", "v")
	log.Warn("dropped too")
	if evs := l.Snapshot(); evs != nil {
		t.Errorf("nil log snapshot = %v, want nil", evs)
	}
}

func TestEventLogWithAttrsAndGroup(t *testing.T) {
	l := NewEventLog(8)
	log := l.Logger("compact").With("job", "7")
	log.WithGroup("swap").Info("done", "pages", 3)
	evs := l.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("snapshot = %d events, want 1", len(evs))
	}
	if evs[0].Attrs["job"] != "7" {
		t.Errorf("pre-bound attr job = %q, want 7", evs[0].Attrs["job"])
	}
	if evs[0].Attrs["swap.pages"] != "3" {
		t.Errorf("grouped attr swap.pages = %q, want 3 (attrs %v)", evs[0].Attrs["swap.pages"], evs[0].Attrs)
	}
}

// TestEventLogConcurrency hammers the ring from concurrent writers while
// snapshots run — the -race guard for the event log.
func TestEventLogConcurrency(t *testing.T) {
	l := NewEventLog(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			log := l.Logger(fmt.Sprintf("sub%d", w))
			for i := 0; i < 200; i++ {
				log.Info("tick", "i", i)
				if i%50 == 0 {
					log.Warn("spike", "i", i)
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		if got := l.Snapshot(); len(got) > 64 {
			t.Errorf("snapshot exceeded capacity: %d", len(got))
		}
	}
	wg.Wait()
	evs := l.Snapshot()
	if len(evs) != 64 {
		t.Errorf("ring not full after 1600 writes: %d", len(evs))
	}
	// Seq is assigned under the ring lock, so snapshot order (newest
	// first) and sequence numbers must agree even with 8 concurrent
	// publishers: strictly decreasing, no gaps within the ring.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq-1 {
			t.Fatalf("ring order disagrees with Seq at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestDebugEventsJSON(t *testing.T) {
	l := NewEventLog(16)
	log := l.Logger("server")
	for i := 0; i < 4; i++ {
		log.Info("request", "i", i)
	}
	srv := httptest.NewServer(DebugMux(NewRegistry(), nil, l))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Events []Event `json:"events"`
	}
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields() // the document is {"events": [...]}, nothing else
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Events) != 4 {
		t.Fatalf("events=%d, want all 4 records", len(doc.Events))
	}
	if doc.Events[0].Seq < doc.Events[1].Seq {
		t.Error("events not newest first")
	}
}
