package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
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
	log.Debug("hidden") // below the default Info level
	log.Info("shown")
	if evs := l.Snapshot(); len(evs) != 1 || evs[0].Message != "shown" {
		t.Fatalf("snapshot = %+v, want only the Info record", evs)
	}
	l.SetLevel(slog.LevelDebug)
	log.Debug("now visible")
	if evs := l.Snapshot(); len(evs) != 2 || evs[0].Message != "now visible" {
		t.Fatalf("snapshot after SetLevel(Debug) = %+v", evs)
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
	ch, cancel := l.Subscribe(1)
	cancel()
	if _, ok := <-ch; ok {
		t.Error("nil log subscription delivered an event")
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
// snapshots and a live subscriber run — the -race guard for the event
// log satellite. Writers must never block on a slow subscriber.
func TestEventLogConcurrency(t *testing.T) {
	l := NewEventLog(64)
	ch, cancel := l.Subscribe(8) // deliberately tiny: forces drops
	defer cancel()
	var drained sync.WaitGroup
	drained.Add(1)
	stop := make(chan struct{})
	go func() {
		defer drained.Done()
		for {
			select {
			case <-stop:
				return
			case <-ch:
			}
		}
	}()
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
	close(stop)
	drained.Wait()
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

// TestDebugEventsSSE subscribes over /debug/events?stream=1 and checks
// that events published after the subscription arrive as SSE data
// frames, concurrently with more ring writers (the -race guard for the
// streaming path).
func TestDebugEventsSSE(t *testing.T) {
	l := NewEventLog(32)
	srv := httptest.NewServer(DebugMux(nil, nil, l))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/events?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			log := l.Logger("engine")
			for i := 0; i < 25; i++ {
				log.Info("live", "w", w, "i", i)
			}
		}(w)
	}

	sc := bufio.NewScanner(resp.Body)
	got := 0
	deadline := time.After(5 * time.Second)
	lines := make(chan string)
	go func() {
		defer close(lines)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
scan:
	for got < 10 {
		select {
		case line, ok := <-lines:
			if !ok {
				break scan
			}
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad SSE frame %q: %v", line, err)
			}
			if ev.Subsystem != "engine" || ev.Message != "live" {
				t.Fatalf("unexpected event %+v", ev)
			}
			got++
		case <-deadline:
			t.Fatalf("timed out after %d events", got)
		}
	}
	wg.Wait()
	if got < 10 {
		t.Fatalf("received %d streamed events, want ≥ 10", got)
	}
}

// TestDebugEventsSSENoFlusher covers the 501 path for writers that
// cannot stream.
func TestDebugEventsSSENoFlusher(t *testing.T) {
	l := NewEventLog(4)
	rec := &noFlushRecorder{header: make(http.Header)}
	req := httptest.NewRequest("GET", "/debug/events?stream=1", nil)
	DebugMux(nil, nil, l).ServeHTTP(rec, req)
	if rec.status != http.StatusNotImplemented {
		t.Errorf("status = %d, want 501", rec.status)
	}
}

// noFlushRecorder is a ResponseWriter without http.Flusher.
type noFlushRecorder struct {
	header http.Header
	status int
	body   strings.Builder
}

func (r *noFlushRecorder) Header() http.Header { return r.header }
func (r *noFlushRecorder) WriteHeader(s int)   { r.status = s }
func (r *noFlushRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(b)
}
