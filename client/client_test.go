package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// shedServer sheds the first shedFirst requests with 503 + Retry-After,
// then answers 200.
func shedServer(t *testing.T, shedFirst int32, retryAfter string) (*httptest.Server, *int32) {
	t.Helper()
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := atomic.AddInt32(&calls, 1)
		if n <= shedFirst {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(ErrorResponse{Error: "overloaded"})
			return
		}
		json.NewEncoder(w).Encode(QueryResponse{
			Answers: []Answer{{Score: 1.5}},
			Vars:    []string{"x"},
		})
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

// TestQueryShedNoRetryByDefault: a shed request is one attempt, and the
// 503 surfaces with the server's Retry-After hint for the caller's own
// backoff; the next request goes through.
func TestQueryShedNoRetryByDefault(t *testing.T) {
	srv, calls := shedServer(t, 1, "1")
	c := New(srv.URL)
	_, err := c.Query(context.Background(), "SELECT * WHERE { ?s ?p ?o }", QueryOptions{})
	if !IsOverloaded(err) {
		t.Fatalf("err = %v, want a 503 StatusError", err)
	}
	if se := err.(*StatusError); se.RetryAfter != time.Second {
		t.Errorf("RetryAfter = %v, want the server's 1s hint", se.RetryAfter)
	}
	if got := atomic.LoadInt32(calls); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (no implicit retry)", got)
	}
	resp, err := c.Query(context.Background(), "SELECT * WHERE { ?s ?p ?o }", QueryOptions{})
	if err != nil || len(resp.Answers) != 1 || resp.Answers[0].Score != 1.5 {
		t.Fatalf("second query = %+v, %v; want the one answer", resp, err)
	}
}
