// Package client is the Go client of the samad query server and the
// single Go definition of its wire format: the JSON documents exchanged
// on POST /query are declared here. The server encodes its error bodies
// from these types, and writes each 200 body straight from the engine's
// answers as the very bytes json.Marshal produces for a QueryResponse —
// a test oracle and a fuzz target hold it to that, so client and server
// cannot drift apart. Bodies are compact JSON (no indentation, no
// trailing newline) sent with a Content-Length; pipe them through jq to
// read them.
//
// Query decodes a 200 body by hand. json.Unmarshal is its oracle: the
// same value for every body, an error exactly when it errs (bytes after
// the value included); FuzzDecodeResponse checks it on arbitrary bytes.
//
// The protocol is deliberately plain HTTP + JSON:
//
//	POST /query?k=10&timeout=2s     body: SPARQL text
//	  200 → QueryResponse
//	  400 → ErrorResponse (malformed query, bad parameters)
//	  503 → ErrorResponse + Retry-After (overload or draining)
//	GET  /healthz                   process liveness
//	GET  /readyz                    load-balancer readiness (503 while draining)
//	GET  /metrics                   Prometheus text exposition
//
// A zero http.Client works: the package only needs the standard
// library.
package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Answer is one ranked answer on the wire. Scores mirror the engine's
// score(a, Q) = Λ + Ψ decomposition; lower is more relevant.
type Answer struct {
	Score  float64 `json:"score"`
	Lambda float64 `json:"lambda"`
	Psi    float64 `json:"psi"`
	// Exact reports a Definition-3 exact answer (perfect alignments,
	// nothing missing, all forest edges solid).
	Exact bool `json:"exact,omitempty"`
	// Bindings maps each projected variable to its bound term, rendered
	// in N-Triples term syntax.
	Bindings map[string]string `json:"bindings,omitempty"`
	// Paths are the answer's data paths, human-readable.
	Paths []string `json:"paths,omitempty"`
}

// Phase is one engine phase timing from the query's trace.
type Phase struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
}

// IOStats is the query's buffer-pool attribution.
type IOStats struct {
	PageReads   uint64 `json:"page_reads"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

// ExplainPlan is the deterministic explain plan returned when the
// request asked for one (?explain=1 / QueryOptions.Explain). Its JSON
// mirrors the engine's plan tag for tag, so a client receives the very
// bytes `sama query -explain -json` prints locally for the same query.
type ExplainPlan struct {
	Version    int    `json:"version"`
	Query      string `json:"query,omitempty"`
	Answers    int    `json:"answers"`
	Partial    bool   `json:"partial,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`
	// Restarts is always 0; it stays only because bench/ (frozen) reads it.
	Restarts int            `json:"restarts,omitempty"`
	Phases   []*ExplainNode `json:"phases"`
}

// ExplainNode is one span of the plan tree: its name and integer
// decision counters, without timings.
type ExplainNode struct {
	Name     string           `json:"name"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Children []*ExplainNode   `json:"children,omitempty"`
}

// Stats carries the per-request execution statistics: end-to-end and
// queue-wait time measured by the server, plus the engine's per-phase
// breakdown.
type Stats struct {
	// ElapsedNS is the engine execution time; QueueNS the time spent
	// waiting for an execution slot before it.
	ElapsedNS  int64   `json:"elapsed_ns"`
	QueueNS    int64   `json:"queue_ns"`
	QueryPaths int     `json:"query_paths"`
	Extracted  int     `json:"extracted"`
	Phases     []Phase `json:"phases,omitempty"`
	IO         IOStats `json:"io"`
}

// QueryResponse is the 200 body of POST /query.
type QueryResponse struct {
	Answers []Answer `json:"answers"`
	Vars    []string `json:"vars"`
	// Partial reports that the per-request deadline (or a server drain)
	// stopped the search early: Answers is the best-so-far prefix, still
	// in non-decreasing score order.
	Partial    bool   `json:"partial,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`
	Stats      Stats  `json:"stats"`
	// Explain is the deterministic explain plan, present only when the
	// request set QueryOptions.Explain (?explain=1).
	Explain *ExplainPlan `json:"explain,omitempty"`
}

// ErrorResponse is the body of every non-200 response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// StatusError is a non-200 server response surfaced as an error.
type StatusError struct {
	// Code is the HTTP status code.
	Code int
	// Message is the server's error text.
	Message string
	// RetryAfter is the parsed Retry-After hint on 503 responses (0 when
	// absent).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("samad: %s (HTTP %d)", e.Message, e.Code)
}

// IsOverloaded reports whether err is a 503 shed/drain response — the
// caller should back off for err's RetryAfter and retry.
func IsOverloaded(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusServiceUnavailable
}

// QueryOptions tune one request. The zero value uses the server's
// defaults.
type QueryOptions struct {
	// K is the number of answers to return (0: server default).
	K int
	// Timeout is the requested query deadline; the server caps it at its
	// -max-timeout (0: server default).
	Timeout time.Duration
	// Explain asks the server for the execution's deterministic explain
	// plan in QueryResponse.Explain.
	Explain bool
}

// Client talks to one samad server.
type Client struct {
	base string
	// HTTP is the underlying client; nil uses http.DefaultClient.
	HTTP *http.Client
}

// New returns a client for the server at baseURL (e.g.
// "http://localhost:8094").
func New(baseURL string) *Client {
	return &Client{base: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Query answers a SPARQL query in one request. Non-200 responses come
// back as a *StatusError; a 200 with Partial set is not an error (the
// answers are the best found within the deadline). A shed request is
// not retried: IsOverloaded reports it, and its RetryAfter says how
// long the server asks the caller to back off.
func (c *Client) Query(ctx context.Context, sparql string, opts QueryOptions) (*QueryResponse, error) {
	q := url.Values{}
	if opts.K > 0 {
		q.Set("k", strconv.Itoa(opts.K))
	}
	if opts.Timeout > 0 {
		q.Set("timeout", opts.Timeout.String())
	}
	if opts.Explain {
		q.Set("explain", "1")
	}
	u := c.base + "/query"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, strings.NewReader(sparql))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/sparql-query")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	out, err := readResponse(resp)
	if err != nil {
		return nil, fmt.Errorf("samad: decoding response: %w", err)
	}
	return out, nil
}

// decodeError turns a non-200 response into a *StatusError, preferring
// the JSON error body and falling back to raw text.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	se := &StatusError{Code: resp.StatusCode}
	var er ErrorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		se.Message = er.Error
	} else {
		se.Message = strings.TrimSpace(string(body))
	}
	if se.Message == "" {
		se.Message = http.StatusText(resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return se
}

// get fetches path and returns the body, mapping non-200 to *StatusError.
func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Healthz checks process liveness.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.get(ctx, "/healthz")
	return err
}

// Readyz checks readiness: nil while the server admits work, a
// *StatusError with code 503 while it drains.
func (c *Client) Readyz(ctx context.Context) error {
	_, err := c.get(ctx, "/readyz")
	return err
}

// Metrics fetches the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	b, err := c.get(ctx, "/metrics")
	return string(b), err
}
