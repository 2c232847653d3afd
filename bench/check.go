package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"sama/client"
	"sama/internal/core"
)

// rankedAnswer is what a digest covers of one answer: the score with its
// Λ/Ψ split and the substitution of the projected variables.
type rankedAnswer struct {
	score, lambda, psi float64
	bindings           map[string]string
}

func fromWire(answers []client.Answer) []rankedAnswer {
	out := make([]rankedAnswer, len(answers))
	for i, a := range answers {
		out[i] = rankedAnswer{a.Score, a.Lambda, a.Psi, a.Bindings}
	}
	return out
}

// fromEngine renders engine answers the way the server's wire encoding
// does, so a replayed query digests to the same value as its round trip.
func fromEngine(answers []core.Answer, vars []string) []rankedAnswer {
	out := make([]rankedAnswer, len(answers))
	for i, a := range answers {
		b := make(map[string]string, len(vars))
		for _, v := range vars {
			if t, ok := a.Subst[v]; ok {
				b[v] = t.String()
			}
		}
		out[i] = rankedAnswer{a.Score, a.Lambda, a.Psi, b}
	}
	return out
}

// digest hashes the top answersK answers. Floats are written with their
// shortest exact representation, which survives the JSON round trip.
func digest(answers []rankedAnswer) string {
	if len(answers) > answersK {
		answers = answers[:answersK]
	}
	var sb strings.Builder
	for _, a := range answers {
		for _, x := range []float64{a.score, a.lambda, a.psi} {
			sb.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
			sb.WriteByte('|')
		}
		vars := make([]string, 0, len(a.bindings))
		for v := range a.bindings {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		for _, v := range vars {
			sb.WriteString(v + "=" + a.bindings[v] + ";")
		}
		sb.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:8])
}

// expectedFile is bench/expected/<workload>.json: one digest per op key
// over the workload's fixed base graph.
type expectedFile struct {
	Workload string            `json:"workload"`
	Triples  int               `json:"triples"`
	K        int               `json:"k"`
	Digests  map[string]string `json:"digests"`
}

func expectedPath(benchDir, workload string) string {
	return filepath.Join(benchDir, "expected", workload+".json")
}

// loadExpected reads the committed digests. They describe the full-scale
// graph only: for any other triple count the caller gets nil and checks
// structure alone.
func loadExpected(benchDir, workload string, triples int) (map[string]string, error) {
	data, err := os.ReadFile(expectedPath(benchDir, workload))
	if err != nil {
		return nil, fmt.Errorf("expected digests: %w (run with -write-expected to create them)", err)
	}
	var ef expectedFile
	if err := json.Unmarshal(data, &ef); err != nil {
		return nil, fmt.Errorf("expected digests %s: %w", expectedPath(benchDir, workload), err)
	}
	if ef.Triples != triples {
		return nil, nil
	}
	return ef.Digests, nil
}

func writeExpected(benchDir string, ef expectedFile) error {
	data, err := json.MarshalIndent(ef, "", " ")
	if err != nil {
		return err
	}
	path := expectedPath(benchDir, ef.Workload)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checker validates responses. Until the first insert the graph is the
// fixed base graph and a response must digest to the committed value;
// after it only the structure and read-your-writes can be checked.
type checker struct {
	expected map[string]string // nil: structure only
	mutated  bool              // an insert has been applied
}

// check returns nil when the response is a correct answer to o.
func (c *checker) check(o op, resp *client.QueryResponse) error {
	if resp.Partial {
		return fmt.Errorf("%s: partial result (%s)", o.key, resp.StopReason)
	}
	n := len(resp.Answers)
	if n == 0 || n > answersK {
		return fmt.Errorf("%s: %d answers, want 1..%d", o.key, n, answersK)
	}
	for i := 1; i < n; i++ {
		if resp.Answers[i].Score < resp.Answers[i-1].Score {
			return fmt.Errorf("%s: answer %d scores %g after %g", o.key, i, resp.Answers[i].Score, resp.Answers[i-1].Score)
		}
	}
	if o.probe != nil {
		want := o.probe.O.String()
		for _, a := range resp.Answers {
			if a.Bindings["x"] == want {
				return nil
			}
		}
		return fmt.Errorf("read-your-writes: no answer binds ?x to %s for inserted %s", want, o.probe)
	}
	if n != answersK {
		return fmt.Errorf("%s: %d answers, want %d", o.key, n, answersK)
	}
	if c.expected != nil && !c.mutated {
		want, ok := c.expected[o.key]
		if !ok {
			return fmt.Errorf("%s: no committed digest", o.key)
		}
		if got := digest(fromWire(resp.Answers)); got != want {
			return fmt.Errorf("%s: digest %s, committed %s", o.key, got, want)
		}
	}
	return nil
}
