package obs

import (
	"fmt"
	"io"
)

// PlanVersion is bumped whenever the plan schema changes shape, so
// stored plans (golden files, clients) can detect a mismatch.
const PlanVersion = 2

// Plan is the deterministic explain plan of one query execution: the
// trace's span tree reduced to its decision counters. Everything
// nondeterministic is deliberately excluded — durations, trace IDs, and
// buffer-pool hit/miss splits (which depend on what neighbours faulted
// in) live on the Trace; the Plan keeps only what is a pure function of
// the query, the index contents, and the engine configuration. That is
// what makes `sama query -explain` and the server's `?explain=1`
// byte-comparable for the same query, and what the golden test pins.
//
// JSON encoding is deterministic: struct fields marshal in order and Go
// marshals the Attrs maps with sorted keys.
type Plan struct {
	Version    int         `json:"version"`
	Query      string      `json:"query,omitempty"`
	Answers    int         `json:"answers"`
	Partial    bool        `json:"partial,omitempty"`
	StopReason string      `json:"stop_reason,omitempty"`
	Phases     []*PlanNode `json:"phases"`
}

// PlanNode is one span of the plan tree: its name and integer decision
// counters, without timings.
type PlanNode struct {
	Name     string           `json:"name"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Children []*PlanNode      `json:"children,omitempty"`
}

// BuildPlan reduces a finished trace to its deterministic plan. The
// trace must be published (no spans still running).
func BuildPlan(tr *Trace) *Plan {
	if tr == nil {
		return nil
	}
	p := &Plan{
		Version:    PlanVersion,
		Query:      tr.Query,
		Answers:    tr.Answers,
		Partial:    tr.Partial,
		StopReason: tr.StopReason,
	}
	p.Phases = make([]*PlanNode, 0, len(tr.Phases))
	for _, s := range tr.Phases {
		p.Phases = append(p.Phases, planNode(s))
	}
	return p
}

func planNode(s *Span) *PlanNode {
	n := &PlanNode{Name: s.Name}
	if len(s.Attrs) > 0 {
		n.Attrs = make(map[string]int64, len(s.Attrs))
		for k, v := range s.Attrs {
			n.Attrs[k] = v
		}
	}
	for _, c := range s.Children {
		n.Children = append(n.Children, planNode(c))
	}
	return n
}

// WriteText renders the plan as indented `name k=v ...` lines — the
// `sama query -explain` output. The rendering is deterministic: attrs
// are sorted, and no timings or IDs appear.
func (p *Plan) WriteText(w io.Writer) {
	if p == nil {
		return
	}
	fmt.Fprintf(w, "plan v%d answers=%d", p.Version, p.Answers)
	if p.Partial {
		fmt.Fprintf(w, " partial=%q", p.StopReason)
	}
	fmt.Fprintln(w)
	var walk func(n *PlanNode, depth int)
	walk = func(n *PlanNode, depth int) {
		for i := 0; i <= depth; i++ {
			io.WriteString(w, "  ")
		}
		io.WriteString(w, n.Name)
		if a := attrString(n.Attrs); a != "" {
			io.WriteString(w, " ")
			io.WriteString(w, a)
		}
		fmt.Fprintln(w)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, n := range p.Phases {
		walk(n, 0)
	}
}
