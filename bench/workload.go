package main

import (
	"fmt"
	"math/rand"
	"strings"

	"sama/internal/datasets"
	"sama/internal/rdf"
	"sama/internal/workload"
)

// The data graph never depends on --seed: every run of a workload indexes
// the same triples, so answers can be checked against committed digests
// and two seeds differ only in the constants drawn and the order of
// queries inside a block.
const (
	dataSeed     = 1
	insertBatch  = 50 // stream triples per DB.Insert
	warmBlocks   = 2  // untimed blocks that end set-up
	answersK     = 10 // the server's default k
	deptTypeIRI  = datasets.LUBMNamespace + "class/Department"
	deptHolder   = "{D}"
	lubmPrologue = "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n" +
		"PREFIX lubm: <http://lubm.example.org/class/>\n" +
		"PREFIX v: <http://lubm.example.org/vocab/>\n"
)

// template is one query shape. A parametrised template carries deptHolder
// where a department IRI is substituted.
type template struct {
	name   string
	sparql string
}

// workloadDef describes one workload: how much data, which query shapes,
// and what a block of the op stream holds.
type workloadDef struct {
	name string
	// generate LUBM with genTriples, index the first baseTriples of them
	// in generator order and keep the rest as the insert stream.
	genTriples, baseTriples int
	templates               []template
	// draws is how many times a block holds each template.
	draws int
	// param: every template takes a department drawn by seed.
	param bool
	// writes: a block ends with one insert of insertBatch stream triples
	// and (from the second block on) holds one read-your-writes probe of
	// the batch the previous block inserted.
	writes bool
}

func lubmQuery(i int) template {
	q := workload.LUBMQueries()[i]
	return template{name: q.ID, sparql: q.SPARQL}
}

// workloads is the benchmark's fixed set. BENCHMARK.json gives each one's
// reason in a line and README.md in a paragraph.
var workloads = []workloadDef{
	{
		name:       "cluster_param",
		genTriples: 55000, baseTriples: 50000,
		param: true, draws: 4,
		templates: []template{
			{"P2", lubmPrologue + `SELECT ?s ?c WHERE {
		?s rdf:type lubm:GraduateStudent .
		?s v:takesCourse ?c .
		?s v:memberOf <{D}> . }`},
			{"P4", lubmPrologue + `SELECT ?p ?u WHERE {
		?p rdf:type lubm:FullProfessor .
		?p v:worksFor <{D}> .
		<{D}> v:subOrganizationOf ?u . }`},
			{"P5", lubmPrologue + `SELECT ?s ?p WHERE {
		?s v:advisor ?p .
		?p v:worksFor <{D}> .
		?s v:memberOf <{D}> . }`},
			{"P6", lubmPrologue + `SELECT ?pub ?p WHERE {
		?pub v:publicationAuthor ?p .
		?p rdf:type lubm:AssistantProfessor .
		?p v:worksFor <{D}> . }`},
			{"P10", lubmPrologue + `SELECT ?s ?c ?p ?u WHERE {
		?s v:takesCourse ?c .
		?p v:teacherOf ?c .
		?p v:worksFor <{D}> .
		<{D}> v:subOrganizationOf ?u . }`},
		},
	},
	{
		name:       "search_heavy",
		genTriples: 55000, baseTriples: 50000,
		draws: 1,
		templates: []template{
			// Shaped like Q11 around the professor instead of the
			// department; its latency sits below Q11's and Q12's, so the
			// median falls inside Q11's mode and p90 inside Q12's instead
			// of on the gap between two modes.
			{"S13", lubmPrologue + `SELECT ?s ?p ?d ?pub ?c WHERE {
		?s v:advisor ?p .
		?s v:memberOf ?d .
		?p v:worksFor ?d .
		?pub v:publicationAuthor ?p .
		?p v:teacherOf ?c .
		?c rdf:type lubm:GraduateCourse . }`},
			lubmQuery(10),
			lubmQuery(11),
		},
	},
	{
		name:       "read_after_write",
		genTriples: 80000, baseTriples: 50000,
		draws: 1, writes: true,
		templates: []template{
			lubmQuery(0), lubmQuery(1), lubmQuery(2), lubmQuery(3), lubmQuery(4),
			lubmQuery(5), lubmQuery(6), lubmQuery(7), lubmQuery(8), lubmQuery(9),
		},
	},
}

func findWorkload(name string) (*workloadDef, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// dataset is the generated input of one workload: the triples to index,
// the triples held back for inserts, and the departments of the indexed
// part.
type dataset struct {
	base   []rdf.Triple
	stream []rdf.Triple
	depts  []string
}

// generate builds the workload's dataset. scale (0 < scale ≤ 1) shrinks
// both sizes for the smoke test; committed digests only apply at 1.
func (w *workloadDef) generate(scale float64) dataset {
	gen := int(float64(w.genTriples) * scale)
	base := int(float64(w.baseTriples) * scale)
	ts := datasets.LUBM{}.Generate(gen, dataSeed).Triples()
	if base > len(ts)-insertBatch*warmBlocks {
		base = len(ts) - insertBatch*warmBlocks
	}
	d := dataset{base: ts[:base], stream: ts[base:]}
	for _, t := range d.base {
		if t.P.Label() == datasets.RDFType && t.O.Label() == deptTypeIRI {
			d.depts = append(d.depts, t.S.Label())
		}
	}
	return d
}

// batch returns the i-th insert batch — insertBatch stream triples and
// the batch's marker — or nil once the stream is used up.
func (d dataset) batch(i int) []rdf.Triple {
	lo, hi := i*insertBatch, (i+1)*insertBatch
	if hi > len(d.stream) {
		return nil
	}
	return append(d.stream[lo:hi:hi], marker(i))
}

// marker is the triple a read-your-writes probe asks for. The engine's
// retrieval is approximate by design (labels match on their local name
// and its tokens, and the pre-rank cut keeps older paths on ties), so a
// LUBM triple such as <…/Department6/Publication38 publicationAuthor …>
// is outranked by every other department's Publication38. The marker's
// subject is one all-lowercase token that nothing else shares, so the
// exact answer is the only candidate.
func marker(i int) rdf.Triple {
	name := []byte("rywaaaa")
	for k := len(name) - 1; k >= 3; k-- {
		name[k] = byte('a' + i%26)
		i /= 26
	}
	return rdf.Triple{
		S: rdf.NewIRI(datasets.LUBMNamespace + "bench/" + string(name)),
		P: rdf.NewIRI(datasets.LUBMNamespace + "vocab/name"),
		O: rdf.NewLiteral(string(name)),
	}
}

// op is one query of the stream.
type op struct {
	template string
	// key names the (template, constant) pair in the expected-digest file.
	key    string
	sparql string
	// probe is set on a read-your-writes probe: the answers must bind ?x
	// to this triple's object.
	probe *rdf.Triple
}

// opStream yields the blocks of one (workload, seed) in order. Every
// block holds each template draws times; the seed picks the constants and
// the order inside the block and nothing else.
type opStream struct {
	w    *workloadDef
	data dataset
	rng  *rand.Rand
	n    int // blocks produced so far
}

func newOpStream(w *workloadDef, data dataset, seed int64) *opStream {
	return &opStream{w: w, data: data, rng: rand.New(rand.NewSource(seed))}
}

// bind makes the op of a template; dept is ignored unless the workload
// is parametrised.
func (w *workloadDef) bind(t template, dept string) op {
	if !w.param {
		return op{template: t.name, key: t.name, sparql: t.sparql}
	}
	return op{
		template: t.name,
		key:      t.name + "@" + strings.TrimPrefix(dept, datasets.LUBMNamespace),
		sparql:   strings.ReplaceAll(t.sparql, deptHolder, dept),
	}
}

// probeOp asks for the object of the marker of inserted batch i.
func probeOp(i int) op {
	t := marker(i)
	return op{
		template: "RYW",
		key:      "RYW",
		sparql:   fmt.Sprintf("SELECT ?x WHERE { %s %s ?x . }", t.S, t.P),
		probe:    &t,
	}
}

// next returns the ops of the next block.
func (s *opStream) next() []op {
	ops := make([]op, 0, len(s.w.templates)*s.w.draws+1)
	for _, t := range s.w.templates {
		for i := 0; i < s.w.draws; i++ {
			dept := ""
			if s.w.param {
				dept = s.data.depts[s.rng.Intn(len(s.data.depts))]
			}
			ops = append(ops, s.w.bind(t, dept))
		}
	}
	if s.w.writes && s.n > 0 {
		ops = append(ops, probeOp(s.n-1))
	}
	s.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	s.n++
	return ops
}

// allKeys lists every (template, constant) op a stream can produce, in a
// fixed order, for writing the expected digests.
func (w *workloadDef) allKeys(data dataset) []op {
	var ops []op
	for _, t := range w.templates {
		if !w.param {
			ops = append(ops, w.bind(t, ""))
			continue
		}
		for _, dept := range data.depts {
			ops = append(ops, w.bind(t, dept))
		}
	}
	return ops
}
