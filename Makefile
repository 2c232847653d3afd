GO ?= go

.PHONY: check fmt vet build bins test race race-hot crash gates-check bench-check bench-smoke fuzz-smoke loc knobs profile serve-smoke

# check is the tier-1 gate: formatting, static analysis, a full build
# (packages and both binaries), the race-enabled test suite with an
# extra race pass over the concurrency-hot packages, the
# crash-recovery matrix, a check that every test and fuzz target those
# gates and the design docs name still exists, the benchmark module's own vet and tests, one
# lap of every benchmark, and a ten-second run of each native fuzz
# target. CI and pre-commit both run this.
check: fmt vet build bins race race-hot crash gates-check bench-check bench-smoke fuzz-smoke

fmt:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$files"; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# bins links the two shipped binaries — the sama CLI and the samad
# network daemon — into bin/.
bins:
	$(GO) build -o bin/sama ./cmd/sama
	$(GO) build -o bin/samad ./cmd/samad

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-hot re-runs the packages where the alignment memo's
# re-confirmation of entries an insert made stale, the
# per-query-path cluster goroutines (one alignment memo and one index
# View shared by all of a query's clusters, each returning its own
# read's page counts), admission
# against client disconnects, the writer lock inserts, checkpoints and
# compaction share, the registry's and the trace ring's
# concurrent writers and the signature pre-rank's probe-mask lookups
# interleave — a
# second -count pass varies goroutine scheduling beyond what one ./...
# sweep exercises. A read lock taken again inside a View with a writer
# queued hangs instead of failing, so the timeout turns such a
# deadlock into a failure well before go test's own ten minutes.
race-hot:
	$(GO) test -race -count=2 -timeout 5m ./internal/cache ./internal/core ./internal/server ./internal/storage ./internal/index ./internal/obs ./internal/textindex

# crash re-runs the durability suites on their own: the crash-matrix
# kill points (torn WAL tails, mid-checkpoint kills, including inside
# the log's rewrite to a fresh header, and mid-compaction kills), each
# recovered by Open alone; the WAL file's scan (a torn tail truncated,
# a damaged record before a well-formed one refused), its whole-log
# checkpoint and its replay up to the last acknowledged LSN; the compaction
# swap's crash window, and a rebuild whose pages cannot be written,
# which leaves the original files as they were; a failed insert (its staging
# or its read of the affected roots' paths) that leaves the graph the
# metadata persists as it was; inserts racing Close, each of which
# lands whole before it or fails with nothing logged; a second handle
# on an open index, refused by its lock; a failed open of a path with
# no index, which leaves no lock file behind; a database created with
# no options that keeps an acknowledged insert across a crash; the
# write path's model (TestWritePathModel), a seeded state machine that
# draws inserts (fresh LUBM stream batches, re-applied batches, batches
# that make a root a non-root, batches failing under a page-read fault
# or validation), queries, checkpoints, compactions, reopens and crash
# copies, and after each checks the live records against a fresh build
# of its model graph (limbo batches dropped by a checkpoint, replayed by
# a crash), the alignment memo's clusters and answers against an engine
# that purges its memo before each query, each stale entry's re-confirmation against retrieval and
# the pre-rank run again, and an insert's delta and a layout's bumps
# through the Reader, with its scripted cases, one per branch of the
# re-confirmation and a compaction that renumbers a stale cut's IDs;
# clusters searched after a compaction renumbered the dictionary, whose
# answers decode through the term table they were read with; readers
# racing a writer through that re-confirmation, which must never serve
# an answer set older than the inserts they saw complete; and the
# replays that must give a crash copy the live index's term IDs, pages,
# records and graph (the insert-stream golden's replayed legs, and the
# graph of a crash copy, a checkpointed copy and a compaction).
CRASH_RUN = TestCrashMatrix|TestWAL|TestCompact|TestPageFileSync|TestInsertTriplesAllOrNothing|TestInsertRacingCloseIsAllOrNothing|TestOpenLocksBase|TestOpenMissingBaseLeavesNoLock|TestDefaultDatabaseSurvivesCrash|TestWritePathModel|TestAlignMemoExactUnderWrites|TestAssemblyDecodesClustersTermTable|TestReconfirmFromChangesEqualsRepick|TestConcurrentInsertsServeNoStaleAnswers|TestInsertStreamGolden|TestGraphParity
CRASH_PKGS = . ./internal/storage ./internal/index ./internal/core

crash:
	$(GO) test -count=1 -run '$(CRASH_RUN)' $(CRASH_PKGS)

# gates-check fails when a gate names a test that is gone: go test -run
# and -fuzz pass quietly on a pattern that matches nothing. Every
# alternative of crash's -run pattern must match a test that go test
# -list finds in crash's packages, every fuzz-smoke pattern a fuzz
# target of its package, and every Test…, Benchmark… or Fuzz… name
# (the prefix, then an upper-case letter) that DESIGN.md or the verify
# notes put in backticks must begin the name of a func of the tree (as
# a -run pattern, TestWAL names every TestWAL… test); the message names
# each stale entry.
GATED_DOCS = DESIGN.md .claude/skills/verify/SKILL.md
gates-check:
	@fail=0; \
	defined=$$(find . -name '*.go' -not -path './.bench_build/*' -exec grep -hoE '^func (Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*' {} + | cut -d' ' -f2); \
	for doc in $(GATED_DOCS); do \
		for name in $$(tr '\n' ' ' < $$doc | grep -o '`[^`]*`' | grep -oE '\<(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*' | sort -u); do \
			echo "$$defined" | grep -q "^$$name" || { echo "gates-check: $$doc names $$name, which begins no func of the tree"; fail=1; }; \
		done; \
	done; \
	listed=$$($(GO) test -list '.' $(CRASH_PKGS) | grep '^Test') || exit 1; \
	for name in $$(echo '$(CRASH_RUN)' | tr '|' ' '); do \
		echo "$$listed" | grep -Eq "$$name" || { echo "gates-check: crash runs $$name, which matches no test in $(CRASH_PKGS)"; fail=1; }; \
	done; \
	for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; pat=$${t#*:}; \
		$(GO) test -list "$$pat" $$pkg | grep -q '^Fuzz' || { echo "gates-check: fuzz-smoke runs $$pat, which matches no fuzz target in $$pkg"; fail=1; }; \
	done; \
	exit $$fail

# bench-check vets and tests bench/, the benchmark's own module: root
# ./... patterns skip it, so an API it imports from internal/ could
# otherwise be deleted unnoticed.
bench-check:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...

# bench-smoke runs every benchmark of the root module once, so one that
# no longer builds or whose own guards fail (a warm memo that is not all
# hits, a recorded walk that is not the search's) fails the gate instead
# of waiting for the next profile. bench/ has its own module and gate.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# fuzz-smoke runs each of the thirteen native fuzz targets — the
# path-record decoder, the dictionary reader and the metadata decoder
# (counts checked against the file size, an accepted file re-encodes to
# itself) every stored path depends on, the record store's one read
# by path ID over a crafted front-coded page (no panic; an end offset
# out of order or past the page, a shared count longer than the
# previous record, a restart that shares anything or an ID the page
# does not hold fails the read; well-formed records round-trip and a
# read visits each page its IDs' runs name once), the inline codec the
# benchmark still times, the WAL's
# open scan (damage with a well-formed next record after it fails the
# open and leaves the file as it was, any other opens to the
# well-formed prefix), the compressed postings (decode ∘ encode,
# SeekGE, union), the bounded leapfrog intersection, and the three
# parser front-ends over the shared term
# scanner (N-Triples: write ∘ read is a fixed point and Turtle reads the
# same triples; Turtle: only valid triples; SPARQL: only valid patterns,
# errors positioned inside the input), and the query server's response
# encoder (the body equals json.Marshal of the wire struct and decodes
# through it and through client.Query alike; a non-finite score fails),
# and the Go client's response decoder (over arbitrary bytes, the value
# json.Unmarshal gives, or an error exactly when it errs) — for ten
# seconds on top of its checked-in corpus (testdata/fuzz in its
# package; the parsers' seeds are the rows of internal/rdf/syntax's
# agreement table); a crasher it finds is written there and fails every
# later go test.
FUZZ_TARGETS = ./internal/index:^FuzzDecodePathDict$$ ./internal/index:^FuzzReadDictionary$$ \
	./internal/index:^FuzzReadMeta$$ ./internal/index:^FuzzDecodePath$$ \
	./internal/storage:FuzzOpenWAL ./internal/storage:^FuzzRecordRead$$ \
	./internal/textindex:FuzzPostingsSeekGE ./internal/textindex:FuzzIntersectAmong \
	./internal/rdf/ntriples:FuzzParseNTriples ./internal/rdf/turtle:FuzzParseTurtle \
	./internal/sparql:FuzzParseSPARQL ./internal/server:^FuzzAppendResponse$$ \
	./client:^FuzzDecodeResponse$$

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; pat=$${t#*:}; \
		echo "$(GO) test -run '^\$$' -fuzz '$$pat' -fuzztime 10s $$pkg"; \
		$(GO) test -run '^$$' -fuzz "$$pat" -fuzztime 10s $$pkg || exit 1; \
	done

# loc prints non-test and test Go line counts per package directory —
# the root module's and bench/'s — one line each, then the root
# module's totals (everything outside ./bench), so a "non-test lines
# do not grow" gate is one diff of this output.
LOC_ROOT = find . -not -path './bench/*' -not -path './.bench_build/*'
loc:
	@find . -name '*.go' -not -path './.bench_build/*' -exec dirname {} \; | sort -u | while read -r d; do \
		nt=$$(find "$$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		t=$$(find "$$d" -maxdepth 1 -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%-28s %6d non-test %6d test\n' "$$d" "$$nt" "$$t"; \
	done
	@nt=$$($(LOC_ROOT) -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	t=$$($(LOC_ROOT) -name '*_test.go' -exec cat {} + | wc -l); \
	printf '%-28s %6d non-test %6d test\n' 'root module (not ./bench)' "$$nt" "$$t"

# knobs prints the number of independently settable values on each
# configuration surface — public With* options, flags of the two
# binaries, exported fields of the three Options structs and the fields
# of the public config they feed, the path budget's fields, the Go
# client's exported fields, the exported Set* methods of the root
# module's non-test files (setters that reconfigure a live object), and
# the HTTP routes the debug mux and the query server register — one
# line each, so "options did not grow" is one diff of this output.
knobs:
	@printf '%-34s %3d\n' 'sama.go With*' $$(grep -c '^func With' sama.go)
	@printf '%-34s %3d\n' 'sama.go config fields' $$(awk '/^type config struct/{f=1;next} f&&/^}/{exit} f&&/^\t[a-z]/{n++} END{print n+0}' sama.go)
	@for d in cmd/samad cmd/sama; do \
		printf '%-34s %3d\n' "$$d flags" $$(ls $$d/*.go | grep -v _test.go | xargs cat | grep -c '= fs\.[A-Z][A-Za-z0-9]*("'); \
	done
	@for f in internal/core/engine.go internal/index/index.go internal/server/server.go; do \
		printf '%-34s %3d\n' "$$(basename $$(dirname $$f)).Options exported fields" \
			$$(awk '/^type Options struct/{f=1;next} f&&/^}/{exit} f&&/^\t[A-Z]/{n++} END{print n+0}' $$f); \
	done
	@printf '%-34s %3d\n' 'paths.Config fields' \
		$$(awk '/^type Config struct/{f=1;next} f&&/^}/{exit} f&&/^\t[A-Z]/{n++} END{print n+0}' internal/paths/enumerate.go)
	@printf '%-34s %3d\n' 'client.Client exported fields' \
		$$(awk '/^type Client struct/{f=1;next} f&&/^}/{exit} f&&/^\t[A-Z]/{n++} END{print n+0}' client/client.go)
	@printf '%-34s %3d\n' 'exported Set* methods' \
		$$(find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' -exec cat {} + | grep -cE '^func \([^)]*\) Set[A-Z]')
	@printf '%-34s %3d\n' 'HTTP routes' $$(cat internal/obs/debug.go internal/server/server.go | grep -c 'mux\.Handle')

# profile captures one CPU profile per phase into results/, keeping the
# test binary next to them for symbolisation: the search phase where it
# is busiest (BenchmarkSearchBudgetBound: Q11/Q12 over LUBM 10 k,
# clustered once, searched to the visit budget) and on the small
# lattices (BenchmarkSearchMix: Q1–Q10, the read_after_write shapes,
# and the cluster_param band's department-bound P5 and P6 shapes), its
# layers apart (BenchmarkSearchLayers: the
# visited set, pair scoring and the top-k list on Q11's recorded walk,
# and the join pass on Q11 and on Q1–Q10), and the cluster phase with
# nothing memoised
# and with everything memoised (BenchmarkClusterColdMemo,
# BenchmarkClusterWarmMemo: the cluster_param shapes over every
# department of LUBM 10 k; the warm one also writes the heap profile of
# the memo it fills), and with every memo entry made stale by an
# insert (BenchmarkClusterAfterInsert: read_after_write's Q1–Q10 over
# LUBM 10 k, one 50-triple insert per lap); the index build
# (BenchmarkBuild: the benchmark's 50 k LUBM base), CPU and allocations;
# a checkpoint after one insert (BenchmarkCheckpoint: that base, one
# 50-triple insert per op outside the timer, reporting ms/op and the
# metadata's size, meta_B); the record read a cold cluster makes
# (BenchmarkRecordRead: that base, 1 024 random path IDs per op,
# reporting ns/record and pages/op);
# the JSON encode of a response (BenchmarkWriteResponse: one Q10-sized
# LUBM outcome through the query server's 200 path), and its decode in
# the Go client (BenchmarkDecodeResponse: that body through client.Query
# over an in-memory transport, and through json.NewDecoder for
# reference).
profile:
	@mkdir -p results
	$(GO) test -run '^$$' -bench 'BenchmarkSearchBudgetBound' -benchtime 20x \
		-cpuprofile results/cpu_search.pprof -o results/bench.test ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkSearchMix' -benchtime 200x \
		-cpuprofile results/cpu_search_mix.pprof -o results/bench.test ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkSearchLayers' -benchtime 20x \
		-cpuprofile results/cpu_search_layers.pprof -o results/bench.test ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkClusterColdMemo' -benchtime 10x \
		-cpuprofile results/cpu_cluster.pprof -o results/bench.test ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkClusterWarmMemo' -benchtime 2000x \
		-cpuprofile results/cpu_cluster_warm.pprof -memprofile results/mem_cluster_warm.pprof \
		-o results/bench.test ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkClusterAfterInsert' -benchtime 200x \
		-cpuprofile results/cpu_cluster_after_insert.pprof -o results/bench.test ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkBuild' -benchtime 5x \
		-cpuprofile results/cpu_build.pprof -memprofile results/mem_build.pprof \
		-o results/index.test ./internal/index
	$(GO) test -run '^$$' -bench 'BenchmarkCheckpoint' -benchtime 20x \
		-cpuprofile results/cpu_checkpoint.pprof -o results/index.test ./internal/index
	$(GO) test -run '^$$' -bench 'BenchmarkRecordRead' -benchtime 2000x -benchmem \
		-cpuprofile results/cpu_record_read.pprof -o results/index.test ./internal/index
	$(GO) test -run '^$$' -bench 'BenchmarkWriteResponse' -benchtime 20000x -benchmem \
		-cpuprofile results/cpu_write_response.pprof -o results/server.test ./internal/server
	$(GO) test -run '^$$' -bench 'BenchmarkDecodeResponse' -benchtime 20000x -benchmem \
		-cpuprofile results/cpu_decode_response.pprof -o results/server.test ./internal/server
	@echo "inspect with: $(GO) tool pprof results/bench.test results/cpu_{search,search_mix,search_layers,cluster,cluster_warm,cluster_after_insert}.pprof"
	@echo "the memo's heap: $(GO) tool pprof -sample_index=inuse_space results/bench.test results/mem_cluster_warm.pprof"
	@echo "the build: $(GO) tool pprof results/index.test results/cpu_build.pprof (allocations: -sample_index=alloc_space results/mem_build.pprof)"
	@echo "the checkpoint and the record read: $(GO) tool pprof results/index.test results/cpu_{checkpoint,record_read}.pprof"
	@echo "the response encode and decode: $(GO) tool pprof results/server.test results/cpu_{write,decode}_response.pprof"

# serve-smoke boots samad end-to-end: random port, example dataset
# indexed on the fly, one query through the Go client, /readyz and
# /metrics checked, graceful shutdown.
serve-smoke:
	$(GO) test -v -run 'TestServeSmoke' ./cmd/samad
