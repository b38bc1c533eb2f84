# CI entry points. `make check` is what the repo considers green:
# vet and full tests of both modules (the root module and the benchmark
# module) + build + the race detector over the packages the parallel
# experiment engine touches (graph and models included: concurrent sessions share a graph
# template's immutable state) + the chaos soak suite.
GO ?= go

.PHONY: check vet build test benchmark-test race soak bench goldens examples-smoke profile-smoke fuzz-smoke scale-smoke arena-smoke fleet-smoke regress-smoke perf-smoke serve-smoke hotpath-profiles

check: vet build test benchmark-test race soak examples-smoke profile-smoke scale-smoke arena-smoke fleet-smoke regress-smoke perf-smoke serve-smoke

vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# benchmark-test runs the benchmark harness's own tests (tiny workload
# replays, the metric table against BENCHMARK.json). benchmark/ is a
# separate module, so the root `go test ./...` never reaches it.
benchmark-test:
	cd benchmark && $(GO) test ./...

race:
	$(GO) test -race ./internal/bench ./internal/exec ./internal/sim ./internal/obs ./internal/graph ./internal/models

# soak runs the deterministic fault-injection and dynamic-shape suites
# twice under the race detector: seeded chaos plans across every
# memory-managing system — including the dynamic experiment at 8 jobs —
# must complete or fail with typed errors — never panic — and reproduce
# identical statistics on the second run.
soak:
	$(GO) test -race -count=2 ./internal/bench -run 'Chaos|Resilience|ZeroPlan|Dynamic'
	$(GO) test -race -count=2 ./internal/exec -run 'Fault|FallsBack|Abandonment|Spikes|ErrorChain|Dynamic'

# examples-smoke runs every program under examples/ and fails on a
# non-zero exit; `go build ./...` only compiles them. custom_network
# defines the only user-written ops.Op outside internal/ops, so it proves
# the Op interface still supports a new operator end to end.
examples-smoke:
	for e in examples/*/; do \
		$(GO) run ./$$e >/dev/null || { echo "examples-smoke: $$e failed"; exit 1; }; \
	done

# fuzz-smoke runs each fuzz target briefly (30s in CI): the two allocator
# fuzzers, the shape-inference fuzzers, the trust-boundary parsers
# (fault-plan specs, shape schedules, serve request bodies, exported
# Capuchin plans) and the event log's round trip must stay quiet. -fuzz is a regexp that must match
# exactly one target, hence the anchors. FuzzLoadPlan's seed is a whole
# exported plan of about 100 KB, and minimizing one at the default 60 s
# per input would spend the budget there, so its minimization is capped.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzBFC$$' -fuzztime $(FUZZTIME) ./internal/memory
	$(GO) test -run '^$$' -fuzz '^FuzzBFCAllocator$$' -fuzztime $(FUZZTIME) ./internal/memory
	$(GO) test -run '^$$' -fuzz '^FuzzConvShapeInference$$' -fuzztime $(FUZZTIME) ./internal/ops
	$(GO) test -run '^$$' -fuzz '^FuzzMatMulShapeInference$$' -fuzztime $(FUZZTIME) ./internal/ops
	$(GO) test -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzNewSchedule$$' -fuzztime $(FUZZTIME) ./internal/models
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRunRequest$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzLoadPlan$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzCollectorRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/obs

# bench reproduces the numbers in BENCH_parallel_runner.json.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMatrix' -benchtime 3x .

# goldens regenerates the quick-mode regression tables after an
# intentional policy or cost-model change, and the faulted transfer pin
# (TestTransferPin) beside them. The Chrome trace golden lives in
# internal/trace and the per-node op-cost pin of every zoo model
# (TestOpCostGolden) in internal/models; both regenerate the same way.
goldens:
	$(GO) test ./internal/bench -run 'Golden|TransferPin' -update
	$(GO) test ./internal/trace -run ChromeGolden -update
	$(GO) test ./internal/models -run OpCostGolden -update

# The determinism replays. $(call replay,NAME) runs the command
# REPLAY_NAME twice, at the default -jobs and at -jobs 1, and fails
# unless both runs are byte-identical: their stdout, and every file the
# command writes to $o.EXT for each EXT listed in REPLAY_NAME_OUT ($o is
# a per-run path prefix in a fresh temp dir, so a command names its
# output files as $$o.EXT).
REPLAY_scale = $(GO) run ./cmd/capuchin-bench -exp scale -quick -iters 2 -devices 1,2
REPLAY_arena = $(GO) run ./cmd/capuchin-bench -exp arena -quick -iters 2 -mem 4
REPLAY_fleet = $(GO) run ./cmd/capuchin-bench -exp fleet -quick -fleet-jobs 60 -fleet-devices 4 -fleet-json $$o.json
REPLAY_fleet_OUT = json
REPLAY_trace = $(GO) run ./cmd/capuchin-trace -fleet -fleet-jobs 60 -fleet-devices 4 -prom $$o.prom -events $$o.jsonl
REPLAY_trace_OUT = prom jsonl

define replay
	d=$$(mktemp -d) && \
	o=$$d/a && $(REPLAY_$(1)) > $$o.txt && \
	o=$$d/b && $(REPLAY_$(1)) -jobs 1 > $$o.txt && \
	for ext in txt $(REPLAY_$(1)_OUT); do cmp $$d/a.$$ext $$d/b.$$ext || exit 1; done && \
	rm -rf $$d
endef

# scale-smoke replays the 2-device scaling experiment through the CLI:
# the multi-device simulator is deterministic, so the tables must be
# byte-identical. The cluster race suite rides the same target.
scale-smoke:
	$(GO) test -race ./internal/cluster
	$(call replay,scale)

# arena-smoke guards the policy arena: the cross-policy conformance suite
# under the race detector (every registered policy must match the
# fingerprint oracle), then a small arena tournament replayed through the
# CLI at two job counts — the tables must be byte-identical.
arena-smoke:
	$(GO) test -race ./internal/policy/... -run 'Conform|DTR|Chunk'
	$(call replay,arena)

# fleet-smoke guards the multi-tenant fleet simulator: the full fleet
# suite (including the seeded chaos soak) under the race detector, the
# concurrent menu profiling and scenario fan-out under the race detector
# three times over, then the fleet experiment replayed through the CLI at
# two -jobs values at the same seed — both the table and the JSON
# artifact must be byte-identical.
fleet-smoke:
	$(GO) test -race ./internal/fleet
	$(GO) test -race -count=3 -run 'Fleet|ExecProfiler' ./internal/bench
	$(call replay,fleet)

# regress-smoke drives the perf-regression gate both ways: the real
# checked-in baselines must pass at smoke slack, the degraded fixture
# must fail (proving the gate actually fires), and the fleet
# observability exports must be byte-identical across -jobs values.
regress-smoke:
	$(GO) run ./cmd/capuchin-regress -slack 3
	if $(GO) run ./cmd/capuchin-regress -slack 3 \
		internal/bench/testdata/fleet_regressed_baseline.json >/dev/null; then \
		echo "regress-smoke: gate passed a degraded baseline"; exit 1; fi
	$(call replay,trace)

# perf-smoke is the allocs/op gate: it runs the pinned BenchmarkHotPath*
# suite across every hot-path package with -benchmem and fails when any
# benchmark exceeds its checked-in budget
# (internal/bench/testdata/alloc_budget.json). Like regress-smoke, the
# gate is proven both ways on every run: the real budget must pass and
# the deliberately regressed fixture must fail. Iteration counts are
# fixed (-benchtime 300x) because the gated metric is allocs/op, which
# is load-independent — wall-clock on a busy CI host is not.
HOTPATH_PKGS = . ./internal/core ./internal/exec ./internal/memory ./internal/sim ./internal/fleet ./internal/obs
perf-smoke:
	$(GO) test -run '^$$' -bench BenchmarkHotPath -benchmem -benchtime 300x \
		$(HOTPATH_PKGS) | tee /tmp/capuchin-hotpath-bench.txt
	$(GO) run ./cmd/capuchin-regress -bench /tmp/capuchin-hotpath-bench.txt \
		internal/bench/testdata/alloc_budget.json
	if $(GO) run ./cmd/capuchin-regress -bench /tmp/capuchin-hotpath-bench.txt \
		internal/bench/testdata/alloc_budget_regressed.json >/dev/null; then \
		echo "perf-smoke: alloc gate passed a degraded budget"; exit 1; fi
	rm -f /tmp/capuchin-hotpath-bench.txt

# hotpath-profiles collects pprof CPU and allocation profiles of the
# flagship hot-path benchmark into hotpath_pprof/. CI runs this when
# perf-smoke fails and uploads the directory as a workflow artifact, so
# an alloc regression is diagnosable from the CI run alone.
hotpath-profiles:
	mkdir -p hotpath_pprof
	$(GO) test -run '^$$' -bench 'BenchmarkHotPathIteration$$' -benchmem -benchtime 100x \
		-cpuprofile hotpath_pprof/cpu.out -memprofile hotpath_pprof/mem.out \
		-memprofilerate 1 . | tee hotpath_pprof/bench.txt

# serve-smoke guards the serving layer: the serve and loadgen suites
# under the race detector (drain, backpressure, panic recovery and byte
# identity live there), ten more race passes over the run lifecycle
# serve owns (drain, close, shedding, panic recovery), three race passes
# over the Collector's live-follower path (a /events reader indexes the
# chunked log while a worker appends to it), then a quick CLI
# selftest whose artifact must pass the serve gate — and, like the other
# gates, the deliberately degraded fixture must fail it. The runner's
# cancellation stress, TestRunnerCancelStress, lives in internal/bench
# under `make race`.
serve-smoke:
	$(GO) test -race ./internal/serve/...
	$(GO) test -race -count=10 -run 'Drain|Close|Backpressure|Panic' ./internal/serve
	$(GO) test -race -count=3 -run 'Collector|AppendJSONL' ./internal/obs
	$(GO) run ./cmd/capuchin-serve -selftest -quick -json /tmp/capuchin-serve-smoke.json
	$(GO) run ./cmd/capuchin-regress /tmp/capuchin-serve-smoke.json
	if $(GO) run ./cmd/capuchin-regress \
		internal/bench/testdata/serve_regressed_baseline.json >/dev/null; then \
		echo "serve-smoke: gate passed a degraded serve baseline"; exit 1; fi
	rm -f /tmp/capuchin-serve-smoke.json

# profile-smoke drives the observability stack end to end: the exporter
# tests (golden Chrome trace, memory profile, audit log, metrics) plus a
# real capuchin-trace invocation that must emit a loadable timeline, a
# non-empty decision history and a non-empty JSONL event log, an
# access-TSV run under memory pressure that only completes if -system
# really selects Capuchin (tf-ori runs out of memory there), the dynamic
# access-TSV mode (a -schedule run must write more than the header), and a
# run that OOMs in capuchin-train and in capuchin-trace: each must exit
# 1 only after writing its exports, whose JSONL holds the oom instant. Like
# regress-smoke, the CLIs' config validation is proven both ways: that
# run must pass, and five invalid settings must fail before running (the
# -spans one must also print nothing to stdout).
profile-smoke:
	$(GO) test ./internal/trace -run 'ChromeGolden|ProfileSmoke'
	$(GO) run ./cmd/capuchin-trace -model alexnet -batch 256 -mem 1.5 \
		-system capuchin -chrome /tmp/capuchin-smoke.json -memprof -explain auto \
		-events /tmp/capuchin-smoke.jsonl >/dev/null
	test -s /tmp/capuchin-smoke.jsonl
	rm -f /tmp/capuchin-smoke.json /tmp/capuchin-smoke.jsonl
	$(GO) run ./cmd/capuchin-trace -model resnet50 -batch 400 -mem 8 -system capuchin -iters 2 >/dev/null
	$(GO) run ./cmd/capuchin-trace -model resnet50 -batch 256 -mem 4 -system capuchin \
		-schedule batch -iters 12 -tensors conv1:0 >/tmp/capuchin-smoke.tsv
	test $$(wc -l </tmp/capuchin-smoke.tsv) -gt 1
	rm -f /tmp/capuchin-smoke.tsv
	d=$$(mktemp -d) && $(GO) build -o $$d/ ./cmd/capuchin-train ./cmd/capuchin-trace && \
	{ $$d/capuchin-train -model resnet50 -batch 4000 -system tf-ori -iters 2 \
		-events $$d/train.jsonl -prom $$d/train.prom >/dev/null; test $$? -eq 1; } && \
	grep -q '"name":"oom"' $$d/train.jsonl && test -s $$d/train.prom && \
	{ $$d/capuchin-trace -model resnet50 -batch 4000 -mem 16 -system tf-ori -iters 2 \
		-events $$d/trace.jsonl >/dev/null 2>&1; test $$? -eq 1; } && \
	grep -q '"name":"oom"' $$d/trace.jsonl && rm -rf $$d || \
	{ echo "profile-smoke: a failed run must write its exports, with the oom instant, and exit 1"; exit 1; }
	if $(GO) run ./cmd/capuchin-train -mem -3 >/dev/null 2>&1; then \
		echo "profile-smoke: capuchin-train ran with -mem -3"; exit 1; fi
	if $(GO) run ./cmd/capuchin-bench -exp table2 -quick -mem 9000000000 >/dev/null 2>&1; then \
		echo "profile-smoke: capuchin-bench ran with -mem 9000000000"; exit 1; fi
	if $(GO) run ./cmd/capuchin-bench -exp fig1 -quick -schedule bogus >/dev/null 2>&1; then \
		echo "profile-smoke: capuchin-bench -exp fig1 ran with -schedule bogus"; exit 1; fi
	if $(GO) run ./cmd/capuchin-bench -exp dynamic -quick -schedule bogus >/dev/null 2>&1; then \
		echo "profile-smoke: capuchin-bench -exp dynamic ran with -schedule bogus"; exit 1; fi
	if out=$$($(GO) run ./cmd/capuchin-trace -spans bogus -system capuchin -mem 4 2>/dev/null) || test -n "$$out"; then \
		echo "profile-smoke: capuchin-trace ran with -spans bogus"; exit 1; fi
