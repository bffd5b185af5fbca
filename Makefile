GO ?= go

.PHONY: all build test vet loc staticcheck race race-dr fuzz-smoke bench bench-kernels bench-smoke bench-compare bench-serve bench-telemetry smoke-trace smoke-chaos smoke-cluster smoke-obs smoke-quality smoke-rollout smoke-batch ci check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Non-test Go lines per package under internal/ and cmd/, then for the
# whole repo: where ROADMAP's "net line count trends down" is read off.
loc:
	@for d in $$(find internal cmd -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u); do \
		printf '%6d  %s\n' "$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)" $$d; \
	done
	@printf '%6d  total (all non-test Go)\n' "$$(find . -name '*.go' ! -name '*_test.go' ! -path './.*' -exec cat {} + | wc -l)"
	@printf '%6d  assembly (.s, not in the total)\n' "$$(find . -name '*.s' ! -path './.*' -exec cat {} + | wc -l)"

# Same pinned version as CI; install with:
#   go install honnef.co/go/tools/cmd/staticcheck@2023.1.7
staticcheck:
	staticcheck ./...

# A 2-worker traced run whose trace file must carry the worker, train-step
# and PS spans.
smoke-trace:
	$(GO) run ./cmd/mamdr-train -preset taobao-10 -samples 2000 -epochs 2 \
		-ps-workers 2 -trace /tmp/smoke.trace.json
	for span in worker.epoch worker.inner_step train.forward ps.pull_dense ps.push_delta; do \
		grep -q "\"name\":\"$$span\"" /tmp/smoke.trace.json || { echo "trace has no $$span span"; exit 1; }; done

# A 2-worker run over a loopback RPC
# parameter server with injected errors, delays, and connection drops
# must print exactly the same per-domain AUC table as a clean run (the
# retries are idempotent and SyncPush fixes the delta-apply order), and
# the bit-exact version of the same property is asserted by the chaos
# determinism tests.
smoke-chaos:
	$(GO) run ./cmd/mamdr-train -preset taobao-10 -samples 2000 -epochs 3 \
		-ps-workers 2 -ps-sync-push -seed 7 \
		| grep -v '^trained in' > /tmp/chaos-clean.txt
	$(GO) run ./cmd/mamdr-train -preset taobao-10 -samples 2000 -epochs 3 \
		-ps-workers 2 -ps-sync-push -seed 7 \
		-ps-faults "PushDelta:err@1,3; PullDense:err@2; PullDense:delay=10ms@*; conn:drop@3,7" \
		2>/tmp/chaos-faulty.log | grep -v '^trained in' > /tmp/chaos-faulty.txt
	diff /tmp/chaos-clean.txt /tmp/chaos-faulty.txt
	grep -E '[1-9][0-9]* faults injected' /tmp/chaos-faulty.log
	$(GO) test -count=1 -run 'TestChaosDeterminismOverRPC|TestResumeMatchesUninterrupted' ./internal/ps/

# A 2-worker run against a 3-shard
# partitioned PS cluster with injected per-shard faults must print
# exactly the same per-domain AUC table as the 1-shard run (the
# partition plan is a pure function of the layout and seed; SyncPush
# fixes the delta-apply order), the injected faults must be counted,
# and the trace must carry the scatter-gather spans. Amazon-6 is the
# preset with learned embeddings, so row traffic crosses the shards.
smoke-cluster:
	$(GO) run ./cmd/mamdr-train -preset amazon-6 -samples 2000 -epochs 3 \
		-ps-workers 2 -ps-sync-push -seed 7 \
		| grep -v '^trained in\|^training ' > /tmp/cluster-1shard.txt
	$(GO) run ./cmd/mamdr-train -preset amazon-6 -samples 2000 -epochs 3 \
		-ps-workers 2 -ps-sync-push -seed 7 -ps-shards 3 \
		-ps-faults "PullRows:err@2; PushDelta:err@5; conn:drop@6" \
		-trace /tmp/cluster.trace.json \
		2>/tmp/cluster-3shard.log | grep -v '^trained in\|^training ' > /tmp/cluster-3shard.txt
	diff /tmp/cluster-1shard.txt /tmp/cluster-3shard.txt
	grep -E '[1-9][0-9]* faults injected' /tmp/cluster-3shard.log
	for span in cluster.pull_rows cluster.push_delta cluster.shard_call; do \
		grep -q "\"name\":\"$$span\"" /tmp/cluster.trace.json || { echo "trace has no $$span span"; exit 1; }; done
	$(GO) test -count=1 -run 'TestClusterTrainingBitIdenticalAcrossShardCounts|TestShardFailoverMatchesCleanRun|TestClusterChaosOverRPCBitIdentical' ./internal/cluster/

# Two shard servers plus a faulted
# 2-worker training run, observed live by mamdr-obs. The federated
# exposition must carry every instance, the faulted run must fire at
# least one burn-rate alert (with a flight-recorder dump and an event),
# every sample line of the federated exposition must parse, and a clean
# run observed by a fresh monitor must fire none.
smoke-obs:
	$(GO) build -o /tmp/mamdr-bin/ ./cmd/mamdr-train ./cmd/mamdr-obs
	/tmp/mamdr-bin/mamdr-train -preset amazon-6 -samples 2000 -seed 7 \
		-ps-serve 127.0.0.1:7101,127.0.0.1:7102 >/tmp/obs-ps.log 2>&1 & echo $$! > /tmp/obs-ps.pid
	sleep 1
	kill -0 `cat /tmp/obs-ps.pid` || { cat /tmp/obs-ps.log; exit 1; }
	/tmp/mamdr-bin/mamdr-obs \
		-scrape trainer=127.0.0.1:9190,rpc://127.0.0.1:7101,rpc://127.0.0.1:7102 \
		-interval 500ms -run-for 30s -slo-fast -addr 127.0.0.1:9600 \
		-events /tmp/obs-events.jsonl -flight-dump /tmp/obs-flight \
		>/tmp/obs-faulty.txt 2>&1 & \
	sleep 0.5; \
	/tmp/mamdr-bin/mamdr-train -preset amazon-6 -samples 2000 -epochs 4 -seed 7 \
		-ps-workers 2 -ps-sync-push -ps-addrs 127.0.0.1:7101,127.0.0.1:7102 \
		-ps-faults "PushDelta:err@p0.3; PullRows:err@p0.2" \
		-metrics-addr 127.0.0.1:9190 -metrics-linger 30s -trace /tmp/obs.trace.json \
		>/tmp/obs-train.log 2>&1 & \
	sleep 12; curl -s 127.0.0.1:9600/metrics > /tmp/obs-federated.txt; wait
	grep -E 'alerts_fired=[1-9]' /tmp/obs-faulty.txt
	grep '"event":"slo_burn"' /tmp/obs-events.jsonl >/dev/null
	grep '"slo":"ps-rpc-failures"' /tmp/obs-events.jsonl >/dev/null
	test -s /tmp/obs-flight-slo_ps-rpc-failures.trace.json
	for needle in 'instance="127.0.0.1:7101"' 'instance="127.0.0.1:7102"' \
		'role="trainer"' 'role="ps"' 'role="obs"' mamdr_build_info mamdr_ps_rpc_failures_total \
		mamdr_slo_burn_alerts_total mamdr_obs_scrapes_total; do \
		grep -qF "$$needle" /tmp/obs-federated.txt || { echo "federated exposition missing $$needle"; exit 1; }; done
	! grep -vE '^$$|^#|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [^[:space:]]+$$' /tmp/obs-federated.txt
	/tmp/mamdr-bin/mamdr-obs \
		-scrape trainer=127.0.0.1:9191,rpc://127.0.0.1:7101,rpc://127.0.0.1:7102 \
		-interval 500ms -run-for 15s -slo-fast -addr 127.0.0.1:9601 \
		>/tmp/obs-clean.txt 2>&1 & \
	sleep 0.5; \
	/tmp/mamdr-bin/mamdr-train -preset amazon-6 -samples 2000 -epochs 4 -seed 7 \
		-ps-workers 2 -ps-sync-push -ps-addrs 127.0.0.1:7101,127.0.0.1:7102 \
		-metrics-addr 127.0.0.1:9191 -metrics-linger 5s >/dev/null 2>&1; \
	wait
	kill `cat /tmp/obs-ps.pid`
	grep -E 'alerts_fired=0' /tmp/obs-clean.txt
	@echo "ok: faulted run fired, clean run quiet"

# One serving process with streaming
# model-quality tracking, observed by mamdr-obs. Matched traffic
# (val+test replayed with true labels) must fire no alert; drifted
# traffic (fixed items, inverted labels) must burn the quality SLOs and
# flip /quality to no-go.
smoke-quality:
	$(GO) build -o /tmp/mamdr-bin/ ./cmd/mamdr-serve ./cmd/mamdr-obs ./cmd/datagen
	/tmp/mamdr-bin/datagen -preset amazon-6 -samples 3000 -seed 11 -out /tmp/quality-ds.json
	/tmp/mamdr-bin/mamdr-serve -preset amazon-6 -samples 3000 -seed 11 -epochs 8 \
		-addr 127.0.0.1:8085 -access-log off \
		>/tmp/quality-serve.log 2>&1 & echo $$! > /tmp/quality-serve.pid
	for i in `seq 90`; do curl -sf 127.0.0.1:8085/healthz >/dev/null 2>&1 && break; \
		kill -0 `cat /tmp/quality-serve.pid` || { cat /tmp/quality-serve.log; exit 1; }; sleep 1; done
	grep 'quality baseline' /tmp/quality-serve.log
	/tmp/mamdr-bin/mamdr-obs -scrape serve=127.0.0.1:8085 \
		-interval 500ms -run-for 15s -slo-fast -addr 127.0.0.1:9610 \
		>/tmp/quality-control.txt 2>&1 & \
	sleep 0.7; \
	python3 scripts/quality_traffic.py --base http://127.0.0.1:8085 \
		--data /tmp/quality-ds.json --mode control --repeat 8; \
	wait
	grep -E 'alerts_fired=0' /tmp/quality-control.txt
	/tmp/mamdr-bin/mamdr-obs -scrape serve=127.0.0.1:8085 \
		-interval 500ms -run-for 15s -slo-fast -addr 127.0.0.1:9611 \
		-events /tmp/quality-events.jsonl >/tmp/quality-drift.txt 2>&1 & \
	sleep 0.7; \
	python3 scripts/quality_traffic.py --base http://127.0.0.1:8085 \
		--data /tmp/quality-ds.json --mode drift --repeat 8; \
	sleep 3; curl -s 127.0.0.1:9611/quality > /tmp/quality-report.json; \
	wait
	kill `cat /tmp/quality-serve.pid`
	grep -E 'alerts_fired=[1-9]' /tmp/quality-drift.txt
	grep '"slo":"quality-psi-drift"' /tmp/quality-events.jsonl >/dev/null
	grep '"slo":"quality-auc-floor"' /tmp/quality-events.jsonl >/dev/null
	grep '"slo":"quality-calibration"' /tmp/quality-events.jsonl >/dev/null
	python3 -c "import json; r=json.load(open('/tmp/quality-report.json')); \
		assert not r['go'], 'drift run still reports go'; \
		assert any(s.startswith('quality-') for s in r['firing']), r['firing']; \
		w=r['worst_by_psi'][0]; \
		assert max(w['score_psi'], w['label_psi']) > 0.25, w; \
		print('ok: drift fired', r['firing'], 'worst domain', w['domain'])"
	@echo "ok: matched traffic quiet, drifted traffic fired the quality SLOs"

# One serving process seeded from a
# clean checkpoint with the canary gate on. Re-publishing the clean
# snapshot must auto-promote (the traffic driver mirrors every batch to
# both arms via precomputed X-Request-IDs, so identical weights show a
# zero quality gap); publishing a label-flipped checkpoint must
# auto-roll-back with zero client-visible errors (the driver fails on
# any non-2xx), only the promoted snapshot may be announced as the
# incumbent, the incumbent must keep serving afterwards, and the
# rollback must burn the rollout-rollbacks SLO in mamdr-obs. A final
# restart with an injected serve-path fault proves the chaos schedule
# reaches /predict and is contained to one request.
smoke-rollout:
	$(GO) build -o /tmp/mamdr-bin/ ./cmd/mamdr-train ./cmd/mamdr-serve ./cmd/mamdr-obs ./cmd/datagen
	/tmp/mamdr-bin/datagen -preset taobao-10 -samples 2000 -seed 7 -out /tmp/rollout-ds.json
	/tmp/mamdr-bin/mamdr-train -preset taobao-10 -samples 2000 -seed 7 -epochs 4 \
		-save /tmp/rollout-clean.ckpt >/tmp/rollout-train.log 2>&1
	/tmp/mamdr-bin/mamdr-train -preset taobao-10 -samples 2000 -seed 7 -epochs 4 \
		-flip-labels -save /tmp/rollout-poison.ckpt >>/tmp/rollout-train.log 2>&1
	grep 'flip-labels' /tmp/rollout-train.log
	/tmp/mamdr-bin/mamdr-serve -preset taobao-10 -samples 2000 -seed 7 \
		-checkpoint /tmp/rollout-clean.ckpt -addr 127.0.0.1:8086 -access-log off \
		-canary-fraction 0.5 -rollout-min-labeled 48 -rollout-min-scores 64 \
		-rollout-max-wait 2m \
		>/tmp/rollout-serve.log 2>&1 & echo $$! > /tmp/rollout-serve.pid
	for i in `seq 90`; do curl -sf 127.0.0.1:8086/healthz >/dev/null 2>&1 && break; \
		kill -0 `cat /tmp/rollout-serve.pid` || { cat /tmp/rollout-serve.log; exit 1; }; sleep 1; done
	grep 'loaded checkpoint' /tmp/rollout-serve.log
	curl -sf 127.0.0.1:8086/readyz | grep 'ready v1'
	curl -sf -XPOST -d '{"path":"/tmp/rollout-clean.ckpt"}' 127.0.0.1:8086/admin/publish
	curl -sf 127.0.0.1:8086/readyz | grep 'canary v2 at 50%'
	python3 scripts/rollout_traffic.py --base http://127.0.0.1:8086 \
		--data /tmp/rollout-ds.json --fraction 0.5 --repeat 2
	grep 'rollout_decision=promote version=2 reason=clean' /tmp/rollout-serve.log
	curl -sf 127.0.0.1:8086/readyz | grep 'ready v2'
	/tmp/mamdr-bin/mamdr-obs -scrape serve=127.0.0.1:8086 \
		-interval 500ms -run-for 25s -slo-fast -addr 127.0.0.1:9620 \
		-events /tmp/rollout-events.jsonl >/tmp/rollout-obs.txt 2>&1 & \
	sleep 0.7; \
	curl -sf -XPOST -d '{"path":"/tmp/rollout-poison.ckpt"}' 127.0.0.1:8086/admin/publish; \
	curl -sf 127.0.0.1:8086/readyz > /tmp/rollout-canary-readyz.txt; \
	python3 scripts/rollout_traffic.py --base http://127.0.0.1:8086 \
		--data /tmp/rollout-ds.json --fraction 0.5 --repeat 2; \
	wait
	grep 'canary v3 at 50%' /tmp/rollout-canary-readyz.txt
	grep -E 'rollout_decision=rollback version=3 reason=(psi|auc|logloss)' /tmp/rollout-serve.log
	curl -sf 127.0.0.1:8086/readyz | grep 'ready v2 crc='
	curl -s 127.0.0.1:8086/metrics | grep -E 'mamdr_rollout_decisions_total\{decision="rollback"'
	grep -E 'alerts_fired=[1-9]' /tmp/rollout-obs.txt
	grep '"slo":"rollout-rollbacks"' /tmp/rollout-events.jsonl >/dev/null
	grep 'snapshot v2 .* is now the incumbent' /tmp/rollout-serve.log
	test "$$(grep -c 'is now the incumbent' /tmp/rollout-serve.log)" = 1
	kill `cat /tmp/rollout-serve.pid`
	/tmp/mamdr-bin/mamdr-serve -preset taobao-10 -samples 2000 -seed 7 \
		-checkpoint /tmp/rollout-clean.ckpt -addr 127.0.0.1:8087 -access-log off \
		-rollout=false -serve-faults 'Predict:err@1' \
		>/tmp/rollout-chaos.log 2>&1 & echo $$! > /tmp/rollout-chaos.pid
	for i in `seq 90`; do curl -sf 127.0.0.1:8087/healthz >/dev/null 2>&1 && break; \
		kill -0 `cat /tmp/rollout-chaos.pid` || { cat /tmp/rollout-chaos.log; exit 1; }; sleep 1; done
	test "$$(curl -s -o /dev/null -w '%{http_code}' -XPOST \
		-d '{"domain":0,"users":[0],"items":[0]}' 127.0.0.1:8087/predict)" = 500
	curl -sf -XPOST -d '{"domain":0,"users":[0],"items":[0]}' 127.0.0.1:8087/predict >/dev/null
	kill `cat /tmp/rollout-chaos.pid`
	@echo "ok: clean publish promoted, poisoned publish rolled back, injected predict fault contained"

# The same mirrored replay driven twice
# through one checkpoint — once with coalescing off (one forward per
# request), once with `-batch-max=64` under 16 concurrent client threads
# — must produce byte-identical score dumps at -snapshot-quant=off (the
# blocked kernels keep textbook accumulation order regardless of row
# count, so batchmates cannot perturb each other's math). The batched
# server must actually coalesce, and requests coalesce only while every
# replica is busy: the Python replay's threads arrive almost one at a
# time and a forward takes ~50 µs, so the batched server runs one replica
# that an injected fault holds 20 ms per forward — the other 15 clients
# queue behind it and leave as reason="slot" flushes, which are counted.
# Both servers run every request through the same scheduler: the
# unbatched one's requests are counted as reason="idle" flushes too.
# The env-gated Go test then asserts the int8 AUC budget (ΔAUC ≥ -0.002
# on amazon-6). What batching buys is measured by mamdr-bench
# (serve-point vs serve-live), not gated here.
smoke-batch:
	$(GO) build -o /tmp/mamdr-bin/ ./cmd/mamdr-train ./cmd/mamdr-serve ./cmd/datagen
	/tmp/mamdr-bin/datagen -preset amazon-6 -samples 2000 -seed 7 -out /tmp/batch-ds.json
	/tmp/mamdr-bin/mamdr-train -preset amazon-6 -samples 2000 -seed 7 -epochs 4 \
		-save /tmp/batch.ckpt >/tmp/batch-train.log 2>&1
	/tmp/mamdr-bin/mamdr-serve -preset amazon-6 -samples 2000 -seed 7 \
		-checkpoint /tmp/batch.ckpt -addr 127.0.0.1:8088 -access-log off \
		-rollout=false -batch-max=0 -max-queue 256 \
		>/tmp/batch-serve-off.log 2>&1 & echo $$! > /tmp/batch-serve.pid
	for i in `seq 90`; do curl -sf 127.0.0.1:8088/healthz >/dev/null 2>&1 && break; \
		kill -0 `cat /tmp/batch-serve.pid` || { cat /tmp/batch-serve-off.log; exit 1; }; sleep 1; done
	python3 scripts/rollout_traffic.py --base http://127.0.0.1:8088 \
		--data /tmp/batch-ds.json --repeat 1 --workers 16 \
		--dump-scores /tmp/batch-scores-off.jsonl
	curl -s 127.0.0.1:8088/metrics | grep -E 'mamdr_serve_batch_flushes_total\{reason="idle"\} [1-9]'
	kill `cat /tmp/batch-serve.pid`
	/tmp/mamdr-bin/mamdr-serve -preset amazon-6 -samples 2000 -seed 7 \
		-checkpoint /tmp/batch.ckpt -addr 127.0.0.1:8089 -access-log off \
		-rollout=false -batch-max=64 -snapshot-quant=off \
		-replicas 1 -serve-faults 'Predict:delay=20ms@*' \
		-max-queue 256 \
		>/tmp/batch-serve-on.log 2>&1 & echo $$! > /tmp/batch-serve.pid
	for i in `seq 90`; do curl -sf 127.0.0.1:8089/healthz >/dev/null 2>&1 && break; \
		kill -0 `cat /tmp/batch-serve.pid` || { cat /tmp/batch-serve-on.log; exit 1; }; sleep 1; done
	grep 'request coalescing on' /tmp/batch-serve-on.log
	python3 scripts/rollout_traffic.py --base http://127.0.0.1:8089 \
		--data /tmp/batch-ds.json --repeat 1 --workers 16 \
		--dump-scores /tmp/batch-scores-on.jsonl
	curl -s 127.0.0.1:8089/metrics | grep -E 'mamdr_serve_batch_flushes_total\{reason="slot"\} [1-9]'
	kill `cat /tmp/batch-serve.pid`
	test -s /tmp/batch-scores-off.jsonl
	diff /tmp/batch-scores-off.jsonl /tmp/batch-scores-on.jsonl
	MAMDR_SMOKE_BATCH=1 $(GO) test -count=1 -v -run TestQuantAUCBudget ./internal/exp
	@echo "ok: batched scores byte-identical to unbatched; int8 AUC gate passed"

# The PS, cluster, serving, batching, and quant paths are the
# concurrent hot spots, and core's DR phase runs one worker goroutine per
# kernel thread over autograd and its buffer arena; keep them race-clean.
# The race detector does not see loads and stores made in assembly —
# gemmAddAVX2 (gemm_amd64.s), adamAVX2 and addAVX2 (elementwise_amd64.s):
# TestParallelGemmConcurrent under -race covers how rows are partitioned
# among goroutines, not the inner loop (which shares nothing: a goroutine
# writes only its own rows), and the Adam update and the vector add under
# AccumAdd, AddTo, ColSumAdd and the fused bias are unseen by it.
race:
	$(GO) test -race -count=1 ./internal/ps/... ./internal/cluster/... ./internal/serve/... \
		./internal/batch/... ./internal/quant/... ./internal/core/... ./internal/autograd/...

# The DR phase's oracle (any worker count == the sequential per-target
# loop, float for float) with its workers interleaved on one P and
# spread over four.
race-dr:
	$(GO) test -race -count=1 -cpu 1,4 -run TestDRPhaseIndependentOfWorkers ./internal/core

# Every Fuzz* target for 10 s past its seeds (which plain `go test` runs).
# -fuzzminimizetime=0: FuzzCheckpointEnvelope goes through a file, its
# coverage is noisy, and the default minimizer stalls on it for 60 s.
fuzz-smoke:
	@grep -r -o --include='*_test.go' '^func Fuzz[A-Za-z0-9_]*' . | sed 's|/[^/]*:func | |' | while read pkg target; do \
		echo "fuzz $$pkg $$target"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$target$$" -fuzztime 10s -fuzzminimizetime=0 || exit 1; done

bench-serve:
	$(GO) test ./internal/serve -run xxx -bench ServeThroughput -benchtime 2s

# The one measurement harness (cmd/mamdr-bench/README.md): all six
# workloads, five untraced runs and one traced run each, written to OUT.
OUT ?= BENCH.json
bench: bench-kernels
	bash cmd/mamdr-bench/run.sh -out $(OUT) -repeat 5

# The kernel's own rows: the three GEMM products at the MLP's shapes, the
# Adam update and the vector add at 18,689 and 105,000 elements, each on
# the assembly routine and on the Go loops, and the autograd ops on top.
bench-kernels:
	$(GO) test ./internal/autograd/kernels -run '^$$' -bench 'BenchmarkGemm|BenchmarkAdamStep|BenchmarkAdd' -benchtime 2000x
	$(GO) test ./internal/autograd -run '^$$' -bench 'BenchmarkMatMul64x64|BenchmarkMatMul256x256|BenchmarkDenseActFused' -benchtime 2000x

# One verdict per workload x end-to-end metric between two result
# files; exits 1 on a regression or a higher fail ratio.
bench-compare:
	bash cmd/mamdr-bench/run.sh -compare $(OLD) $(NEW)

# Instrumented-vs-bare cost of the telemetry subsystem on the training
# loop and the serving request path (budget: <5%).
bench-telemetry:
	$(GO) test ./internal/core -run xxx -bench TelemetryOverhead -benchtime 10x
	$(GO) test ./internal/serve -run xxx -bench TelemetryOverhead -benchtime 2s

# All six mamdr-bench workloads at shrunk sizes, answers checked, no
# timing gate.
bench-smoke:
	bash cmd/mamdr-bench/run.sh -quick

# What CI's test job runs (.github/workflows/ci.yml): every smoke runs
# here and only here.
ci:
	$(GO) vet ./...
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -tags purego ./internal/autograd/... ./internal/optim/... ./internal/core/...
	$(MAKE) race-dr
	$(MAKE) bench-smoke
	$(MAKE) smoke-chaos
	$(MAKE) smoke-cluster
	$(MAKE) smoke-obs
	$(MAKE) smoke-quality
	$(MAKE) smoke-rollout
	$(MAKE) smoke-batch
	$(MAKE) smoke-trace

check: vet build test race
