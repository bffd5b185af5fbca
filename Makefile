GO ?= go

.PHONY: all build test vet loc staticcheck race race-dr fuzz-smoke bench bench-kernels bench-smoke bench-compare bench-serve bench-telemetry smoke-trace smoke-chaos smoke-cluster smoke-resume smoke-obs smoke-quality smoke-rollout smoke-batch smoke-experiments ci check

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
# and PS spans (the file is removed first: -trace appends, so a leftover
# file would answer the greps); and a long traced run killed by SIGTERM
# mid-training must leave the spans it completed on disk (the file
# streams a line per span).
smoke-trace:
	rm -f /tmp/smoke.trace.jsonl*
	$(GO) run ./cmd/mamdr-train -preset taobao-10 -samples 2000 -epochs 2 \
		-ps-workers 2 -trace /tmp/smoke.trace.jsonl
	for span in worker.epoch worker.inner_step train.forward ps.pull_dense ps.push_delta; do \
		grep -q "\"name\":\"$$span\"" /tmp/smoke.trace.jsonl || { echo "trace has no $$span span"; exit 1; }; done
	$(GO) build -o /tmp/mamdr-bin/ ./cmd/mamdr-train
	rm -f /tmp/smoke-killed.trace.jsonl
	/tmp/mamdr-bin/mamdr-train -preset taobao-10 -epochs 100000 -ps-workers 2 \
		-trace /tmp/smoke-killed.trace.jsonl >/tmp/smoke-killed.log 2>&1 & pid=$$!; \
	for i in `seq 100`; do grep -qs '"name":"worker.inner_step"' /tmp/smoke-killed.trace.jsonl && break; sleep 0.1; done; \
	kill -TERM $$pid; wait $$pid; \
	test $$? -eq 143 || { cat /tmp/smoke-killed.log; echo "the traced run ended before SIGTERM killed it"; exit 1; }; \
	grep -q '"name":"worker.inner_step"' /tmp/smoke-killed.trace.jsonl || { echo "killed run left no worker.inner_step span"; exit 1; }

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
# exactly the same per-domain AUC table and the same `PS traffic:` line
# as the 1-shard in-process run (the partition plan is a pure function
# of the layout and seed; SyncPush fixes the delta-apply order; each
# call is counted once, by the router it went through, however often
# it was retried), the injected faults must be counted,
# and the trace must carry the scatter-gather spans. Amazon-6 is the
# preset with learned embeddings, so row traffic crosses the shards.
# The faulted run's -save file is what serving loads: mamdr-serve
# -checkpoint must come up ready and answer a prediction. The 1- and
# 3-shard files are not compared byte for byte: their decoded states
# are identical, but gob's type ids, and with them the payload bytes
# and CRC, depend on what the process encoded first.
smoke-cluster:
	$(GO) run ./cmd/mamdr-train -preset amazon-6 -samples 2000 -epochs 3 \
		-ps-workers 2 -ps-sync-push -seed 7 \
		2>/tmp/cluster-1shard.log | grep -v '^trained in\|^training ' > /tmp/cluster-1shard.txt
	rm -f /tmp/cluster.trace.jsonl*
	$(GO) run ./cmd/mamdr-train -preset amazon-6 -samples 2000 -epochs 3 \
		-ps-workers 2 -ps-sync-push -seed 7 -ps-shards 3 \
		-ps-faults "PullRows:err@2; PushDelta:err@5; conn:drop@6" \
		-trace /tmp/cluster.trace.jsonl -save /tmp/cluster.ckpt \
		2>/tmp/cluster-3shard.log | grep -v '^trained in\|^training ' > /tmp/cluster-3shard.txt
	diff /tmp/cluster-1shard.txt /tmp/cluster-3shard.txt
	for n in 1shard 3shard; do grep 'PS traffic:' /tmp/cluster-$$n.log > /tmp/cluster-$$n.traffic || exit 1; done
	diff /tmp/cluster-1shard.traffic /tmp/cluster-3shard.traffic
	grep -E '[1-9][0-9]* faults injected' /tmp/cluster-3shard.log
	for span in cluster.pull_rows cluster.push_delta cluster.shard_call; do \
		grep -q "\"name\":\"$$span\"" /tmp/cluster.trace.jsonl || { echo "trace has no $$span span"; exit 1; }; done
	$(GO) build -o /tmp/mamdr-bin/ ./cmd/mamdr-serve
	/tmp/mamdr-bin/mamdr-serve -checkpoint /tmp/cluster.ckpt -addr 127.0.0.1:8090 -access-log off \
		>/tmp/cluster-serve.log 2>&1 & echo $$! > /tmp/cluster-serve.pid
	for i in `seq 90`; do curl -sf 127.0.0.1:8090/healthz >/dev/null 2>&1 && break; \
		kill -0 `cat /tmp/cluster-serve.pid` || { cat /tmp/cluster-serve.log; exit 1; }; sleep 1; done
	curl -sf 127.0.0.1:8090/readyz && \
		curl -sf -XPOST 127.0.0.1:8090/predict -d '{"domain":0,"users":[1,2],"items":[3,4]}'; \
		status=$$?; kill `cat /tmp/cluster-serve.pid`; exit $$status
	$(GO) test -count=1 -run 'TestClusterTrainingBitIdenticalAcrossShardCounts|TestShardFailoverMatchesCleanRun|TestClusterChaosOverRPCBitIdentical' ./internal/cluster/

# A resume continues the run it checkpointed, and only that run. On the
# core path and on a 2-worker sync-push PS run, 2 epochs and a -resume
# to 3 print the AUC table of an uninterrupted 3-epoch run (the epoch
# cap is the one spec field a resume may change). A -resume on another
# dataset (Amazon-6's embedding tables change shape with it), another
# model, another -lr or another -framework exits 1 with one line naming
# the spec fields that differ, never a goroutine trace.
smoke-resume:
	$(GO) build -o /tmp/mamdr-bin/ ./cmd/mamdr-train
	set -e; for ps in "" "-ps-workers 2 -ps-sync-push"; do \
		dir=/tmp/resume$${ps:+-ps}; rm -rf $$dir; \
		run="/tmp/mamdr-bin/mamdr-train -preset amazon-6 $$ps -epochs 3"; \
		$$run -samples 3000 -seed 1 | grep -v '^trained in' > $$dir-full.txt; \
		$$run -samples 3000 -seed 1 -epochs 2 -checkpoint-dir $$dir > /dev/null; \
		$$run -samples 3000 -seed 1 -checkpoint-dir $$dir -resume | grep -v '^trained in' > $$dir-resumed.txt; \
		diff $$dir-full.txt $$dir-resumed.txt; \
		for other in "-samples 2400 -seed 9:Samples 2400.*Seed 9" "-samples 3000 -seed 1 -model wdl:Model \"wdl\"" \
			"-samples 3000 -seed 1 -lr 0.05:LR 0.05 (checkpoint" "-samples 3000 -seed 1 -framework dn:Framework \"dn\" (checkpoint \"mamdr\")"; do \
			status=0; $$run $${other%%:*} -checkpoint-dir $$dir -resume > /dev/null 2> $$dir-refused.log || status=$$?; \
			if [ $$status -ne 1 ] || grep -q goroutine $$dir-refused.log || ! grep -q "$${other#*:}" $$dir-refused.log; then \
				echo "resume $${other%%:*} $$ps: exit $$status"; cat $$dir-refused.log; exit 1; fi; \
		done; \
	done

# Two shard servers in one host process (scraped once, on its
# -metrics-addr) plus a faulted
# 2-worker training run, observed live by mamdr-obs. The federated
# exposition must carry every instance, the faulted run must fire at
# least one burn-rate alert (with a flight-recorder dump and an event),
# every sample line of the federated exposition must parse, and a clean
# run observed by a fresh monitor must fire none.
smoke-obs:
	$(GO) build -o /tmp/mamdr-bin/ ./cmd/mamdr-train ./cmd/mamdr-obs
	/tmp/mamdr-bin/mamdr-train -preset amazon-6 -samples 2000 -seed 7 \
		-ps-serve 127.0.0.1:7101,127.0.0.1:7102 -metrics-addr 127.0.0.1:9192 \
		>/tmp/obs-ps.log 2>&1 & echo $$! > /tmp/obs-ps.pid
	sleep 1
	kill -0 `cat /tmp/obs-ps.pid` || { cat /tmp/obs-ps.log; exit 1; }
	/tmp/mamdr-bin/mamdr-obs \
		-scrape trainer=127.0.0.1:9190,ps=127.0.0.1:9192 \
		-interval 500ms -run-for 30s -slo-fast -addr 127.0.0.1:9600 \
		-events /tmp/obs-events.jsonl -flight-dump /tmp/obs-flight \
		>/tmp/obs-faulty.txt 2>&1 & \
	sleep 0.5; \
	/tmp/mamdr-bin/mamdr-train -preset amazon-6 -samples 2000 -epochs 4 -seed 7 \
		-ps-workers 2 -ps-sync-push -ps-addrs 127.0.0.1:7101,127.0.0.1:7102 \
		-ps-faults "PushDelta:err@p0.3; PullRows:err@p0.2" \
		-metrics-addr 127.0.0.1:9190 -metrics-linger 30s -trace /tmp/obs.trace.jsonl \
		>/tmp/obs-train.log 2>&1 & \
	sleep 12; curl -s 127.0.0.1:9600/metrics > /tmp/obs-federated.txt; wait
	grep -E 'alerts_fired=[1-9]' /tmp/obs-faulty.txt
	grep '"event":"slo_burn"' /tmp/obs-events.jsonl >/dev/null
	grep '"slo":"ps-rpc-failures"' /tmp/obs-events.jsonl >/dev/null
	test -s /tmp/obs-flight-slo_ps-rpc-failures.trace.json
	for needle in 'instance="127.0.0.1:9192"' \
		'role="trainer"' 'role="ps"' 'role="obs"' mamdr_build_info mamdr_ps_rpc_failures_total \
		mamdr_slo_burn_alerts_total mamdr_obs_scrapes_total; do \
		grep -qF "$$needle" /tmp/obs-federated.txt || { echo "federated exposition missing $$needle"; exit 1; }; done
	! grep -vE '^$$|^#|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [^[:space:]]+$$' /tmp/obs-federated.txt
	/tmp/mamdr-bin/mamdr-obs \
		-scrape trainer=127.0.0.1:9191,ps=127.0.0.1:9192 \
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
# model-quality tracking, serving the checkpoint (and its validation
# baseline) that mamdr-train -save wrote, observed by mamdr-obs. The
# trainer reads the dataset JSON the traffic driver replays (-data), so
# the server rebuilds it from the path the checkpoint records. Matched traffic
# (val+test replayed with true labels) must fire no alert; drifted
# traffic (fixed items, inverted labels) must burn the quality SLOs and
# flip /quality to no-go. Once the data file holds another dataset of
# the same shape (another seed), the server must refuse to boot from the
# checkpoint, naming the digest it recorded.
smoke-quality:
	$(GO) build -o /tmp/mamdr-bin/ ./cmd/mamdr-train ./cmd/mamdr-serve ./cmd/mamdr-obs ./cmd/datagen
	/tmp/mamdr-bin/datagen -preset amazon-6 -samples 3000 -seed 11 -out /tmp/quality-ds.json
	/tmp/mamdr-bin/mamdr-train -data /tmp/quality-ds.json -seed 11 -epochs 8 \
		-save /tmp/quality.ckpt >/tmp/quality-train.log 2>&1
	/tmp/mamdr-bin/mamdr-serve -checkpoint /tmp/quality.ckpt -addr 127.0.0.1:8085 -access-log off \
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
	/tmp/mamdr-bin/datagen -preset amazon-6 -samples 3000 -seed 12 -out /tmp/quality-ds.json
	status=0; timeout 120 /tmp/mamdr-bin/mamdr-serve -checkpoint /tmp/quality.ckpt -addr 127.0.0.1:8085 -access-log off \
		>/tmp/quality-rewritten.log 2>&1 || status=$$?; \
	if [ $$status -eq 0 ] || [ $$status -eq 124 ] || ! grep -q DataSHA256 /tmp/quality-rewritten.log; then \
		cat /tmp/quality-rewritten.log; echo "mamdr-serve over a rewritten data file: exit $$status"; exit 1; fi
	@echo "ok: matched traffic quiet, drifted traffic fired the quality SLOs, a rewritten data file refused"

# The trainer's -save files are envelope v5 (vector block), so every
# publish, rollback and 422 below goes through the v5 reader. One
# serving process seeded from a
# clean checkpoint with the canary gate on. Re-publishing the clean
# snapshot must auto-promote (the traffic driver mirrors every batch to
# both arms via precomputed X-Request-IDs, so identical weights show a
# zero quality gap); publishing a label-flipped checkpoint must
# auto-roll-back with zero client-visible errors (the driver fails on
# any non-2xx), only the promoted snapshot may be announced as the
# incumbent, the incumbent must keep serving afterwards, and the
# rollback must burn the rollout-rollbacks SLO in mamdr-obs. A checkpoint
# of the same shapes trained on another dataset (taobao-10 at 2,400
# samples, whose fixed feature vectors differ) must be refused with a
# 422, leaving v2 serving. The server's access
# log goes to a file through the rotating event log: once the server
# has drained, the file must hold one JSON line, carrying a request_id,
# per request the server counted (plus the last /metrics read). A final
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
	/tmp/mamdr-bin/mamdr-train -preset taobao-10 -samples 2400 -seed 7 -epochs 1 \
		-save /tmp/rollout-other.ckpt >>/tmp/rollout-train.log 2>&1
	grep 'rollout-clean.ckpt (envelope v5,' /tmp/rollout-train.log
	rm -f /tmp/rollout-access.jsonl*
	/tmp/mamdr-bin/mamdr-serve -checkpoint /tmp/rollout-clean.ckpt -addr 127.0.0.1:8086 -access-log /tmp/rollout-access.jsonl \
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
	test "$$(curl -s -o /dev/null -w '%{http_code}' -XPOST \
		-d '{"path":"/tmp/rollout-other.ckpt"}' 127.0.0.1:8086/admin/publish)" = 422
	curl -sf 127.0.0.1:8086/readyz | grep 'ready v2 crc='
	curl -s 127.0.0.1:8086/metrics > /tmp/rollout-metrics.txt
	grep -E 'mamdr_rollout_decisions_total\{decision="rollback"' /tmp/rollout-metrics.txt
	grep -E 'alerts_fired=[1-9]' /tmp/rollout-obs.txt
	grep '"slo":"rollout-rollbacks"' /tmp/rollout-events.jsonl >/dev/null
	grep 'snapshot v2 .* is now the incumbent' /tmp/rollout-serve.log
	test "$$(grep -c 'is now the incumbent' /tmp/rollout-serve.log)" = 1
	kill `cat /tmp/rollout-serve.pid`
	while kill -0 `cat /tmp/rollout-serve.pid` 2>/dev/null; do sleep 0.2; done
	python3 -c "import json, re; \
		recs = [json.loads(l) for l in open('/tmp/rollout-access.jsonl')]; \
		assert all(r['msg'] == 'request' and r['request_id'] for r in recs), 'access-log line without request_id'; \
		n = sum(int(v) for v in re.findall(r'^mamdr_serve_requests_total\{[^}]*\} (\d+)$$', open('/tmp/rollout-metrics.txt').read(), re.M)); \
		assert len(recs) == n + 1, ('access-log lines', len(recs), 'requests counted', n); \
		print('ok: access log holds one line per request:', len(recs))"
	/tmp/mamdr-bin/mamdr-serve -checkpoint /tmp/rollout-clean.ckpt -addr 127.0.0.1:8087 -access-log off \
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
	/tmp/mamdr-bin/mamdr-serve -checkpoint /tmp/batch.ckpt -addr 127.0.0.1:8088 -access-log off \
		-rollout=false -batch-max=0 -max-queue 256 \
		>/tmp/batch-serve-off.log 2>&1 & echo $$! > /tmp/batch-serve.pid
	for i in `seq 90`; do curl -sf 127.0.0.1:8088/healthz >/dev/null 2>&1 && break; \
		kill -0 `cat /tmp/batch-serve.pid` || { cat /tmp/batch-serve-off.log; exit 1; }; sleep 1; done
	python3 scripts/rollout_traffic.py --base http://127.0.0.1:8088 \
		--data /tmp/batch-ds.json --repeat 1 --workers 16 \
		--dump-scores /tmp/batch-scores-off.jsonl
	curl -s 127.0.0.1:8088/metrics | grep -E 'mamdr_serve_batch_flushes_total\{reason="idle"\} [1-9]'
	kill `cat /tmp/batch-serve.pid`
	/tmp/mamdr-bin/mamdr-serve -checkpoint /tmp/batch.ckpt -addr 127.0.0.1:8089 -access-log off \
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

# The PS, cluster, serving, batching, quant, quality, telemetry and obsv
# paths are the concurrent hot spots — quality's feedback join buffer
# and tracker run on every quality-on /predict, every serve goroutine
# looks its labelled series up through telemetry's family handles, and
# obsv scrapes targets concurrently — and core's DR phase runs one
# worker goroutine per kernel thread over autograd and its buffer arena;
# a serve publish takes the rollout gate's lock under the server's, and
# every span ends into trace's shared sinks; keep them race-clean.
# The race detector does not see loads and stores made in assembly —
# gemmAddAVX2 (gemm_amd64.s: its eight-lane ZMM tiles where the CPU has
# AVX-512 and its four-lane YMM tiles), adamAVX2 (elementwise_amd64.s:
# its full path and the path that skips a group of +0 moments), addAVX2
# and reluAVX2: TestParallelGemmConcurrent under -race covers how rows
# are partitioned among goroutines, not the inner loop (which shares
# nothing: a goroutine writes only its own rows), and the Adam update,
# the vector add under AccumAdd, AddTo, ColSumAdd and the fused bias,
# and the ReLU under ReLUTo are unseen by it.
race:
	$(GO) test -race -count=1 ./internal/ps/... ./internal/cluster/... ./internal/serve/... \
		./internal/batch/... ./internal/quant/... ./internal/quality/... ./internal/core/... ./internal/autograd/... \
		./internal/telemetry/... ./internal/obsv/... ./internal/rollout/... ./internal/trace/...

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

# The kernel's own rows: the three GEMM products at the MLP's shapes on
# the assembly routine's eight-lane and four-lane tiles (lanes=8|4) and
# on the Go loops; the Adam update at 0, 22 and 50 % of elements with
# +0 moments and gradient (zero=…%) and the vector add, at 18,689 and
# 105,000 elements, on the assembly routines and the Go loops; and the
# autograd ops on top.
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

# The experiment harness end to end at Tiny scale: every experiment runs
# and every table heading lands in the output file. An unknown -run id
# fails before anything trains: no "done" line, no file written.
smoke-experiments:
	$(GO) build -o /tmp/mamdr-bin/ ./cmd/experiments
	rm -f /tmp/smoke-exp.md /tmp/smoke-exp-bad.md
	/tmp/mamdr-bin/experiments -run all -scale tiny -out /tmp/smoke-exp.md
	for h in 'Table I' 'Table II' 'Table III' 'Table IV' 'Table V' 'Table VI' 'Table VII' \
		'Table VIII' 'Table IX' 'Table X' 'Figure 8' 'Figure 9' 'Ablation DN-Order' \
		'Ablation DR-Order' 'Ablation PS-Cache' 'Conflict Scaling' 'Conflict Diagnostic' \
		'Extension LODO' 'Extension Quant'; do \
		grep -qF "### $$h — " /tmp/smoke-exp.md || { echo "no $$h table in /tmp/smoke-exp.md"; exit 1; }; done
	! /tmp/mamdr-bin/experiments -run table1,nope -scale tiny -out /tmp/smoke-exp-bad.md 2>/tmp/smoke-exp-bad.log
	! grep -q ' done in ' /tmp/smoke-exp-bad.log
	test ! -e /tmp/smoke-exp-bad.md

# What CI's test job runs (.github/workflows/ci.yml): every smoke runs
# here and only here. The first line fails on any file gofmt would change.
ci:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -tags purego ./internal/autograd/... ./internal/optim/... ./internal/core/...
	$(MAKE) race-dr
	$(MAKE) bench-smoke
	$(MAKE) smoke-chaos
	$(MAKE) smoke-cluster
	$(MAKE) smoke-resume
	$(MAKE) smoke-obs
	$(MAKE) smoke-quality
	$(MAKE) smoke-rollout
	$(MAKE) smoke-batch
	$(MAKE) smoke-trace
	$(MAKE) smoke-experiments

check: vet build test race
