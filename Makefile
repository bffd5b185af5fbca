GO ?= go

# SMOKE is the scratch root every smoke target writes under: its
# binaries, datasets, checkpoints, logs and captures. Override it to
# keep smoke outputs in another existing directory (make ci
# SMOKE=/var/tmp/mamdr).
SMOKE ?= /tmp

.PHONY: all build test vet loc loc-check staticcheck race race-dr fuzz-smoke bench bench-kernels bench-smoke bench-compare bench-serve bench-telemetry smoke-trace smoke-chaos smoke-cluster smoke-resume smoke-obs smoke-quality smoke-rollout smoke-batch smoke-experiments ci check

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
	@printf '%6d  total (all non-test Go)\n' "$$($(GO_LOC))"
	@printf '%6d  assembly (.s, not in the total)\n' "$$(find . -name '*.s' ! -path './.*' -exec cat {} + | wc -l)"

# GO_LOC counts all non-test Go: the total `make loc` prints.
GO_LOC = find . -name '*.go' ! -name '*_test.go' ! -path './.*' -exec cat {} + | wc -l

# The line-count ratchet: fails when `make loc`'s total passes LOC_MAX.
# A change that adds non-test Go raises LOC_MAX in its own diff, which
# is where it states its `make loc` delta.
LOC_MAX = 25387
loc-check:
	@n=$$($(GO_LOC)); test $$n -le $(LOC_MAX) || { \
		echo "non-test Go is $$n lines, past LOC_MAX $(LOC_MAX): raise LOC_MAX in the diff that adds them"; exit 1; }

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
	rm -f $(SMOKE)/smoke.trace.jsonl*
	$(GO) run ./cmd/mamdr-train -preset taobao-10 -samples 2000 -epochs 2 \
		-ps-workers 2 -trace $(SMOKE)/smoke.trace.jsonl
	for span in worker.epoch worker.inner_step train.forward ps.pull_dense ps.push_delta; do \
		grep -q "\"name\":\"$$span\"" $(SMOKE)/smoke.trace.jsonl || { echo "trace has no $$span span"; exit 1; }; done
	$(GO) build -o $(SMOKE)/mamdr-bin/ ./cmd/mamdr-train
	rm -f $(SMOKE)/smoke-killed.trace.jsonl
	$(SMOKE)/mamdr-bin/mamdr-train -preset taobao-10 -epochs 100000 -ps-workers 2 \
		-trace $(SMOKE)/smoke-killed.trace.jsonl >$(SMOKE)/smoke-killed.log 2>&1 & pid=$$!; \
	for i in `seq 100`; do grep -qs '"name":"worker.inner_step"' $(SMOKE)/smoke-killed.trace.jsonl && break; sleep 0.1; done; \
	kill -TERM $$pid; wait $$pid; \
	test $$? -eq 143 || { cat $(SMOKE)/smoke-killed.log; echo "the traced run ended before SIGTERM killed it"; exit 1; }; \
	grep -q '"name":"worker.inner_step"' $(SMOKE)/smoke-killed.trace.jsonl || { echo "killed run left no worker.inner_step span"; exit 1; }

# A 2-worker run over a loopback RPC
# parameter server with injected errors, delays, and connection drops
# must print exactly the same per-domain AUC table as a clean run (the
# retries are idempotent and SyncPush fixes the delta-apply order), and
# the bit-exact version of the same property is asserted by the chaos
# determinism tests.
smoke-chaos:
	$(GO) run ./cmd/mamdr-train -preset taobao-10 -samples 2000 -epochs 3 \
		-ps-workers 2 -ps-sync-push -seed 7 \
		| grep -v '^trained in' > $(SMOKE)/chaos-clean.txt
	$(GO) run ./cmd/mamdr-train -preset taobao-10 -samples 2000 -epochs 3 \
		-ps-workers 2 -ps-sync-push -seed 7 \
		-ps-faults "PushDelta:err@1,3; PullDense:err@2; PullDense:delay=10ms@*; conn:drop@3,7" \
		2>$(SMOKE)/chaos-faulty.log | grep -v '^trained in' > $(SMOKE)/chaos-faulty.txt
	diff $(SMOKE)/chaos-clean.txt $(SMOKE)/chaos-faulty.txt
	grep -E '[1-9][0-9]* faults injected' $(SMOKE)/chaos-faulty.log
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
		2>$(SMOKE)/cluster-1shard.log | grep -v '^trained in\|^training ' > $(SMOKE)/cluster-1shard.txt
	rm -f $(SMOKE)/cluster.trace.jsonl*
	$(GO) run ./cmd/mamdr-train -preset amazon-6 -samples 2000 -epochs 3 \
		-ps-workers 2 -ps-sync-push -seed 7 -ps-shards 3 \
		-ps-faults "PullRows:err@2; PushDelta:err@5; conn:drop@6" \
		-trace $(SMOKE)/cluster.trace.jsonl -save $(SMOKE)/cluster.ckpt \
		2>$(SMOKE)/cluster-3shard.log | grep -v '^trained in\|^training ' > $(SMOKE)/cluster-3shard.txt
	diff $(SMOKE)/cluster-1shard.txt $(SMOKE)/cluster-3shard.txt
	for n in 1shard 3shard; do grep 'PS traffic:' $(SMOKE)/cluster-$$n.log > $(SMOKE)/cluster-$$n.traffic || exit 1; done
	diff $(SMOKE)/cluster-1shard.traffic $(SMOKE)/cluster-3shard.traffic
	grep -E '[1-9][0-9]* faults injected' $(SMOKE)/cluster-3shard.log
	for span in cluster.pull_rows cluster.push_delta cluster.shard_call; do \
		grep -q "\"name\":\"$$span\"" $(SMOKE)/cluster.trace.jsonl || { echo "trace has no $$span span"; exit 1; }; done
	$(GO) build -o $(SMOKE)/mamdr-bin/ ./cmd/mamdr-serve
	$(SMOKE)/mamdr-bin/mamdr-serve -checkpoint $(SMOKE)/cluster.ckpt -addr 127.0.0.1:8090 -access-log off \
		>$(SMOKE)/cluster-serve.log 2>&1 & echo $$! > $(SMOKE)/cluster-serve.pid
	for i in `seq 90`; do curl -sf 127.0.0.1:8090/healthz >/dev/null 2>&1 && break; \
		kill -0 `cat $(SMOKE)/cluster-serve.pid` || { cat $(SMOKE)/cluster-serve.log; exit 1; }; sleep 1; done
	curl -sf 127.0.0.1:8090/readyz && \
		curl -sf -XPOST 127.0.0.1:8090/predict -d '{"domain":0,"users":[1,2],"items":[3,4]}'; \
		status=$$?; kill `cat $(SMOKE)/cluster-serve.pid`; exit $$status
	$(GO) test -count=1 -run 'TestClusterTrainingBitIdenticalAcrossShardCounts|TestShardFailoverMatchesCleanRun|TestClusterChaosOverRPCBitIdentical' ./internal/cluster/

# A resume continues the run it checkpointed, and only that run. On the
# core path and on a 2-worker sync-push PS run, 2 epochs and a -resume
# to 3 print the AUC table of an uninterrupted 3-epoch run (the epoch
# cap is the one spec field a resume may change). A -resume on another
# dataset (Amazon-6's embedding tables change shape with it), another
# model, another -lr or another -framework exits 1 with one line naming
# the spec fields that differ, never a goroutine trace. A PS run given
# -checkpoint-every 0 with -checkpoint-dir exits 1 naming the flag.
# A bare -ps-serve host is filled by its trainer: 2 epochs over -ps-addrs
# and a -resume to 3 print the in-process 2-shard run's table, the
# host's shard files record the trainer's spec, so a -resume with
# another -lr exits 1 naming LR, and a host given a run flag (-preset)
# exits non-zero naming it.
smoke-resume:
	$(GO) build -o $(SMOKE)/mamdr-bin/ ./cmd/mamdr-train
	set -e; for ps in "" "-ps-workers 2 -ps-sync-push"; do \
		dir=$(SMOKE)/resume$${ps:+-ps}; rm -rf $$dir; \
		run="$(SMOKE)/mamdr-bin/mamdr-train -preset amazon-6 $$ps -epochs 3"; \
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
		if [ -n "$$ps" ]; then status=0; $$run -checkpoint-every 0 -checkpoint-dir $$dir > /dev/null 2> $$dir-every.log || status=$$?; \
			if [ $$status -ne 1 ] || ! grep -q -- '-checkpoint-every' $$dir-every.log; then echo "-checkpoint-every 0 $$ps: exit $$status"; cat $$dir-every.log; exit 1; fi; fi; \
	done
	set -e; dir=$(SMOKE)/resume-host; rm -rf $$dir; addrs=127.0.0.1:7111,127.0.0.1:7112; \
	$(SMOKE)/mamdr-bin/mamdr-train -ps-serve $$addrs -checkpoint-dir $$dir >$$dir.log 2>&1 & pid=$$!; trap "kill $$pid" EXIT; \
	run="$(SMOKE)/mamdr-bin/mamdr-train -preset amazon-6 -samples 3000 -seed 1 -ps-workers 2 -ps-sync-push"; \
	$$run -ps-shards 2 -epochs 3 | grep -v '^trained in' > $$dir-full.txt; \
	for i in `seq 50`; do grep -c 'shard slot on' $$dir.log | grep -q 2 && break; sleep 0.1; done; \
	$$run -ps-addrs $$addrs -checkpoint-dir $$dir -epochs 2 > /dev/null; \
	$$run -ps-addrs $$addrs -checkpoint-dir $$dir -epochs 3 -resume | grep -v '^trained in' > $$dir-resumed.txt; \
	diff $$dir-full.txt $$dir-resumed.txt; \
	status=0; $$run -ps-addrs $$addrs -checkpoint-dir $$dir -epochs 3 -resume -lr 0.05 > /dev/null 2> $$dir-refused.log || status=$$?; \
	if [ $$status -ne 1 ] || ! grep -q 'LR 0.05 (checkpoint' $$dir-refused.log; then \
		echo "host resume -lr 0.05: exit $$status"; cat $$dir-refused.log; exit 1; fi; \
	status=0; $(SMOKE)/mamdr-bin/mamdr-train -ps-serve 127.0.0.1:7113 -preset amazon-6 > /dev/null 2> $$dir-preset.log || status=$$?; \
	if [ $$status -eq 0 ] || ! grep -q -- '-preset' $$dir-preset.log; then \
		echo "host with -preset: exit $$status"; cat $$dir-preset.log; exit 1; fi

# Two shard servers in one host process (scraped once, on its
# -metrics-addr) plus a faulted
# 2-worker training run, observed live by mamdr-obs. The federated
# exposition must carry every instance, the faulted run must fire at
# least one burn-rate alert (with a flight-recorder dump and an event),
# every sample line of the federated exposition must parse, and a clean
# run observed by a fresh monitor must fire none.
smoke-obs:
	$(GO) build -o $(SMOKE)/mamdr-bin/ ./cmd/mamdr-train ./cmd/mamdr-obs
	$(SMOKE)/mamdr-bin/mamdr-train \
		-ps-serve 127.0.0.1:7101,127.0.0.1:7102 -metrics-addr 127.0.0.1:9192 \
		>$(SMOKE)/obs-ps.log 2>&1 & echo $$! > $(SMOKE)/obs-ps.pid
	sleep 1
	kill -0 `cat $(SMOKE)/obs-ps.pid` || { cat $(SMOKE)/obs-ps.log; exit 1; }
	$(SMOKE)/mamdr-bin/mamdr-obs \
		-scrape trainer=127.0.0.1:9190,ps=127.0.0.1:9192 \
		-interval 500ms -run-for 30s -slo-fast -addr 127.0.0.1:9600 \
		-events $(SMOKE)/obs-events.jsonl -flight-dump $(SMOKE)/obs-flight \
		>$(SMOKE)/obs-faulty.txt 2>&1 & \
	sleep 0.5; \
	$(SMOKE)/mamdr-bin/mamdr-train -preset amazon-6 -samples 2000 -epochs 4 -seed 7 \
		-ps-workers 2 -ps-sync-push -ps-addrs 127.0.0.1:7101,127.0.0.1:7102 \
		-ps-faults "PushDelta:err@p0.3; PullRows:err@p0.2" \
		-metrics-addr 127.0.0.1:9190 -metrics-linger 30s -trace $(SMOKE)/obs.trace.jsonl \
		>$(SMOKE)/obs-train.log 2>&1 & \
	sleep 12; curl -s 127.0.0.1:9600/metrics > $(SMOKE)/obs-federated.txt; wait
	grep -E 'alerts_fired=[1-9]' $(SMOKE)/obs-faulty.txt
	grep '"event":"slo_burn"' $(SMOKE)/obs-events.jsonl >/dev/null
	grep '"slo":"ps-rpc-failures"' $(SMOKE)/obs-events.jsonl >/dev/null
	test -s $(SMOKE)/obs-flight-slo_ps-rpc-failures.trace.json
	for needle in 'instance="127.0.0.1:9192"' \
		'role="trainer"' 'role="ps"' 'role="obs"' mamdr_build_info mamdr_ps_rpc_failures_total \
		mamdr_slo_burn_alerts_total mamdr_obs_scrapes_total; do \
		grep -qF "$$needle" $(SMOKE)/obs-federated.txt || { echo "federated exposition missing $$needle"; exit 1; }; done
	! grep -vE '^$$|^#|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [^[:space:]]+$$' $(SMOKE)/obs-federated.txt
	$(SMOKE)/mamdr-bin/mamdr-obs \
		-scrape trainer=127.0.0.1:9191,ps=127.0.0.1:9192 \
		-interval 500ms -run-for 15s -slo-fast -addr 127.0.0.1:9601 \
		>$(SMOKE)/obs-clean.txt 2>&1 & \
	sleep 0.5; \
	$(SMOKE)/mamdr-bin/mamdr-train -preset amazon-6 -samples 2000 -epochs 4 -seed 7 \
		-ps-workers 2 -ps-sync-push -ps-addrs 127.0.0.1:7101,127.0.0.1:7102 \
		-metrics-addr 127.0.0.1:9191 -metrics-linger 5s >/dev/null 2>&1; \
	wait
	kill `cat $(SMOKE)/obs-ps.pid`
	grep -E 'alerts_fired=0' $(SMOKE)/obs-clean.txt
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
	$(GO) build -o $(SMOKE)/mamdr-bin/ ./cmd/mamdr-train ./cmd/mamdr-serve ./cmd/mamdr-obs ./cmd/datagen
	$(SMOKE)/mamdr-bin/datagen -preset amazon-6 -samples 3000 -seed 11 -out $(SMOKE)/quality-ds.json
	$(SMOKE)/mamdr-bin/mamdr-train -data $(SMOKE)/quality-ds.json -seed 11 -epochs 8 \
		-save $(SMOKE)/quality.ckpt >$(SMOKE)/quality-train.log 2>&1
	$(SMOKE)/mamdr-bin/mamdr-serve -checkpoint $(SMOKE)/quality.ckpt -addr 127.0.0.1:8085 -access-log off \
		>$(SMOKE)/quality-serve.log 2>&1 & echo $$! > $(SMOKE)/quality-serve.pid
	for i in `seq 90`; do curl -sf 127.0.0.1:8085/healthz >/dev/null 2>&1 && break; \
		kill -0 `cat $(SMOKE)/quality-serve.pid` || { cat $(SMOKE)/quality-serve.log; exit 1; }; sleep 1; done
	grep 'quality baseline' $(SMOKE)/quality-serve.log
	$(SMOKE)/mamdr-bin/mamdr-obs -scrape serve=127.0.0.1:8085 \
		-interval 500ms -run-for 15s -slo-fast -addr 127.0.0.1:9610 \
		>$(SMOKE)/quality-control.txt 2>&1 & \
	sleep 0.7; \
	python3 scripts/quality_traffic.py --base http://127.0.0.1:8085 \
		--data $(SMOKE)/quality-ds.json --mode control --repeat 8; \
	wait
	grep -E 'alerts_fired=0' $(SMOKE)/quality-control.txt
	$(SMOKE)/mamdr-bin/mamdr-obs -scrape serve=127.0.0.1:8085 \
		-interval 500ms -run-for 15s -slo-fast -addr 127.0.0.1:9611 \
		-events $(SMOKE)/quality-events.jsonl >$(SMOKE)/quality-drift.txt 2>&1 & \
	sleep 0.7; \
	python3 scripts/quality_traffic.py --base http://127.0.0.1:8085 \
		--data $(SMOKE)/quality-ds.json --mode drift --repeat 8; \
	sleep 3; curl -s 127.0.0.1:9611/quality > $(SMOKE)/quality-report.json; \
	wait
	kill `cat $(SMOKE)/quality-serve.pid`
	grep -E 'alerts_fired=[1-9]' $(SMOKE)/quality-drift.txt
	grep '"slo":"quality-psi-drift"' $(SMOKE)/quality-events.jsonl >/dev/null
	grep '"slo":"quality-auc-floor"' $(SMOKE)/quality-events.jsonl >/dev/null
	grep '"slo":"quality-calibration"' $(SMOKE)/quality-events.jsonl >/dev/null
	python3 -c "import json; r=json.load(open('$(SMOKE)/quality-report.json')); \
		assert not r['go'], 'drift run still reports go'; \
		assert any(s.startswith('quality-') for s in r['firing']), r['firing']; \
		w=r['worst_by_psi'][0]; \
		assert max(w['score_psi'], w['label_psi']) > 0.25, w; \
		print('ok: drift fired', r['firing'], 'worst domain', w['domain'])"
	$(SMOKE)/mamdr-bin/datagen -preset amazon-6 -samples 3000 -seed 12 -out $(SMOKE)/quality-ds.json
	status=0; timeout 120 $(SMOKE)/mamdr-bin/mamdr-serve -checkpoint $(SMOKE)/quality.ckpt -addr 127.0.0.1:8085 -access-log off \
		>$(SMOKE)/quality-rewritten.log 2>&1 || status=$$?; \
	if [ $$status -eq 0 ] || [ $$status -eq 124 ] || ! grep -q DataSHA256 $(SMOKE)/quality-rewritten.log; then \
		cat $(SMOKE)/quality-rewritten.log; echo "mamdr-serve over a rewritten data file: exit $$status"; exit 1; fi
	@echo "ok: matched traffic quiet, drifted traffic fired the quality SLOs, a rewritten data file refused"

# The trainer's -save files are envelope v5 (vector block), so every
# publish, rollback and 422 below goes through the v5 reader. First,
# -snapshot-quant foo and a -canary-fraction outside (0, 1] must each
# exit 1 naming it, without a goroutine trace. Then one serving process
# boots from a clean checkpoint with the canary gate on (the boot builds
# its snapshot as a publish of the file would). Re-publishing the clean
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
	$(GO) build -o $(SMOKE)/mamdr-bin/ ./cmd/mamdr-train ./cmd/mamdr-serve ./cmd/mamdr-obs ./cmd/datagen
	$(SMOKE)/mamdr-bin/datagen -preset taobao-10 -samples 2000 -seed 7 -out $(SMOKE)/rollout-ds.json
	$(SMOKE)/mamdr-bin/mamdr-train -preset taobao-10 -samples 2000 -seed 7 -epochs 4 \
		-save $(SMOKE)/rollout-clean.ckpt >$(SMOKE)/rollout-train.log 2>&1
	$(SMOKE)/mamdr-bin/mamdr-train -preset taobao-10 -samples 2000 -seed 7 -epochs 4 \
		-flip-labels -save $(SMOKE)/rollout-poison.ckpt >>$(SMOKE)/rollout-train.log 2>&1
	grep 'flip-labels' $(SMOKE)/rollout-train.log
	$(SMOKE)/mamdr-bin/mamdr-train -preset taobao-10 -samples 2400 -seed 7 -epochs 1 \
		-save $(SMOKE)/rollout-other.ckpt >>$(SMOKE)/rollout-train.log 2>&1
	grep 'rollout-clean.ckpt (envelope v5,' $(SMOKE)/rollout-train.log
	set -e; for bad in '-snapshot-quant foo:SnapshotQuant "foo"' '-canary-fraction 0:-canary-fraction 0' \
		'-canary-fraction 1.5:-canary-fraction 1.5'; do \
		status=0; timeout 60 $(SMOKE)/mamdr-bin/mamdr-serve -checkpoint $(SMOKE)/rollout-clean.ckpt -addr 127.0.0.1:8086 \
			$${bad%%:*} > /dev/null 2> $(SMOKE)/rollout-refused.log || status=$$?; \
		if [ $$status -ne 1 ] || grep -q goroutine $(SMOKE)/rollout-refused.log || ! grep -q -- "$${bad#*:}" $(SMOKE)/rollout-refused.log; then \
			echo "mamdr-serve $${bad%%:*}: exit $$status"; cat $(SMOKE)/rollout-refused.log; exit 1; fi; \
	done
	rm -f $(SMOKE)/rollout-access.jsonl*
	$(SMOKE)/mamdr-bin/mamdr-serve -checkpoint $(SMOKE)/rollout-clean.ckpt -addr 127.0.0.1:8086 -access-log $(SMOKE)/rollout-access.jsonl \
		-canary-fraction 0.5 -rollout-min-labeled 48 -rollout-min-scores 64 \
		-rollout-max-wait 2m \
		>$(SMOKE)/rollout-serve.log 2>&1 & echo $$! > $(SMOKE)/rollout-serve.pid
	for i in `seq 90`; do curl -sf 127.0.0.1:8086/healthz >/dev/null 2>&1 && break; \
		kill -0 `cat $(SMOKE)/rollout-serve.pid` || { cat $(SMOKE)/rollout-serve.log; exit 1; }; sleep 1; done
	grep 'loaded checkpoint' $(SMOKE)/rollout-serve.log
	curl -sf 127.0.0.1:8086/readyz | grep 'ready v1'
	curl -sf -XPOST -d '{"path":"$(SMOKE)/rollout-clean.ckpt"}' 127.0.0.1:8086/admin/publish
	curl -sf 127.0.0.1:8086/readyz | grep 'canary v2 at 50%'
	python3 scripts/rollout_traffic.py --base http://127.0.0.1:8086 \
		--data $(SMOKE)/rollout-ds.json --fraction 0.5 --repeat 2
	grep 'rollout_decision=promote version=2 reason=clean' $(SMOKE)/rollout-serve.log
	curl -sf 127.0.0.1:8086/readyz | grep 'ready v2'
	$(SMOKE)/mamdr-bin/mamdr-obs -scrape serve=127.0.0.1:8086 \
		-interval 500ms -run-for 25s -slo-fast -addr 127.0.0.1:9620 \
		-events $(SMOKE)/rollout-events.jsonl >$(SMOKE)/rollout-obs.txt 2>&1 & \
	sleep 0.7; \
	curl -sf -XPOST -d '{"path":"$(SMOKE)/rollout-poison.ckpt"}' 127.0.0.1:8086/admin/publish; \
	curl -sf 127.0.0.1:8086/readyz > $(SMOKE)/rollout-canary-readyz.txt; \
	python3 scripts/rollout_traffic.py --base http://127.0.0.1:8086 \
		--data $(SMOKE)/rollout-ds.json --fraction 0.5 --repeat 2; \
	wait
	grep 'canary v3 at 50%' $(SMOKE)/rollout-canary-readyz.txt
	grep -E 'rollout_decision=rollback version=3 reason=(psi|auc|logloss)' $(SMOKE)/rollout-serve.log
	curl -sf 127.0.0.1:8086/readyz | grep 'ready v2 crc='
	test "$$(curl -s -o /dev/null -w '%{http_code}' -XPOST \
		-d '{"path":"$(SMOKE)/rollout-other.ckpt"}' 127.0.0.1:8086/admin/publish)" = 422
	curl -sf 127.0.0.1:8086/readyz | grep 'ready v2 crc='
	curl -s 127.0.0.1:8086/metrics > $(SMOKE)/rollout-metrics.txt
	grep -E 'mamdr_rollout_decisions_total\{decision="rollback"' $(SMOKE)/rollout-metrics.txt
	grep -E 'alerts_fired=[1-9]' $(SMOKE)/rollout-obs.txt
	grep '"slo":"rollout-rollbacks"' $(SMOKE)/rollout-events.jsonl >/dev/null
	grep 'snapshot v2 .* is now the incumbent' $(SMOKE)/rollout-serve.log
	test "$$(grep -c 'is now the incumbent' $(SMOKE)/rollout-serve.log)" = 1
	kill `cat $(SMOKE)/rollout-serve.pid`
	while kill -0 `cat $(SMOKE)/rollout-serve.pid` 2>/dev/null; do sleep 0.2; done
	python3 -c "import json, re; \
		recs = [json.loads(l) for l in open('$(SMOKE)/rollout-access.jsonl')]; \
		assert all(r['msg'] == 'request' and r['request_id'] for r in recs), 'access-log line without request_id'; \
		n = sum(int(v) for v in re.findall(r'^mamdr_serve_requests_total\{[^}]*\} (\d+)$$', open('$(SMOKE)/rollout-metrics.txt').read(), re.M)); \
		assert len(recs) == n + 1, ('access-log lines', len(recs), 'requests counted', n); \
		print('ok: access log holds one line per request:', len(recs))"
	$(SMOKE)/mamdr-bin/mamdr-serve -checkpoint $(SMOKE)/rollout-clean.ckpt -addr 127.0.0.1:8087 -access-log off \
		-rollout=false -serve-faults 'Predict:err@1' \
		>$(SMOKE)/rollout-chaos.log 2>&1 & echo $$! > $(SMOKE)/rollout-chaos.pid
	for i in `seq 90`; do curl -sf 127.0.0.1:8087/healthz >/dev/null 2>&1 && break; \
		kill -0 `cat $(SMOKE)/rollout-chaos.pid` || { cat $(SMOKE)/rollout-chaos.log; exit 1; }; sleep 1; done
	test "$$(curl -s -o /dev/null -w '%{http_code}' -XPOST \
		-d '{"domain":0,"users":[0],"items":[0]}' 127.0.0.1:8087/predict)" = 500
	curl -sf -XPOST -d '{"domain":0,"users":[0],"items":[0]}' 127.0.0.1:8087/predict >/dev/null
	kill `cat $(SMOKE)/rollout-chaos.pid`
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
	$(GO) build -o $(SMOKE)/mamdr-bin/ ./cmd/mamdr-train ./cmd/mamdr-serve ./cmd/datagen
	$(SMOKE)/mamdr-bin/datagen -preset amazon-6 -samples 2000 -seed 7 -out $(SMOKE)/batch-ds.json
	$(SMOKE)/mamdr-bin/mamdr-train -preset amazon-6 -samples 2000 -seed 7 -epochs 4 \
		-save $(SMOKE)/batch.ckpt >$(SMOKE)/batch-train.log 2>&1
	$(SMOKE)/mamdr-bin/mamdr-serve -checkpoint $(SMOKE)/batch.ckpt -addr 127.0.0.1:8088 -access-log off \
		-rollout=false -batch-max=0 -max-queue 256 \
		>$(SMOKE)/batch-serve-off.log 2>&1 & echo $$! > $(SMOKE)/batch-serve.pid
	for i in `seq 90`; do curl -sf 127.0.0.1:8088/healthz >/dev/null 2>&1 && break; \
		kill -0 `cat $(SMOKE)/batch-serve.pid` || { cat $(SMOKE)/batch-serve-off.log; exit 1; }; sleep 1; done
	python3 scripts/rollout_traffic.py --base http://127.0.0.1:8088 \
		--data $(SMOKE)/batch-ds.json --repeat 1 --workers 16 \
		--dump-scores $(SMOKE)/batch-scores-off.jsonl
	curl -s 127.0.0.1:8088/metrics | grep -E 'mamdr_serve_batch_flushes_total\{reason="idle"\} [1-9]'
	kill `cat $(SMOKE)/batch-serve.pid`
	$(SMOKE)/mamdr-bin/mamdr-serve -checkpoint $(SMOKE)/batch.ckpt -addr 127.0.0.1:8089 -access-log off \
		-rollout=false -batch-max=64 -snapshot-quant=off \
		-replicas 1 -serve-faults 'Predict:delay=20ms@*' \
		-max-queue 256 \
		>$(SMOKE)/batch-serve-on.log 2>&1 & echo $$! > $(SMOKE)/batch-serve.pid
	for i in `seq 90`; do curl -sf 127.0.0.1:8089/healthz >/dev/null 2>&1 && break; \
		kill -0 `cat $(SMOKE)/batch-serve.pid` || { cat $(SMOKE)/batch-serve-on.log; exit 1; }; sleep 1; done
	grep 'request coalescing on' $(SMOKE)/batch-serve-on.log
	python3 scripts/rollout_traffic.py --base http://127.0.0.1:8089 \
		--data $(SMOKE)/batch-ds.json --repeat 1 --workers 16 \
		--dump-scores $(SMOKE)/batch-scores-on.jsonl
	curl -s 127.0.0.1:8089/metrics | grep -E 'mamdr_serve_batch_flushes_total\{reason="slot"\} [1-9]'
	kill `cat $(SMOKE)/batch-serve.pid`
	test -s $(SMOKE)/batch-scores-off.jsonl
	diff $(SMOKE)/batch-scores-off.jsonl $(SMOKE)/batch-scores-on.jsonl
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
	$(GO) build -o $(SMOKE)/mamdr-bin/ ./cmd/experiments
	rm -f $(SMOKE)/smoke-exp.md $(SMOKE)/smoke-exp-bad.md
	$(SMOKE)/mamdr-bin/experiments -run all -scale tiny -out $(SMOKE)/smoke-exp.md
	for h in 'Table I' 'Table II' 'Table III' 'Table IV' 'Table V' 'Table VI' 'Table VII' \
		'Table VIII' 'Table IX' 'Table X' 'Figure 8' 'Figure 9' 'Ablation DN-Order' \
		'Ablation DR-Order' 'Ablation PS-Cache' 'Conflict Scaling' 'Conflict Diagnostic' \
		'Extension LODO' 'Extension Quant'; do \
		grep -qF "### $$h — " $(SMOKE)/smoke-exp.md || { echo "no $$h table in $(SMOKE)/smoke-exp.md"; exit 1; }; done
	! $(SMOKE)/mamdr-bin/experiments -run table1,nope -scale tiny -out $(SMOKE)/smoke-exp-bad.md 2>$(SMOKE)/smoke-exp-bad.log
	! grep -q ' done in ' $(SMOKE)/smoke-exp-bad.log
	test ! -e $(SMOKE)/smoke-exp-bad.md

# What CI's test job runs (.github/workflows/ci.yml): every smoke runs
# here and only here. The first line fails on any file gofmt would change.
ci:
	test -z "$$(gofmt -l .)"
	$(MAKE) loc-check
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
