# Development entry points for the CSS reproduction.

GO ?= go

.PHONY: all check build vet test race cover bench-smoke bench-harness chaos chaos-smoke overload-smoke shard-smoke repl-smoke trace-smoke lint-traceid lint-hotpath lint-decision examples fuzz loc clean

all: check

# The default gate: compile, vet+gofmt+trace-ID+hot-path+decision lints, unit
# tests (among them the allocation budgets of the publish path and the
# XML detail codec, TestPublishAllocBudget and
# TestDetailCodecAllocBudget), the race detector over the whole tree, a
# short fault-injected smoke, an overload-storm smoke, the
# distributed-tracing smoke (one flow across three processes must yield
# one parent-linked span tree; also runs the mixed-codec fan-out check),
# the 3-shard cluster smoke (cross-shard publish/inquire plus an opt-out
# that binds on every shard), the replication failover smoke (1 primary + 2 replica
# processes, kill the primary, the promoted replica serves), a
# 1-iteration smoke of every root and memtable benchmark (catches rigs broken by
# refactors), and the end-to-end benchmark harness (its own module: vet,
# unit tests, quick run) — the one place a commit's cost is measured.
# The code-size report (`loc`) prints last.
check: build vet lint-traceid lint-hotpath lint-decision test race chaos-smoke overload-smoke trace-smoke shard-smoke repl-smoke bench-smoke bench-harness loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || (gofmt -l . && exit 1)

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One iteration of every root benchmark and of the memtable's layer
# benchmarks, as a compile-and-run smoke.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/store

# The end-to-end benchmark harness is a nested module (benchmark/,
# replace repro => ../) that imports internal/... and spawns the
# daemons, so the root `go vet ./...` and `go test ./...` skip it. Vet
# it, run its unit tests, then drive all four topologies once with
# `-quick` (~8 s): an internal API or flag change that breaks the
# harness fails here instead of in the pipeline's benchmark run.
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	bash benchmark/run.sh -quick

# Fault-injected integration suite under the race detector: 20%
# connection failures on the consumer/producer hop, 10% on the
# controller→gateway hop, a scripted 5-second controller blackout, a
# 3-second asymmetric shard partition (kill-a-shard),
# the overload storm stretched to 5 fixed seeds with 12 hot producers —
# plus the self-healing failover storms: kill-primary auto-election
# (exactly one winner, exactly-once on it, deposed shipper fenced,
# byte-identical rejoin) and partition-during-campaign (zero promotions
# until the partition heals). Seeds are fixed and logged (-v), so a
# failure is replayable.
chaos:
	CHAOS_BLACKOUT=5s CHAOS_PARTITION=3s CHAOS_STORM_SEEDS=1,2,3,4,5 CHAOS_STORM_N=12 \
		$(GO) test -race -count 1 -v -run 'TestChaos' ./internal/transport/

# The same harness with its default sub-second blackout — fast enough
# for the `make check` gate.
chaos-smoke:
	$(GO) test -count 1 -run 'TestChaos' ./internal/transport/

# Overload-protection smoke: the storm chaos test (admission sheds,
# bounded queues, drain-under-wedge) and the SIGTERM kill-under-load
# scenario against the built binaries, both under the race detector.
overload-smoke:
	$(GO) test -race -count 1 -run 'TestChaosOverloadStorm' ./internal/transport/
	$(GO) test -race -count 1 -run 'TestKillUnderLoad' ./integration/

# Multi-shard cluster smoke: boots a 3-shard controller cluster in one
# process, publishes across shards through the shard-routing client,
# scatter-gathers an inquiry, and records an opt-out through the client
# that keeps the person's events from a class subscriber and from
# person and class inquiries — the sharded bring-up path end to end.
shard-smoke:
	SHARD_SMOKE=1 $(GO) test -count 1 -run 'TestShardSmoke' ./integration/

# Replication failover smoke, run twice — in quorum mode and in the
# default async mode: one primary ships WALs to two replica processes
# running election managers, each a standby that refuses /ws/inquire
# with 421. In async mode one replica is first SIGKILLed mid-stream and
# restarted on its data dir, and every WAL of both replicas must be
# byte-identical to the primary's. Then the primary is killed without
# warning and NO promote call is made — the replicas must auto-elect
# exactly one winner, which serves every event and takes writes while
# feeding the survivor; the deposed primary then restarts as a
# replica, rejoins the winner's fan-out, and css-audit -compare must
# show the chains converged.
repl-smoke:
	REPL_SMOKE=1 $(GO) test -count 1 -run 'TestReplSmoke' ./integration/

# Distributed-tracing smoke: a publish→notify→detail flow across
# controller, gateway and consumer processes must produce ONE trace
# whose spans form a parent-linked tree (no orphans) covering every
# pipeline stage, reconstructable by css-trace from the merged export.
trace-smoke:
	TRACE_SMOKE=1 $(GO) test -count 1 -run 'TestTraceSmoke' ./integration/

# Flow traces must be minted only at the two sanctioned flow roots
# (publish, detail-request — both in internal/core/flows.go) or inside
# the telemetry package itself. A NewTraceID call anywhere else splits
# flows into disconnected traces; reject it.
lint-traceid:
	@bad=$$(grep -rn 'telemetry\.NewTraceID(' --include='*.go' \
		internal cmd examples 2>/dev/null \
		| grep -v '_test\.go' \
		| grep -v '^internal/core/flows\.go:' \
		| grep -v '^internal/telemetry/'); \
	if [ -n "$$bad" ]; then \
		echo "trace IDs may be minted only at sanctioned flow roots:"; \
		echo "$$bad"; exit 1; \
	fi

# The publish and detail hot paths must stay free of reflection-driven
# formatting and the XML encoder: no fmt.Sprintf and no encoding/xml
# import in the files a publish or a detail request flows through (the
# round tripper every outgoing call is sent with, the sharded client
# a fleet's calls are routed by, the shard map whose Owner and
# OwnerBytes run on every publish, id draw and fleet detail request,
# the shard admission every publish opens with, and the replication
# link a fleet ships every publish's WAL records over among them), no
# reflect in the XML helper they share, no reflect and no fmt at all in
# the binary frame layer under every hop and in the JSON helper audit
# and index records are written and read with, and no reflect and no
# unsafe in the store every write lands in (its arena is byte slices of
# anonymous mappings, and it reads values back from the WAL with ReadAt,
# never through a file mapping: mapped file pages would count in the
# daemons' resident memory). Inside
# internal/event, encoding/xml (the decoders' fallback) is xml.go's
# alone. Test files are exempt.
XMLX_FILES = $(filter-out %_test.go,$(wildcard internal/xmlx/*.go))
FRAME_FILES = $(filter-out %_test.go,$(wildcard internal/frame/*.go))
JSONX_FILES = $(filter-out %_test.go,$(wildcard internal/jsonx/*.go))
STORE_FILES = $(filter-out %_test.go,$(wildcard internal/store/*.go))
HOTPATH_FILES = internal/event/codec.go internal/core/flows.go internal/audit/audit.go \
	internal/index/index.go internal/idmap/idmap.go internal/transport/roundtrip.go internal/transport/serve.go \
	internal/transport/answer.go internal/transport/caller.go internal/transport/service.go internal/telemetry/http.go \
	internal/enforcer/enforcer.go internal/gateway/gateway.go internal/transport/shardclient.go \
	internal/cluster/cluster.go internal/core/cluster.go \
	internal/replication/primary.go internal/replication/follower.go internal/replication/codec.go $(XMLX_FILES) $(FRAME_FILES) $(JSONX_FILES) $(STORE_FILES) \
	$(filter-out %_test.go,$(wildcard internal/bus/*.go))
lint-hotpath:
	@bad=$$(grep -n 'fmt\.Sprintf\|"encoding/xml"' $(HOTPATH_FILES) /dev/null | grep -v '_test\.go'; \
		grep -n '"reflect"' $(XMLX_FILES) /dev/null; \
		grep -n '"reflect"\|"fmt"' $(FRAME_FILES) $(JSONX_FILES) /dev/null; \
		grep -n '"reflect"\|"unsafe"' $(STORE_FILES) /dev/null; \
		grep -n '"encoding/xml"' $(filter-out %_test.go internal/event/xml.go,$(wildcard internal/event/*.go)) /dev/null); \
	if [ -n "$$bad" ]; then \
		echo "hot-path files must not use fmt.Sprintf, encoding/xml, (xmlx, frame, jsonx, store) reflect, (frame, jsonx) fmt or (store) unsafe:"; \
		echo "$$bad"; exit 1; \
	fi

# One decision path: the enforcer and the controller decide by
# Definition 3 over internal/policy. XACML is the compilation target, the
# Fig. 8 export and the test oracle (TestDefinition3EqualsCompiledXACML
# proves the two agree), so neither package may import it and put a
# second evaluator back on the request path. Test files are exempt.
DECISION_FILES = $(filter-out %_test.go,$(wildcard internal/enforcer/*.go internal/core/*.go))
lint-decision:
	@bad=$$(grep -n '"repro/internal/xacml"' $(DECISION_FILES) /dev/null); \
	if [ -n "$$bad" ]; then \
		echo "internal/enforcer and internal/core must not import internal/xacml:"; \
		echo "$$bad"; exit 1; \
	fi

examples:
	@for e in quickstart homecare statistics audittrail distributed phr monitoring accountability; do \
		echo "=== $$e ==="; $(GO) run ./examples/$$e || exit 1; \
	done

# Short fuzzing pass over every fuzz target.
fuzz:
	$(GO) test -fuzz=FuzzDecodeDetail -fuzztime=15s ./internal/event/
	$(GO) test -fuzz=FuzzDecodeNotification -fuzztime=15s ./internal/event/
	$(GO) test -fuzz=FuzzBinaryNotification -fuzztime=15s ./internal/event/
	$(GO) test -fuzz=FuzzBinaryDetail -fuzztime=15s ./internal/event/
	$(GO) test -fuzz=FuzzBinaryDetailRequest -fuzztime=15s ./internal/event/
	$(GO) test -fuzz=FuzzXMLDetailDifferential -fuzztime=15s ./internal/event/
	$(GO) test -fuzz=FuzzXMLNotificationDifferential -fuzztime=15s ./internal/event/
	$(GO) test -fuzz=FuzzXMLDetailRequestDifferential -fuzztime=15s ./internal/event/
	$(GO) test -run '^$$' -fuzz=FuzzXMLEnvelopeDifferential -fuzztime=15s ./internal/transport/
	$(GO) test -run '^$$' -fuzz=FuzzIndexRecordDifferential -fuzztime=15s ./internal/index/
	$(GO) test -run '^$$' -fuzz=FuzzControlFrame -fuzztime=15s ./internal/transport/
	$(GO) test -run '^$$' -fuzz=FuzzResponseHead -fuzztime=15s ./internal/transport/
	$(GO) test -run '^$$' -fuzz=FuzzRequestHead -fuzztime=15s ./internal/transport/
	$(GO) test -run '^$$' -fuzz=FuzzReplicationFrame -fuzztime=15s ./internal/replication/
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=15s ./internal/store/
	$(GO) test -run '^$$' -fuzz=FuzzMemtableModel -fuzztime=15s ./internal/store/
	$(GO) test -run '^$$' -fuzz=FuzzDiskStoreModel -fuzztime=15s ./internal/store/
	$(GO) test -run '^$$' -fuzz=FuzzMemoryStoreModel -fuzztime=15s ./internal/store/
	$(GO) test -run '^$$' -fuzz=FuzzAuditHeadDifferential -fuzztime=15s ./internal/audit/
	$(GO) test -fuzz=FuzzShardMapFrame -fuzztime=15s ./internal/cluster/
	$(GO) test -fuzz=FuzzDecode -fuzztime=15s ./internal/xacml/

# Code size, the measure issues set targets in: non-test, non-comment,
# non-blank Go lines per package and in total, without the nested
# benchmark/ module.
LOC_FILES = find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*'
LOC_COUNT = xargs cat | grep -v '^\s*//' | grep -cv '^\s*$$'
loc:
	@for d in $$($(LOC_FILES) -exec dirname {} \; | sort -u); do \
		printf '%6d %s\n' $$($(LOC_FILES) -path "$$d/*" ! -path "$$d/*/*" | $(LOC_COUNT)) $$d; \
	done
	@printf '%6d total\n' $$($(LOC_FILES) | $(LOC_COUNT))

# git clean keeps the committed seed corpus and removes only the
# crasher inputs the fuzzer writes next to it.
clean:
	$(GO) clean ./...
	git clean -qfd internal/*/testdata/ 2>/dev/null || rm -rf internal/*/testdata/fuzz
