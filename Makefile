GO ?= go

.PHONY: all build test race vet fmt bench benchall loadtest serve loadtest-remote ci clean

all: build

build:
	$(GO) build ./...

# bench/ is a module of its own, so ./... stops at its door.
test:
	$(GO) test ./...
	cd bench && $(GO) test ./...

# race is the concurrency gate: vet + build + full test suite under the race
# detector (the obs instruments are the main concurrent surface).
race:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	cd bench && $(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# bench regenerates the baseline manifests that ci.sh diffs fresh runs
# against (generous tolerance; see results/README.md): the engine hot path,
# the instrumentation-overhead figures (simulator observation cost plus the
# telemetry store's sampling hot path) and the serving tier's localhost
# round-trip/pipelined throughput. For the full raw benchmark suite use
# `make benchall`.
bench:
	BENCH_MANIFEST=results/BENCH_engine.json \
	    $(GO) test -run TestWriteBenchManifest -count=1 .
	$(GO) run ./cmd/paper -quick -bench-json results/BENCH_obs.json
	BENCH_MANIFEST=$(CURDIR)/results/BENCH_server.json \
	    $(GO) test -run TestWriteServerBenchManifest -count=1 ./internal/server

benchall:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# loadtest drives the concurrent sharded engine with the open-loop zipfian
# harness (see docs/ENGINE.md) and archives the run manifest for diffing.
loadtest:
	$(GO) run ./cmd/cachebench -policy DCL -shards 16 \
	    -manifest results/MANIFEST_cachebench.json

# serve runs the networked cache tier on its default port with live
# telemetry (docs/SERVING_TIER.md); SIGINT drains gracefully.
serve:
	$(GO) run ./cmd/cacheserved -obs.listen localhost:8070

# loadtest-remote drives a cacheserved node at $(REMOTE) (default the serve
# target's address) over real sockets and archives the manifest.
REMOTE ?= 127.0.0.1:7070
loadtest-remote:
	$(GO) run ./cmd/cachebench -remote $(REMOTE) \
	    -manifest results/MANIFEST_cachebench_remote.json

ci:
	./scripts/ci.sh

clean:
	$(GO) clean ./...
