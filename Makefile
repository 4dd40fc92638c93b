GO ?= go

.PHONY: check vet build test race bench bench-smoke bench-codec

## check: the tier-1 gate — vet, build, and race-enabled tests.
check: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) run ./cmd/frangibench -quick

## bench-smoke: fails if the observability stack goes dark — the
## obs-smoke experiment errors out when the metrics snapshot is empty
## or the Sync trace does not cover all four layers — or if the
## read-scaling experiment's in-experiment assertions (balanced reads
## >= 1.5x primary-only; ReadDirPlus <= 50% of the stat scan's read
## RPCs) fail.
## The codec-budget test additionally asserts the wire codec beats the
## gob baseline by >= 5x allocs/op and >= 2x ns/op on 1 MB WriteV/ReadV
## (encode must be 0 allocs/op), and codec-mux asserts >= 2 concurrent
## in-flight RPC streams share one TCP connection.
## forensics-smoke kills a lock holder mid-write and asserts the merged
## flight-recorder timeline shows expiry -> recovery -> replay in causal
## order; obs-overhead asserts the recorder and the per-principal
## account table each add <= 1% serial Sync latency. lock-scaling
## asserts contended acquire p99 improves >= 2x
## and throughput >= 1.5x from 1 to 4 lock-server shards, with the
## stale-map nack/refetch path and a mid-run shard handoff exercised;
## its record is persisted to the trajectory as
## BENCH_lock_<utc-timestamp>.json.
## noisy-neighbor-obs pits a principal-tagged streaming writer against
## an interactive reader and asserts >= 95% of bytes and lock-wait are
## attributed, the writer ranks first by bytes, and the watcher's
## obs.noisyneighbor verdict lands in the merged forensics timeline.
## scale-sweep runs the big-N experiment (8/16/32 machines in -quick)
## and asserts read AND write throughput stay >= 0.7x linear from 8 to
## 32 servers, and that busy clerks sent ZERO standalone renew RPCs
## (lease renewal rides entirely on lock batches); on failure it dumps
## FORENSICS_scale-sweep.json. Its per-N curves are persisted to the
## trajectory as BENCH_scale_<utc-timestamp>.json.
## The final step persists this build's point on the perf
## trajectory as BENCH_<utc-timestamp>.json (schema frangipani-bench/v1).
bench-smoke:
	$(GO) run ./cmd/frangibench -quick -exp obs-smoke
	$(GO) run ./cmd/frangibench -quick -exp read-scaling
	CODEC_BUDGET=1 $(GO) test -run TestCodecBudget -count=1 ./internal/rpc/
	$(GO) run ./cmd/frangibench -quick -exp codec-mux
	$(GO) run ./cmd/frangibench -quick -exp forensics-smoke
	$(GO) run ./cmd/frangibench -quick -exp lock-scaling -out BENCH_lock_$$(date -u +%Y%m%dT%H%M%SZ).json
	$(GO) run ./cmd/frangibench -quick -exp obs-overhead
	$(GO) run ./cmd/frangibench -quick -exp noisy-neighbor-obs
	$(GO) run ./cmd/frangibench -quick -exp scale-sweep -out BENCH_scale_$$(date -u +%Y%m%dT%H%M%SZ).json
	$(GO) run ./cmd/frangibench -out BENCH_$$(date -u +%Y%m%dT%H%M%SZ).json

## bench-codec: raw codec-vs-gob microbenchmarks with allocation counts.
bench-codec:
	$(GO) test -bench=Codec -benchmem -run '^$$' ./internal/rpc/...
	$(GO) test -bench=Gob -benchmem -run '^$$' ./internal/rpc/...
