# Build, test and measure. `make bench` runs pxbench, the repo's one
# performance instrument: it builds pxqld and pxql from this checkout,
# drives every workload of BENCHMARK.json end to end and writes its
# result files and traces under bench/out/ (see "Measuring performance"
# in README.md). Compare two result files or journals with
# `go run -C bench ./cmd/benchdiff out/a.jsonl out/b.jsonl`.

GO ?= go

.PHONY: all build test race vet bench clean-bench

all: build test vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/shard ./internal/core

vet:
	$(GO) run ./cmd/pxqlvet ./...

bench:
	$(GO) run -C bench ./cmd/pxbench

clean-bench:
	rm -rf bench/out
