# Developer entry points. The repo is plain `go build ./...` /
# `go test ./...`; these targets wrap the recurring workflows.
#
# Static analysis:
#   make lint           runs the project analyzers (cmd/hetlint:
#                       poolcheck, errwrapcheck, ctxloopcheck) over the
#                       whole module, then the codegen-regression gate
#                       (cmd/hetaudit: new bounds checks or heap
#                       escapes in the hot packages vs the committed
#                       baselines in internal/lint/testdata/).
#   make lint-baseline  re-blesses the hetaudit baselines after an
#                       intentional codegen change; commit the diff.

BENCH_OUT ?= BENCH_2.json
BENCH_COUNT ?= 5
BENCH_TIME ?= 1s
# The single-image decode hot path tracked across PRs.
BENCH_PATTERN ?= BenchmarkDecodeScalar$$|BenchmarkDecodeScalarSub|BenchmarkDecodeScalarSize|BenchmarkParallelPhaseScalar|BenchmarkEntropySequential$$

# The batch wall-clock trajectory: the mixed-size corpus through the
# pipelined band scheduler.
BENCH_BATCH_OUT ?= BENCH_3.json
BENCH_BATCH_PATTERN ?= BenchmarkBatchMixedSizes

# The scaled decode trajectory: decode-to-scale (1/2, 1/4, DC-only 1/8)
# per scale, plus the scaled mixed-size batch workload.
BENCH_SCALE_OUT ?= BENCH_4.json

# The HTTP service trajectory: cmd/loadgen against an in-process
# cmd/imaged stack — steady-state p50/p99 wall latency, the overload
# scenario's shed rate and degraded completions, and the hot-repeat
# scenario's cached p50/hit-rate against the steady baseline.
BENCH_HTTP_OUT ?= BENCH_6.json
BENCH_HTTP_TIME ?= 3s

# The transcode trajectory: the coefficient-domain DC-only 1/8
# thumbnail against the naive full-decode + box-downsample + encode
# route (the headline ratio), plus the pixel-path transcode per output
# flavor (half-scale, full-size requantize, progressive output).
BENCH_XCODE_OUT ?= BENCH_7.json

.PHONY: all build test race bench bench-batch bench-scale bench-http bench-http-smoke bench-transcode bench-smoke fuzz-smoke conformance conformance-faults conformance-transcode cover fmt vet lint lint-baseline

all: build

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# bench records the decode perf trajectory: raw `go test -bench` output
# goes to bench.txt (benchstat-compatible), the parsed summary to
# $(BENCH_OUT). Bump BENCH_OUT per PR (BENCH_2.json, BENCH_3.json, ...)
# so the history stays diffable.
bench:
	go test ./internal/jpegcodec/ -run='^$$' -bench='$(BENCH_PATTERN)' \
		-benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) | tee bench.txt
	go run ./cmd/benchjson < bench.txt > $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"

# bench-batch records the band scheduler's wall-clock throughput on the
# mixed-size corpus, parsed into $(BENCH_BATCH_OUT). BENCH_3.json holds
# the historical comparison against the removed per-image pool.
bench-batch:
	go test . -run='^$$' -bench='$(BENCH_BATCH_PATTERN)' \
		-benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) | tee bench_batch.txt
	go run ./cmd/benchjson < bench_batch.txt > $(BENCH_BATCH_OUT)
	@echo "wrote $(BENCH_BATCH_OUT)"

# bench-scale records the decode-to-scale trajectory: the single-image
# scaled decode per scale (div1 is the full-size baseline the speedup
# table in README.md is computed from) and the scaled mixed-size batch
# bench, parsed into $(BENCH_SCALE_OUT).
bench-scale:
	go test ./internal/jpegcodec/ -run='^$$' -bench='BenchmarkDecodeScaled' \
		-benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) | tee bench_scale.txt
	go test . -run='^$$' -bench='BenchmarkBatchScaledMixedSizes' \
		-benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) | tee -a bench_scale.txt
	go run ./cmd/benchjson < bench_scale.txt > $(BENCH_SCALE_OUT)
	@echo "wrote $(BENCH_SCALE_OUT)"

# bench-http records the decode service's robustness trajectory: the
# loadgen closed-loop scenarios (steady, overload, hot-repeat) against
# an in-process imaged server, summarized into $(BENCH_HTTP_OUT).
bench-http:
	go run ./cmd/loadgen -duration $(BENCH_HTTP_TIME) -out $(BENCH_HTTP_OUT)
	@echo "wrote $(BENCH_HTTP_OUT)"

# bench-http-smoke is the CI variant: a short run that exercises the
# whole imaged + loadgen stack without recording its numbers.
bench-http-smoke:
	go run ./cmd/loadgen -duration 500ms

# bench-transcode records the transcode trajectory into
# $(BENCH_XCODE_OUT): ThumbFastPath vs ThumbNaive is the committed
# fast-path ratio (must stay ≥3×).
bench-transcode:
	go test ./internal/transcode/ -run='^$$' -bench='BenchmarkTranscode' \
		-benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) | tee bench_transcode.txt
	go run ./cmd/benchjson < bench_transcode.txt > $(BENCH_XCODE_OUT)
	@echo "wrote $(BENCH_XCODE_OUT)"

# bench-smoke compiles and runs every benchmark in the repo exactly once
# (CI uses it so benchmarks can never silently rot).
bench-smoke:
	go test ./... -run='^$$' -bench=. -benchtime=1x

# fuzz-smoke runs the native fuzzers briefly (CI budget).
fuzz-smoke:
	go test ./internal/bitstream/ -fuzz=FuzzReaderMatchesReference -fuzztime=10s
	go test ./internal/bitstream/ -fuzz=FuzzWriterReaderRoundTrip -fuzztime=10s
	go test ./internal/huffman/ -fuzz=FuzzDecodeArbitraryBits -fuzztime=10s
	go test ./internal/huffman/ -fuzz=FuzzEncodeDecodeRoundTrip -fuzztime=10s
	go test ./internal/jpegcodec/ -run='^$$' -fuzz=FuzzProgressiveDecode -fuzztime=10s
	go test ./internal/jpegcodec/ -run='^$$' -fuzz=FuzzScaledDecode -fuzztime=10s
	go test ./internal/jpegcodec/ -run='^$$' -fuzz=FuzzSalvageDecode -fuzztime=10s
	go test ./internal/rescache/ -fuzz=FuzzCacheKeyIsolation -fuzztime=10s
	go test ./internal/transcode/ -run='^$$' -fuzz=FuzzTranscode -fuzztime=10s

# conformance runs the differential harness: the generated baseline +
# progressive corpus through all modes and the batch scheduler at worker
# counts 1-8 — at full size and at every decode scale (byte-identity
# against the scalar scaled reference) — and plane-level comparison
# against the stdlib decoder.
conformance:
	go test ./internal/conformance/ -v -run 'TestConformance'

# conformance-faults runs the fault-injection gate: systematically
# corrupted streams (truncation at every byte, entropy bit flips,
# dropped/duplicated/renumbered restart markers, corrupted marker
# lengths) must never panic, strict mode must keep failing exactly as
# before, and salvage mode must hold its committed recovery floors with
# byte-identical salvaged pixels across every mode and worker count.
conformance-faults:
	go test ./internal/conformance/ -v -run 'TestFault'

# conformance-transcode runs the round-trip gate on the transcode
# pipeline: encoder-alone and full-transcode distortion floors per
# quality (decoded with Go's image/jpeg on the encoder side), bit-exact
# equality of the DC-only 1/8 fast path with the pixel round trip, and
# byte identity of pipelined transcodes with the one-shot path across
# workers 1-8 × execution modes.
conformance-transcode:
	go test ./internal/conformance/ -v -run 'TestConformanceTranscode|TestConformanceEncoderRoundTrip'

# COVER_FLOOR is the combined statement-coverage floor for the decoder
# core packages (jpegcodec + jfif), measured across their own tests plus
# the conformance harness. SVC_COVER_FLOOR is the same floor for the
# service-tier packages (rescache + metrics), measured across their own
# tests plus the imaged suite that drives them over HTTP.
# XCODE_COVER_FLOOR covers the transcode pipeline from its own suite.
# Raise the floors as coverage grows; never lower them to make a PR
# pass.
COVER_FLOOR ?= 85.0
SVC_COVER_FLOOR ?= 85.0
XCODE_COVER_FLOOR ?= 85.0

cover:
	go test -coverpkg=hetjpeg/internal/jpegcodec,hetjpeg/internal/jfif \
		-coverprofile=cover.out \
		./internal/jpegcodec ./internal/jfif ./internal/conformance
	@total=$$(go tool cover -func=cover.out | awk '/^total:/ {gsub("%","",$$3); print $$3}'); \
	echo "jpegcodec+jfif coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% below floor $(COVER_FLOOR)%"; exit 1; }
	go test -coverpkg=hetjpeg/internal/rescache,hetjpeg/internal/metrics \
		-coverprofile=cover_svc.out \
		./internal/rescache ./internal/metrics ./internal/imaged
	@total=$$(go tool cover -func=cover_svc.out | awk '/^total:/ {gsub("%","",$$3); print $$3}'); \
	echo "rescache+metrics coverage: $$total% (floor $(SVC_COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(SVC_COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% below floor $(SVC_COVER_FLOOR)%"; exit 1; }
	go test -coverpkg=hetjpeg/internal/transcode \
		-coverprofile=cover_xcode.out ./internal/transcode
	@total=$$(go tool cover -func=cover_xcode.out | awk '/^total:/ {gsub("%","",$$3); print $$3}'); \
	echo "transcode coverage: $$total% (floor $(XCODE_COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(XCODE_COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% below floor $(XCODE_COVER_FLOOR)%"; exit 1; }

fmt:
	gofmt -l -w .

vet:
	go vet ./...

# lint runs the project-specific analyzers and the codegen-regression
# gate. Both exit non-zero on findings; `make lint` green is a merge
# requirement. Raw hetaudit compiler output lands in hetaudit_*.txt
# (gitignored) for inspection.
lint:
	go run ./cmd/hetlint ./...
	go run ./cmd/hetaudit

# lint-baseline re-blesses the hetaudit codegen baselines from the
# current tree. Run it only after verifying an intentional change (a
# new kernel, a rewritten loop) and commit the baseline diff with it.
lint-baseline:
	go run ./cmd/hetaudit -bless
