.PHONY: verify test bench chaos golden

# Tier-1 gate: build + vet + full tests + race passes (sim, telemetry, ops,
# exp) + the metrics regression gate against golden/.
verify:
	sh verify.sh

test:
	go test ./...

# Randomized robustness sweep: every extension combo under both consistency
# models and networks at seeded-random small scales, under the watchdog
# with data verification on (see exp/chaos_test.go).
chaos:
	go test -run TestChaos -v -count=1 ./exp

# Go micro-benchmarks, archived machine-readably: the raw go test output
# streams to the terminal while cmd/benchjson writes the parsed results to
# $(BENCH_OUT). There is no default, so a bare `make bench` cannot overwrite
# a committed BENCH_PR*.json archive: name the file, e.g.
# `make bench BENCH_OUT=/tmp/bench.json`. A single-sample archive proves no
# speedup or regression; for end-to-end numbers run `bash bench/run.sh`, and
# compare two revisions with `bench/abtest.sh OLD [NEW]` (interleaved runs).
# -p 1 serializes the per-package test binaries: benchmark-bearing packages
# must not run concurrently or they contend for cores and inflate ns/op.
bench:
	@test -n "$(BENCH_OUT)" || { echo "make bench: set BENCH_OUT=FILE (for comparisons use bash bench/run.sh or bench/abtest.sh)" >&2; exit 2; }
	go test -p 1 -bench=. -benchmem -count=1 ./... | go run ./cmd/benchjson -o $(BENCH_OUT)

# Regenerate the committed metrics baseline that verify.sh gates against:
# the Table 2 grid (5 workloads x 4 protocols) at a small fixed scale. Run
# this after an intentional metrics change and commit the result.
golden:
	rm -f golden/*.json
	go run ./cmd/experiments -exp table2 -scale 0.05 -procs 4 -q -metrics golden > /dev/null
