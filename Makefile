.PHONY: verify test chaos golden size

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

# Regenerate the committed metrics baseline that verify.sh gates against:
# every run of the whole evaluation (all eight extension sets under RC and
# SC, the uniform network and the 16/32/64-bit meshes, directory pointers,
# associativity, buffer and cache sensitivity, 4-32 processors) at a tiny
# fixed scale, 265 files. Run this after an intentional metrics change and
# commit the result.
golden:
	rm -f golden/*.json
	go run ./cmd/experiments -exp all -scale 0.02 -procs 16 -q -metrics golden > /dev/null

# Print the repository's size as four numbers: production and test Go
# lines outside bench/ (every line of every file `git ls-files` lists,
# blank and comment lines included, so stage new files first), and the
# flags `ccsim -h` and `experiments -h` list (usage lines starting "  -").
size:
	@printf 'production Go lines (outside bench/): %s\n' "$$(git ls-files -z '*.go' ':!:*_test.go' ':!:bench' | xargs -0 cat | wc -l)"
	@printf 'test Go lines (outside bench/):       %s\n' "$$(git ls-files -z '*_test.go' ':!:bench' | xargs -0 cat | wc -l)"
	@printf 'ccsim -h flags:                       %s\n' "$$(go run ./cmd/ccsim -h 2>&1 | grep -c '^  -')"
	@printf 'experiments -h flags:                 %s\n' "$$(go run ./cmd/experiments -h 2>&1 | grep -c '^  -')"
