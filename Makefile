.PHONY: verify test chaos golden

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
