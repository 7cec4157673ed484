# Development targets. CI runs the same commands; see .github/workflows/ci.yml.

.PHONY: test loc bench-smoke

test:
	go build ./... && go test ./...

# Non-test Go lines outside benchmark/: the number ROADMAP item 11's
# surface-budget target (<= 17.8k) is counted in. CI prints it in the
# lint job.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs wc -l | tail -1

# One iteration of every benchmark (no unit tests), so benches cannot
# rot unnoticed. CI invokes this target.
bench-smoke:
	go test -run xxx -bench=. -benchtime=1x ./...
