# Development targets. CI runs the same commands; see .github/workflows/ci.yml.

.PHONY: test loc bench-smoke bench-json bench-json-check

test:
	go build ./... && go test ./...

# Non-test Go lines outside benchmark/: the number ROADMAP item 2's
# 22.2k -> <= 17.8k target is counted in. CI prints it in the lint job.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs wc -l | tail -1

# One iteration of every benchmark (no unit tests), so benches cannot
# rot unnoticed. CI invokes this target.
bench-smoke:
	go test -run xxx -bench=. -benchtime=1x ./...

# Regenerate the committed serving sweep numbers (BENCH_topk.json):
# the shard-count sweep (ns/op, allocs/op, summary-table derives flat
# across shard counts over the shared plane), the batch amortization
# sweep, the snapshot startup sweep (open wall time + first-query
# latency for build/eager/lazy/mmap at
# several graph sizes), the instrumentation overhead sweep (warm-cache
# /query with observability on versus off), and the distributed and
# overload sweeps. -json implies every sweep, so the flags below stay
# complete automatically.
bench-json:
	go run ./cmd/benchkit -exp topk,batch -json BENCH_topk.json

# Drift check for the committed sweep document: regenerate the sweeps in
# memory and fail when BENCH_topk.json's schema (key paths, row names)
# no longer matches what benchkit writes. CI runs this; fix drift by
# committing a fresh make bench-json.
bench-json-check:
	go run ./cmd/benchkit -exp topk,batch -drift BENCH_topk.json
