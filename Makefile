# Development targets. CI runs the same commands; see .github/workflows/ci.yml.

.PHONY: test loc bench-smoke

test:
	go build ./... && go test ./...

# Non-test Go lines outside benchmark/: the number ROADMAP item 11's
# surface-budget target (<= 17.8k) is counted in. CI prints it in the
# lint job. The total is then split in two: serving lines, in the
# packages cmd/ktpmd links (go list -deps ./cmd/ktpmd), and reproduction
# lines, everything else (the paper's baselines, the harness, the
# generators, the CLIs and the examples).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs wc -l | tail -1
	@total=$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l); \
	serving=$$(for d in $$(go list -deps -f '{{if not .Standard}}{{.Dir}}{{end}}' ./cmd/ktpmd); do \
		find "$$d" -maxdepth 1 -name '*.go' ! -name '*_test.go'; done | xargs cat | wc -l); \
	echo " $$serving serving"; \
	echo " $$((total - serving)) reproduction"

# One iteration of every benchmark (no unit tests), so benches cannot
# rot unnoticed. CI invokes this target.
bench-smoke:
	go test -run xxx -bench=. -benchtime=1x ./...
