# CI entry points for the reproduction. `make ci` is the gate: it checks
# formatting, vets, builds, runs the test suite twice (plain and -race),
# and enforces that every internal/* package carries a godoc package
# comment.

GO ?= go

.PHONY: ci fmtcheck vet build test race benchbuild doccheck benchpaper benchsmoke fuzzseed covercheck apicheck apiupdate guidelines servecheck

ci: fmtcheck vet build test race benchbuild benchsmoke fuzzseed guidelines servecheck covercheck doccheck apicheck

# Every tracked Go file must be gofmt-clean. The file list comes from git,
# not a directory walk, so build outputs under the tree are never checked.
fmtcheck:
	@files=$$(git ls-files '*.go' | xargs gofmt -l); \
	if [ -n "$$files" ]; then echo "fmtcheck: not gofmt-clean:"; echo "$$files"; exit 1; fi; \
	echo "fmtcheck: all tracked Go files gofmt-clean"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The end-to-end benchmark (perfbench/) is its own module built against
# this one, so the root `go test ./...` never compiles it: vet and build
# it here, so an internal API change cannot break it unnoticed.
benchbuild:
	cd perfbench && $(GO) vet . && $(GO) build -o /dev/null .

# The per-artifact paper benchmarks (tables and figures at reduced scale).
benchpaper:
	$(GO) test -bench=. -benchmem .

# One iteration of every scheduler/replay/sweep benchmark: catches
# benchmarks that no longer compile or crash without paying for stable
# timings.
benchsmoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' ./internal/mpi/ ./internal/experiment/

# Run the fuzz targets over their seed corpus only (no fuzzing time):
# each f.Add seed must keep the replay and scheduler engines
# bit-identical (experiment), both selectors total (selection), and the
# daemon's select-request parser in agreement with encoding/json (wire).
fuzzseed:
	$(GO) test -run='^Fuzz' ./internal/experiment/ ./internal/selection/ ./internal/guideline/ ./internal/serve/wire/

# Performance-guideline smoke gate: verify the self-consistency registry
# on a reduced grid (one cluster, one random perturbation, small P × m
# grid). Zero violations tolerated — the command exits non-zero on any.
guidelines:
	$(GO) run ./cmd/mpicollperf verify-guidelines -quick -out ""

# Daemon smoke gate: boot mpicollperfd on an ephemeral port and drive a
# full client cycle — submit a calibration, poll to completion, query
# selections (broadcast + one extended family), cancel a full-scale job,
# and drain the daemon with SIGTERM. See scripts/servecheck.sh.
servecheck:
	GO="$(GO)" sh scripts/servecheck.sh

# Coverage regression gate: total statement coverage of internal/... must
# not drop below the recorded baseline (in percent, measured with a
# shuffled, uncached run when the gate was introduced).
COVER_BASELINE = 92.2
covercheck:
	$(GO) test -count=1 -shuffle=on -coverprofile=.cover.out ./internal/...
	@total=$$($(GO) tool cover -func=.cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	rm -f .cover.out; \
	echo "covercheck: total internal coverage $$total% (baseline $(COVER_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { exit (t+0 < b+0) ? 1 : 0 }' || \
		{ echo "covercheck: coverage dropped below baseline"; exit 1; }

# API surface gate: the facade's exported surface (everything `go doc
# -all` prints for the root package, declarations and doc comments) is
# recorded in api/mpicollperf.txt. apicheck fails when the surface drifts
# from the record, so facade changes show up as a reviewable diff; after
# an intentional change, regenerate the record with `make apiupdate`.
apicheck:
	@$(GO) doc -all . > .api_current.txt
	@if ! diff -u api/mpicollperf.txt .api_current.txt; then \
		rm -f .api_current.txt; \
		echo "apicheck: facade surface drifted from api/mpicollperf.txt; run 'make apiupdate' and review the diff"; \
		exit 1; \
	fi
	@rm -f .api_current.txt
	@echo "apicheck: facade surface matches api/mpicollperf.txt"

apiupdate:
	@mkdir -p api
	$(GO) doc -all . > api/mpicollperf.txt
	@echo "apiupdate: wrote api/mpicollperf.txt"

# Every internal/* package must have a package comment: `go doc` prints
# the comment starting on line 3 (line 1 is the package clause, line 2 is
# blank) and package comments conventionally start with "Package <name>";
# when the comment is missing, line 3 is the first symbol summary instead.
doccheck:
	@fail=0; \
	for d in internal/*/; do \
		case "$$($(GO) doc ./$$d 2>/dev/null | sed -n 3p)" in \
			Package*) ;; \
			*) echo "doccheck: $$d has no package comment"; fail=1 ;; \
		esac; \
	done; \
	if [ $$fail -ne 0 ]; then exit 1; fi; \
	echo "doccheck: all internal packages documented"
