# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet bench cover fuzz fuzz-smoke reproduce examples clean race bench-guard bench-json bench-smoke alloc-guard capacity capacity-smoke fleet-smoke netqual netqual-smoke codec2 codec2-smoke evidence-smoke loc ci

all: build test

build:
	$(GO) build ./...

# Static checks: go vet, and gofmt — any file it would rewrite fails the
# target. CI's vet step runs this target, so the check lives once.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); [ -z "$$unformatted" ] || { echo "gofmt -l:"; echo "$$unformatted"; exit 1; }

test: vet
	$(GO) test ./...

# Short mode skips the slow calibration and sharing sweeps.
test-short: vet
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem .

# Full test suite under the race detector (wall-clock-ratio tests skip
# themselves when they detect the race-instrumented build). The root
# package alone has taken 260–350 s instrumented, past go test's 600 s
# default on a loaded runner; CI runs this target, not its own command.
race:
	$(GO) test -race -timeout 20m ./...

# Compile and smoke-run the benchmark suite (one iteration per benchmark):
# catches build breaks and panics in bench-only code without the full run.
# The flight-recorder and wire-capture benches ride along: they are the
# overhead guard for the always-on tracing and capture paths (the hard
# 0 allocs/op assertion on the capture-disabled path is
# TestDisabledTapAllocatesNothing, which every plain `go test` run
# enforces). internal/protocol brings BenchmarkPackFrames: the §5.4 packer
# on a 97-wire scroll burst and a 5,120-wire attach burst; the root package
# BenchmarkFabricEcho, one keystroke echo over the fabric with every
# observer armed, and BenchmarkFleetEcho, the same echo in fleet_fabric's
# shape (32 consoles on a 4-shard broker) — the one to profile the fleet by.
# internal/video brings the MPEG-II stand-in's frame draw beside its
# per-pixel reference.
bench-guard:
	$(GO) test -run xxx -bench . -benchtime 1x . ./internal/protocol/ ./internal/broker/ ./internal/obs/flight/ ./internal/obs/capture/ ./internal/obs/slo/ ./internal/obs/hostmon/ ./internal/obs/incident/ ./internal/obs/netqual/ ./internal/flow/ ./internal/fb/ ./internal/core/ ./internal/video/

# The repository benchmark (BENCHMARK.json, bench/) is a module of its own
# that `go build ./... && go test ./...` never descends into, yet it
# imports this module's public API: vet and smoke-test it so an API change
# that breaks it fails here rather than at the next benchmark run.
# One TestSmoke line is an expected failure until a [benchmark] PR may edit
# bench/: its cross-check of live against replayed bytes per event (within
# 25 %) predates the UDP endpoint's §5.4 packing, which is a 28 % saving on
# scroll_udp (1,953 B live for the 2,712 B the encoder emits). The target
# passes when the test passes, or when that line is the only thing wrong —
# any other output (a second failed check, another test, a build break, a
# panic) fails it.
BENCH_XFAIL := bench_test.go:[0-9]+: scroll_udp: live wire_bytes_per_event [0-9.]+ disagrees with replayed core.wire_bytes_per_event [0-9.]+$$
bench-smoke:
	cd bench && $(GO) vet ./...
	@cd bench && out=$$($(GO) test ./... 2>&1) && { echo "$$out"; exit 0; }; echo "$$out"; \
	[ "$$(echo "$$out" | grep -cE '$(BENCH_XFAIL)')" = 1 ] && \
	! echo "$$out" | grep -vE '$(BENCH_XFAIL)' | \
		grep -vE '^(--- FAIL: TestSmoke \([0-9.]+s\)|FAIL|FAIL[[:space:]]+slim/bench[[:space:]]+[0-9.]+s)$$' | grep -q . && \
	echo "bench-smoke: only the expected scroll_udp byte cross-check failed (see Makefile)"

# Measure the pixel-pipeline hot paths (optimized vs slowXxx reference
# kernels, the encoder's wire emit, full repaint and video encode, the
# MPEG-II stand-in's frame draw) and record the numbers as JSON.
bench-json:
	$(GO) test -run xxx -bench Hotpath -benchmem ./internal/fb/ ./internal/core/ ./internal/video/ | $(GO) run ./cmd/slimbench hotpath -o BENCH_hotpath.json

# Steady-state allocation budgets on the hot paths (0 allocs/op for console
# apply, the warm wire-emit path, the full tile cache, the SLO observe
# path — disabled AND enabled — the hostmon sample path, and the netqual
# observe path — disabled AND enabled — the §5.4 frame packer, the
# flow governor sending before a grant, under one and refusing, the
# flight recorder and the capture tap disabled and enabled, and the
# server's burst flush; at most 8 per 42-byte fabric echo end to end, and
# a paced blank 640x480 gen-2 attach at most 116 with its Terminate (16
# more than it made sent unpaced), a 352x240 video frame of 120 CSCS strips at most 3 — its strips'
# messages and payloads are the encoder's own slabs — and a video
# source's frame after the first none: it redraws the surface it owns),
# and the memory budgets: a tile cache holds only the slots it has
# filled, the encoder retains no wire bytes, a 640x480 gen-2 session is
# its two frame buffers plus at most 1 MiB. Run without -race: the race
# detector's instrumentation allocates and shadows the heap, so these
# tests skip themselves under it and `make race` never runs them.
ALLOC_TESTS = ZeroAlloc|Heap|RetainsNo|AllocsPerEcho|AllocatesNothing|ReusesSlotStorage|FlushGroupsRunsPerConsole|PacedAttachAllocs|VideoFrameAllocs
alloc-guard:
	$(GO) test -run '$(ALLOC_TESTS)' -count 1 . ./internal/protocol/ ./internal/fb/ ./internal/core/ ./internal/broker/ ./internal/obs/slo/ ./internal/obs/hostmon/ ./internal/obs/netqual/ ./internal/flow/ ./internal/obs/flight/ ./internal/obs/capture/ ./internal/server/ ./internal/video/

# Regenerate the committed capacity artifact: full LAN + WAN user ramps
# until the SLO burn knee (~5s of wall time; see internal/capacity).
# TestCommittedBench validates the artifact stays consistent with the code.
capacity:
	$(GO) run ./cmd/slimbench capacity -o BENCH_capacity.json

# Two-point capacity ramp asserting the curve's shape (monotone latency,
# well-formed points, artifact roundtrip). Runs in seconds; CI runs this.
capacity-smoke:
	$(GO) test -run 'TestCapacitySmoke|TestCommittedBench' -count 1 -v ./internal/capacity/

# Regenerate the committed path-estimation accuracy artifact: the netsim
# sweep over RTT 1-300ms x loss 0-10% (see internal/obs/netqual/sweep.go).
# TestCommittedBench validates the artifact stays within the accuracy bounds.
netqual:
	$(GO) run ./cmd/slimbench netqual -o BENCH_netqual.json

# Single-point estimator accuracy check plus committed-artifact validation.
# Runs in seconds; CI runs this (the full sweep is TestAccuracySweep, run
# by plain `go test`).
netqual-smoke:
	$(GO) test -run 'TestNetqualSmoke|TestCommittedBench' -count 1 -v ./internal/obs/netqual/

# Regenerate the committed gen-2 codec artifact: the scroll, re-expose,
# mixed and window drives compared raw vs gen-1 vs gen-2 (the Figure
# 8-shaped bytes-on-wire table). TestCommittedBench validates the artifact stays
# consistent with the encoders.
codec2:
	$(GO) run ./cmd/slimbench codec2 -o BENCH_codec2.json

# Gen-2 codec smoke: the >=5x scroll/re-expose payload-reduction
# acceptance bound, churn reclassification on the mixed drive, and
# committed-artifact validation. Runs in seconds; CI runs this (the
# zero-alloc budget for the warm cache-hit path rides in alloc-guard,
# the Codec2 hot-path benches in bench-guard).
codec2-smoke:
	$(GO) test -run 'TestCodecSpeedup|TestMixedDriveExercisesChurn|TestCommittedBench' -count 1 -v ./internal/workload/

# Session-broker fleet smoke: a 2-shard broker over the in-process fabric,
# hotdesk churn, one forced live migration, and the reattach latency
# asserted against the 2-second hotdesk budget (the full 2,000-console
# 8-shard soak is TestFleetSoak, run by plain `go test`). The sim-domain
# recovery checks ride along, a fraction of a second between them: a
# hotdesk repaint paid at the grant's pace, a screen restored by import,
# state file or migration paid at the same pace, a zero grant paced at the
# floor rate rather than lifted or stalled, a hotdesk leaving no stale
# grant on the console it left, a lost tail and a lost middle healed
# through the heartbeat, the seeded fault schedules converging on one
# fabric server, the owed region converging under any grant, and the fault
# schedules and the 32-console fleet each run twice and replaying exactly.
fleet-smoke:
	$(GO) test -run 'TestFleetSmoke|TestHotdeskUnderGrantIsPaced|TestRestoredScreenIsPaced|TestZeroGrantNeitherFloodsNorWedges|TestHotdeskLeavesNoStaleGrant|TestLostTailHealsThroughHeartbeat|TestFaultScheduleConverges|TestDebtConvergesUnderAnyGrant|TestSimulationIsAFunctionOfItsSeed' -count 1 -v .

# Evidence smoke against the real binaries: boot slimd, with no profile
# flag, with a wire capture, breach dumps (every paint breaches a 1ns SLO
# target) and incident bundles on, check the standard CPU profile still
# answers beside them, type into it with slimview, check /metrics shows
# the shipped profile at work (paced traffic, gen-2 tiles), ask for a bundle over
# /debug/incident, stop the daemon, and have `slimtrace explain` read the
# bundle, the capture and the dump directory back; every artifact a bundle
# must hold is checked on disk, and what was deleted must stay gone: the
# subcommands explain replaced, the /debug/costmodel endpoint (a 404) and
# the bundle's costmodel.json. The 1ns target also drives the SLO to
# BREACHING, so its bundle may land first and the manual one answer 429
# inside MinGap: either bundle will do. A second daemon, a 2-shard fleet,
# is then typed into and must publish like one server: /metrics shows its
# input-to-paint observations, `slim_sessions 1`, paced traffic and gen-2
# tiles. Ports 5497-5498 and
# 6061-6062 keep clear of a developer's running slimd.
EVIDENCE := $(or $(TMPDIR),/tmp)/slim-evidence-smoke
evidence-smoke:
	rm -rf $(EVIDENCE) && mkdir -p $(EVIDENCE)
	$(GO) build -o $(EVIDENCE)/ ./cmd/slimd ./cmd/slimview ./cmd/slimtrace
	set -e; cd $(EVIDENCE); \
	./slimd -addr 127.0.0.1:5498 -debug 127.0.0.1:6061 -netqual \
		-capture run.slimcap -flight-dir dumps -slo-target 1ns -incident-dir incidents & \
	slimd=$$!; trap 'kill $$slimd 2>/dev/null' EXIT; \
	sleep 3; \
	curl -fsS -o /dev/null 'http://127.0.0.1:6061/debug/pprof/profile?seconds=1'; \
	code=$$(curl -sS -o /dev/null -w '%{http_code}' 'http://127.0.0.1:6061/debug/costmodel'); \
	[ "$$code" = 404 ] || { echo "GET /debug/costmodel answered $$code"; exit 1; }; \
	./slimview -server 127.0.0.1:5498 -card card-demo -type "evidence" -o screen.png; \
	curl -fsS -o run.prom http://127.0.0.1:6061/metrics; \
	grep -qE '^slim_flow_released_total [1-9]' run.prom || { echo "the daemon's /metrics shows no paced traffic"; exit 1; }; \
	grep -qE '^slim_codec2_tiles_total\{[^}]*\} [1-9]' run.prom || { echo "the daemon's /metrics shows no gen-2 tiles"; exit 1; }; \
	code=$$(curl -sS -o /dev/null -w '%{http_code}' -X POST 'http://127.0.0.1:6061/debug/incident?trigger=evidence-smoke'); \
	case $$code in 200|429) ;; *) echo "POST /debug/incident answered $$code"; exit 1;; esac; \
	kill -INT $$slimd; wait $$slimd || true; trap - EXIT; \
	for f in manifest.json cpu.pprof heap.pprof goroutines.txt hostmon.json slo.json metrics.prom capture-tail.slimcap; do \
		ls incidents/incident-*/"$$f" >/dev/null; \
	done; \
	if ls incidents/incident-*/costmodel.json 2>/dev/null; then echo "a bundle still holds costmodel.json"; exit 1; fi; \
	./slimtrace explain incidents | grep -qE 'evidence-smoke|slo:OK->'; \
	./slimtrace explain incidents/incident-* | grep -q 'host at capture'; \
	./slimtrace explain incidents/incident-* | grep -q 'go tool pprof -top'; \
	./slimtrace explain run.slimcap | grep -q 'path replay'; \
	./slimtrace explain -perfetto run.json dumps run.slimcap | grep -q 'dumps from'; \
	for sub in flight blame capture netqual incident; do \
		if ./slimtrace $$sub 2>/dev/null; then echo "slimtrace $$sub still exists"; exit 1; fi; \
	done
	set -e; cd $(EVIDENCE); \
	./slimd -addr 127.0.0.1:5497 -shards 2 -debug 127.0.0.1:6062 & \
	fleet=$$!; trap 'kill $$fleet 2>/dev/null' EXIT; \
	sleep 3; \
	./slimview -server 127.0.0.1:5497 -card card-demo -type "fleet" -o fleet.png; \
	curl -fsS -o fleet.prom http://127.0.0.1:6062/metrics; \
	kill -INT $$fleet; wait $$fleet || true; trap - EXIT; \
	grep -qE '^slim_input_to_paint_seconds_count [1-9]' fleet.prom || { echo "the fleet's /metrics shows no input-to-paint observations"; exit 1; }; \
	grep -qx 'slim_sessions 1' fleet.prom || { echo "the fleet's /metrics does not show slim_sessions 1"; exit 1; }; \
	grep -qE '^slim_flow_released_total [1-9]' fleet.prom || { echo "the fleet's /metrics shows no paced traffic"; exit 1; }; \
	grep -qE '^slim_codec2_tiles_total\{[^}]*\} [1-9]' fleet.prom || { echo "the fleet's /metrics shows no gen-2 tiles"; exit 1; }
	rm -rf $(EVIDENCE)

# Counted non-test Go lines per top-level package — the number the
# simplicity PRs report (CHANGES.md). Informational; never fails.
loc:
	@total=0; for d in . cmd/* internal/*; do \
		n=$$(find $$d $$([ $$d = . ] && echo -maxdepth 1) -name '*.go' ! -name '*_test.go' | xargs cat 2>/dev/null | wc -l); \
		total=$$((total + n)); \
		printf '%7d  %s\n' $$n $$d; \
	done; printf '%7d  TOTAL\n' $$total

# CI-style gate: static checks, race-detected tests, benchmark smoke run,
# repository-benchmark smoke, allocation budgets, capacity-curve smoke,
# path-estimation smoke, gen-2 codec smoke, fleet smoke, evidence smoke,
# and the examples.
ci: vet race bench-guard bench-smoke alloc-guard capacity-smoke netqual-smoke codec2-smoke fleet-smoke evidence-smoke examples

cover:
	$(GO) test -cover ./...

# The 80-second CI fuzz smoke, split between the message decoder, the §5.4
# frame packer, the CSCS codec (decode against its reference, and the
# server's reconstruction against decode), the three entry points the
# transports feed raw datagrams into (console, server, and the broker under
# spoofed sources), the session state file (`LoadSessions` over arbitrary
# bytes), and the evidence reader
# (`slimtrace explain` over an arbitrary capture or dump file; its tables
# iterate maps, so coverage varies run to run and the minimizer is capped
# or it eats the whole budget).
fuzz-smoke:
	$(GO) test -run xxx -fuzz 'FuzzDecodeMessage$$' -fuzztime 10s ./internal/protocol/
	$(GO) test -run xxx -fuzz FuzzPackFrames -fuzztime 10s ./internal/protocol/
	$(GO) test -run xxx -fuzz 'FuzzDecodeCSCS$$' -fuzztime 10s ./internal/fb/
	$(GO) test -run xxx -fuzz FuzzConsoleHandleDatagram -fuzztime 10s ./internal/console/
	$(GO) test -run xxx -fuzz FuzzServerHandleDatagram -fuzztime 10s ./internal/server/
	$(GO) test -run xxx -fuzz FuzzBrokerHandleDatagram -fuzztime 10s ./internal/broker/
	$(GO) test -run xxx -fuzz FuzzLoadSessions -fuzztime 10s ./internal/server/
	$(GO) test -run xxx -fuzz FuzzExplainInput -fuzztime 10s -fuzzminimizetime 20x ./cmd/slimtrace/

# Brief fuzz passes over the wire-format decoders, the frame packer, the
# endpoints' and the broker's raw datagram entry points, the session state
# file and the evidence reader.
fuzz:
	$(GO) test -run xxx -fuzz FuzzExplainInput -fuzztime 30s -fuzzminimizetime 20x ./cmd/slimtrace/
	$(GO) test -run xxx -fuzz FuzzConsoleHandleDatagram -fuzztime 30s ./internal/console/
	$(GO) test -run xxx -fuzz FuzzServerHandleDatagram -fuzztime 30s ./internal/server/
	$(GO) test -run xxx -fuzz FuzzBrokerHandleDatagram -fuzztime 30s ./internal/broker/
	$(GO) test -run xxx -fuzz FuzzLoadSessions -fuzztime 30s ./internal/server/
	$(GO) test -run xxx -fuzz 'FuzzDecode$$' -fuzztime 30s ./internal/protocol/
	$(GO) test -run xxx -fuzz 'FuzzDecodeBatch$$' -fuzztime 30s ./internal/protocol/
	$(GO) test -run xxx -fuzz 'FuzzDecodeMessage$$' -fuzztime 30s ./internal/protocol/
	$(GO) test -run xxx -fuzz FuzzPackFrames -fuzztime 30s ./internal/protocol/
	$(GO) test -run xxx -fuzz FuzzDecodeCSCS -fuzztime 30s ./internal/fb/
	$(GO) test -run xxx -fuzz FuzzTileCache -fuzztime 30s ./internal/core/

# Regenerate every table and figure from the paper (quick corpus).
reproduce:
	$(GO) run ./cmd/slimbench

# Run every example end to end (a few seconds); each exits non-zero when
# what it demonstrates does not hold, so CI runs them.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/mobility
	$(GO) run ./examples/video
	$(GO) run ./examples/desktop
	$(GO) run ./examples/mediamix
	$(GO) run ./examples/sharing

clean:
	rm -f quickstart.png video-frame.png desktop.png screen.png slimbench slimd slimstat slimtrace slimview
