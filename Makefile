# Development targets. `make check` is the tier-1 gate: formatting,
# vet, build, tests, and a short mvbench smoke run.

GO ?= go

.PHONY: check fmt vet build test race mvperf smoke examples trace-smoke checkpoint-smoke fleet-smoke bench

check: fmt vet build test race mvperf smoke examples trace-smoke checkpoint-smoke fleet-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark harness is a nested module, so `go build ./...` never
# compiles it: vet and test it here against the tree's current API.
mvperf:
	cd mvperf && $(GO) vet . && $(GO) test .

# A quick end-to-end run of the Figure 1 experiment, once plain and
# once under -trace: the two tables must be identical apart from the
# line that reports the trace file. A tracer rides the superblocks, so
# this pins, end to end, that observing a run moves no simulated cycle.
# (Step against blocks is compared end to end by the step arms of the
# fault-plan tests in internal/difftest, whose plans arm a fetch fault
# that never fires.)
smoke:
	@$(GO) run ./cmd/mvbench -samples 20 -iters 20 fig1 > /tmp/mv-smoke-plain.txt
	@$(GO) run ./cmd/mvbench -samples 20 -iters 20 -trace /tmp/mv-smoke.json fig1 > /tmp/mv-smoke-traced.txt
	@if ! grep -v '^wrote [0-9]* trace events to ' /tmp/mv-smoke-traced.txt | cmp -s /tmp/mv-smoke-plain.txt -; then \
		echo "mvbench fig1 differs under -trace:"; \
		diff /tmp/mv-smoke-plain.txt /tmp/mv-smoke-traced.txt; exit 1; fi
	@cat /tmp/mv-smoke-plain.txt

# Run every example program; any non-zero exit fails. examples/module
# is the only program outside the tests that registers a module with
# AddModule and then commits.
examples:
	@for d in examples/*/; do \
		$(GO) run ./$$d > /dev/null || { echo "example $$d failed"; exit 1; }; \
		echo "example $$d ok"; \
	done

# End-to-end observability smoke: compile a demo, run it under the
# always-on flight recorder, and render the dump with mvtrace in both
# views. Exercises the whole mvcc -> mvrun -flight -> mvtrace pipeline.
trace-smoke:
	@printf '%s\n' \
		'multiverse int feature_enabled;' \
		'long fast_calls;' \
		'void fast_path(void) { fast_calls++; }' \
		'void slow_path(void) { }' \
		'multiverse void process(void) { if (feature_enabled) { fast_path(); } else { slow_path(); } }' \
		'void handle_request(void) { process(); }' \
		> /tmp/mv-trace-smoke.mvc
	@$(GO) run ./cmd/mvcc -o /tmp/mv-trace-smoke.img /tmp/mv-trace-smoke.mvc
	@$(GO) run ./cmd/mvrun -entry handle_request -set feature_enabled=1 -commit \
		-flight /tmp/mv-trace-smoke.flight.json /tmp/mv-trace-smoke.img > /dev/null
	@$(GO) run ./cmd/mvtrace /tmp/mv-trace-smoke.flight.json > /dev/null
	@$(GO) run ./cmd/mvtrace -timeline /tmp/mv-trace-smoke.flight.json

# Snapshot/record-replay smoke: checkpoint a run mid-flight, restore
# it, and re-checkpoint the resumed run at a later cycle — the resumed
# snapshot must be byte-identical to one the uninterrupted run takes
# at the same cycle (the encoding is canonical, so cmp compares
# digests). Then drive mvdbg's time travel over the same image in
# batch mode: rewinding across a BRK-poke commit and re-running must
# land on the digest forward execution produced.
checkpoint-smoke:
	@printf '%s\n' \
		'multiverse int mode;' \
		'long work;' \
		'multiverse void step(void) { if (mode) { work += 3; } else { work += 1; } }' \
		'long spin(long n) { long i; for (i = 0; i < n; i++) { step(); } return work; }' \
		> /tmp/mv-ckpt-smoke.mvc
	@$(GO) run ./cmd/mvcc -o /tmp/mv-ckpt-smoke.img /tmp/mv-ckpt-smoke.mvc
	@$(GO) run ./cmd/mvrun -entry spin -args 400 -checkpoint 1000 \
		-checkpoint-out /tmp/mv-ckpt-mid.snap /tmp/mv-ckpt-smoke.img > /dev/null
	@$(GO) run ./cmd/mvrun -entry spin -args 400 -checkpoint 2500 \
		-checkpoint-out /tmp/mv-ckpt-full.snap /tmp/mv-ckpt-smoke.img > /dev/null
	@$(GO) run ./cmd/mvrun -restore /tmp/mv-ckpt-mid.snap -checkpoint 2500 \
		-checkpoint-out /tmp/mv-ckpt-resumed.snap /tmp/mv-ckpt-smoke.img > /dev/null
	@if ! cmp -s /tmp/mv-ckpt-full.snap /tmp/mv-ckpt-resumed.snap; then \
		echo "restore-then-run snapshot differs from the uninterrupted run's:"; \
		$(GO) run ./cmd/mvtrace -snap /tmp/mv-ckpt-full.snap; \
		$(GO) run ./cmd/mvtrace -snap /tmp/mv-ckpt-resumed.snap; exit 1; fi
	@$(GO) run ./cmd/mvtrace -snap /tmp/mv-ckpt-resumed.snap
	@printf '%s\n' \
		'call spin 400' \
		'run 2004' \
		'set mode=1' \
		'commit' \
		'run 1500' \
		'digest' \
		'back 2000' \
		'run 2000' \
		'digest' \
		'quit' \
		| $(GO) run ./cmd/mvdbg -poke -batch /tmp/mv-ckpt-smoke.img > /tmp/mv-ckpt-dbg.txt
	@if [ "$$(grep -c '^digest ' /tmp/mv-ckpt-dbg.txt)" -ne 2 ] || \
		[ "$$(grep '^digest ' /tmp/mv-ckpt-dbg.txt | sort -u | wc -l)" -ne 1 ]; then \
		echo "mvdbg time travel did not reproduce the forward digest:"; \
		cat /tmp/mv-ckpt-dbg.txt; exit 1; fi
	@grep '^digest ' /tmp/mv-ckpt-dbg.txt | head -1

# Fleet smoke: a small supervised fleet under a chaos storm — machine
# kills and commit faults during config-flip storms — must finish with
# every kill recovered by a snapshot restart and zero request loss
# (mvfleet exits non-zero otherwise), and two identically-seeded runs
# must report byte-identical JSON (host timing stripped). Leaves a
# metrics snapshot at /tmp/mv-fleet-metrics.json for CI to archive.
fleet-smoke:
	@$(GO) run ./cmd/mvfleet -shards 4 -machines 16 -rounds 12 -storm 3 \
		-chaos -kill-rate 60 -fault-points 4 -seed 7 -json \
		-metrics-out /tmp/mv-fleet-metrics.json > /tmp/mv-fleet-a.json
	@$(GO) run ./cmd/mvfleet -shards 4 -machines 16 -rounds 12 -storm 3 \
		-chaos -kill-rate 60 -fault-points 4 -seed 7 -json > /tmp/mv-fleet-b.json
	@grep -v host_seconds /tmp/mv-fleet-a.json > /tmp/mv-fleet-a.det.json
	@grep -v host_seconds /tmp/mv-fleet-b.json > /tmp/mv-fleet-b.det.json
	@if ! cmp -s /tmp/mv-fleet-a.det.json /tmp/mv-fleet-b.det.json; then \
		echo "identically-seeded fleet runs diverged:"; \
		diff /tmp/mv-fleet-a.det.json /tmp/mv-fleet-b.det.json; exit 1; fi
	@grep -E '"(kills_total|restarts_total|migrations_total|requests_served|requests_scheduled)"' /tmp/mv-fleet-a.json

bench:
	$(GO) test -bench=. -benchmem
