# Corundum-OCaml — top-level targets (the artifact's run.sh/results.sh).

.PHONY: all build test eval tables micro perf scale crash pmodel bench waste recovery-latency openloop gates doc clean

all: build

build:
	dune build @all

test:
	dune runtest

# Reproduce every table and figure; CSVs land in results/.
eval: tables micro perf scale crash

tables:
	dune exec bin/tables.exe -- all --csv

micro:
	dune exec bin/micro.exe

perf:
	dune exec bin/perf.exe

scale:
	dune exec bin/scale.exe -- --segments 300 --words 8000

crash:
	dune exec bin/crash_sweep.exe -- --samples 2

# Exhaustive crash-state model check + seeded-bug controls + trace conformance.
pmodel:
	dune exec bin/pmodel_check.exe -- check --baseline PMODEL_baseline.json
	dune exec bin/pmodel_check.exe -- controls
	dune exec bin/pmodel_check.exe -- conform transfer kvstore

bench:
	dune exec bench/main.exe

# Per-engine persist waste vs the minimal schedule, gated on the baseline.
waste:
	dune exec bench/main.exe -- --waste --waste-json pprof.waste.json --waste-baseline PPROF_baseline.json

recovery-latency:
	dune exec bench/main.exe -- recovery-latency --sweep

# Open-loop multi-domain latency harness, gated on the committed baseline.
openloop:
	dune exec bench/main.exe -- openloop --domains 2 --ops 5000 --json openloop.now.json --baseline OPENLOOP_baseline.json
	dune exec bench/main.exe -- openloop --shared --domains 4 --ops 2000 --json openloop.shared.json --baseline OPENLOOP_baseline.json

# Every committed gate in one run; each gate's JSON and stdout land in
# gates/.  Two runs of the same tree differ only in host-time fields
# and in the multi-domain openloop --shared run, which is gated on
# ceilings, not on exact counts.  So `diff -r` of the gates/ directories
# of two checkouts shows what a change moved.  Pools are written inside
# gates/.
gates: build
	rm -rf gates && mkdir -p gates
	dune exec bench/main.exe -- --json gates/bench.json --baseline BENCH_baseline.json > gates/bench.txt
	dune exec bench/main.exe -- --waste --waste-json gates/pprof.waste.json --waste-baseline PPROF_baseline.json > gates/waste.txt
	dune exec bin/pmodel_check.exe -- check --json gates/pmodel.stats.json --baseline PMODEL_baseline.json > gates/pmodel.check.txt
	dune exec bin/pmodel_check.exe -- controls --json gates/pmodel.controls.json > gates/pmodel.controls.txt
	dune exec bin/pmodel_check.exe -- conform --json gates/pmodel.conform.json transfer kvstore > gates/pmodel.conform.txt
	dune exec bench/main.exe -- openloop --domains 2 --ops 5000 --quiet --json gates/openloop.json --baseline OPENLOOP_baseline.json > gates/openloop.txt
	dune exec bench/main.exe -- openloop --shared --domains 4 --ops 2000 --quiet --psan --json gates/openloop.shared.json --baseline OPENLOOP_baseline.json > gates/openloop.shared.txt
	dune exec bench/main.exe -- --psan --psan-json gates/bench.psan.json > gates/bench.psan.txt
	cd gates && dune exec --root .. --no-print-directory examples/bank.exe -- --psan --psan-json bank.psan.json > bank.psan.txt
	cd gates && dune exec --root .. --no-print-directory examples/kvstore_cli.exe -- --psan --psan-json kvstore.psan.json put lang ocaml > kvstore.psan.txt
	dune exec bin/crash_sweep.exe -- --torn 0.5 --samples 2 --limit 20 > gates/crash_sweep.torn.txt

doc:
	dune build @doc

clean:
	dune clean
	rm -rf results *.pool
