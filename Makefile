PYTEST := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python -m pytest
REPRO  := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) python -m repro

.PHONY: test-fast test-slow test-all test-cov bench bench-harness serve2-smoke chaos-smoke conform-smoke batch-smoke admm-smoke resilience-smoke codegen-smoke lint

# Quick unit/property lane — skips the long closed-loop / experiment suites.
test-fast:
	$(PYTEST) -q -m "not slow"

# Only the long suites (closed-loop rollouts, paper experiment tables).
test-slow:
	$(PYTEST) -q -m slow

# Everything: the tier-1 verification lane (see ROADMAP.md).
test-all:
	$(PYTEST) -q

# Solver micro-benchmarks and the banded-vs-dense acceptance bench.
bench:
	$(PYTEST) -q benchmarks/bench_solver_kernels.py benchmarks/bench_banded_vs_dense.py

# Self-test of the repo benchmark harness (benchmarks/e2e, outside tier-1's
# testpaths): among other things every span target must still resolve, so a
# refactor that renames solve_qp_batch, robust_factor_batch or a
# BatchCholeskyFactor method fails here instead of nulling a per-layer metric.
bench-harness:
	$(PYTEST) -q benchmarks/e2e/test_harness.py

# Serving-runtime smoke: the continuous-batching serve engine end to end.
# Unit pyramid (padding equivalence, EDF scheduler, session table, engine,
# shards), a small deadline-budgeted default fleet and a ragged-horizon
# sharded fleet that must each finish with zero crashed sessions (non-zero
# exit otherwise), the padded conform family against the golden ledger, a
# seeded shard-chaos campaign whose handoff invariant must hold, and the
# seeded fleet-sharded and fleet-ragged passes hashed by plan_hash.py, whose
# digests must agree: where a group runs (which shard, which process) never
# changes a served byte.  Traces and shrunk repro files land in
# conform/failures/ for the CI artifact upload.
serve2-smoke:
	mkdir -p conform/failures
	$(PYTEST) -q -m "not slow" tests/test_serve2_padding.py tests/test_serve2_scheduler.py tests/test_serve_engine.py tests/test_serve2_engine.py tests/test_serve2_shard.py
	$(REPRO) serve-sim --sessions 10 --ticks 20 --seed 0
	$(REPRO) serve-sim --sessions 10 --ticks 10 --robots CartPole,MobileRobot --horizons 5,6,8 --rungs 8 --shards 2 --deadline-ms 250 --seed 0 --trace conform/failures/serve2-trace.jsonl
	$(REPRO) conform run --cases 8 --seed 0 --paths native_horizon,padded_horizon --out-dir conform/failures
	$(REPRO) chaos --robot cartpole --schedule shards --shards 2 --sessions 4 --ticks 30 --deadline-ms 1000 --seed 3 --trace conform/failures/serve2-chaos-trace.jsonl
	python scripts/plan_hash.py --root . --workload fleet-sharded --seed 0 > .plan_hash.a
	python scripts/plan_hash.py --root . --workload fleet-ragged --seed 0 > .plan_hash.b
	test "$$(grep -o 'sha256=[0-9a-f]*' .plan_hash.a)" = "$$(grep -o 'sha256=[0-9a-f]*' .plan_hash.b)"
	cat .plan_hash.a .plan_hash.b && rm -f .plan_hash.a .plan_hash.b

# Chaos smoke: a short cartpole fault campaign (sensor + solver faults)
# must pass every recovery invariant (non-zero exit otherwise).
chaos-smoke:
	$(REPRO) chaos --robot cartpole --schedule smoke --sessions 3 --ticks 30 --seed 0

# Differential conformance smoke: a small seeded budget covering every robot
# and every registered numeric path must sit within the golden tolerance
# ledger (conform/tolerances.json); failures shrink to replayable files
# under conform/failures/ and exit non-zero.
conform-smoke:
	$(REPRO) conform run --cases 12 --seed 0 --out-dir conform/failures

# Batched-solving smoke: the B in {1,4,16,64} throughput sweep must clear
# 2x over the scalar path at B=16 on at least one robot, and a small fleet
# on the batched serve engine must complete with zero crashed sessions.
# The ungated B=1 ratio rows are left out (they only print; run them with
# `pytest -q -s benchmarks/bench_batch_throughput.py -k b1`).  A seeded
# fleet-ragged pass and a seeded loop-scalar pass (the scalar controller,
# whose QP step is the one QP loop at one lane) must then
# replay byte for byte: for each, two separate processes hash every served
# input and final plan, and `cmp` checks that the replay is deterministic
# across processes (hash seeds, ordering by id).  That a plan does not
# depend on solve history within a process is a unit test
# (tests/test_batch_qp.py::TestStructureMemo).
batch-smoke:
	$(PYTEST) -q benchmarks/bench_batch_throughput.py -k 'not b1'
	$(REPRO) serve-sim --sessions 8 --ticks 10 --robots MobileRobot --horizon 8 --deadline-ms 250 --rungs 8 --seed 0
	python scripts/plan_hash.py --root . --workload fleet-ragged --seed 0 > .plan_hash.a
	python scripts/plan_hash.py --root . --workload fleet-ragged --seed 0 > .plan_hash.b
	cmp .plan_hash.a .plan_hash.b && cat .plan_hash.a && rm -f .plan_hash.a .plan_hash.b
	python scripts/plan_hash.py --root . --workload loop-scalar --seed 0 > .plan_hash.a
	python scripts/plan_hash.py --root . --workload loop-scalar --seed 0 > .plan_hash.b
	cmp .plan_hash.a .plan_hash.b && cat .plan_hash.a && rm -f .plan_hash.a .plan_hash.b

# First-order solver smoke: the single-lane and three-lane ADMM conform paths
# (one loop, numpy backend) must sit within the golden ledger against the
# dense_kkt oracle, and the IPM-vs-ADMM crossover bench must clear its
# throughput gate (ADMM beating IPM qp/s at B=256, tol=1e-3, numpy backend).
admm-smoke:
	$(REPRO) conform run --cases 8 --seed 0 --paths dense_kkt,admm_qp,batch_admm --out-dir conform/failures
	$(PYTEST) -q benchmarks/bench_qp_crossover.py -m "not slow"

# Solver-resilience smoke: a seeded admm_stall/illcond_qp campaign on the
# stiff Manipulator with an ADMM fleet must pass every recovery invariant --
# including stalls_rescued: each forced stall is answered by the rescue
# ladder (ADMM->IPM retry), never a silent bad plan.  Deadline budgeting is
# disabled (--deadline-ms 0) so rescues run to completion.  A stiff-robot
# conform replay then pins the equilibrated ADMM paths to the golden ledger.
resilience-smoke:
	mkdir -p conform/failures
	$(REPRO) chaos --robot manipulator --schedule resilience --qp-method admm --sessions 1 --ticks 10 --horizon 6 --deadline-ms 0 --seed 3 --trace conform/failures/resilience-trace.jsonl
	$(REPRO) conform run --cases 8 --seed 0 --robots Manipulator,Humanoid --paths dense_kkt,admm_qp,batch_admm --out-dir conform/failures

# Fused-codegen smoke: the symbolic suites (the kernels' content-addressed
# artifact keys hash the DAGs that interning and the build memo produce), the
# differential equivalence property suite, the artifact-store/linearizer
# suites, the conform linearize family against the interpreted oracle, and
# the fast-lane speedup gate (C kernel >= 2x interpreted on the Quadrotor
# N=30 linearize block, >= 5x under `-m slow`; both skip with a reason on a
# compiler-less host).
codegen-smoke:
	$(PYTEST) -q tests/test_symbolic_*.py tests/test_codegen_equivalence.py tests/test_codegen_store.py tests/test_codegen_linearizer.py
	$(REPRO) conform run --cases 8 --seed 0 --paths interp_linearize,codegen_linearize --out-dir conform/failures
	$(PYTEST) -q benchmarks/bench_linearize_codegen.py -m "not slow"

# Fast lane under coverage with the CI floor (requires pytest-cov, which the
# CI workflow installs; not part of the core dev dependencies).  The floor
# sits just below the measured fast-lane statement coverage (~91%) so any
# sizeable untested addition fails CI without flaking on small diffs.
test-cov:
	$(PYTEST) -q -m "not slow" --cov=repro --cov-fail-under=$(or $(COV_FLOOR),85)

# Lint: the batch hot path (linalg/qp/ipm/transcription) must route every
# array op through the backend seam -- bare numpy there pins work to the
# host and silently reintroduces per-iteration device transfers -- and the
# solver core (repro.batch, repro.firstorder) imports nothing from repro.mpc,
# with no function-level import between the two in either direction.
lint:
	python scripts/check_no_bare_numpy.py
	python scripts/check_layering.py
