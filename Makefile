# Convenience targets; `make ci` (alias `make check`) is what CI runs.

DUNE ?= dune

.PHONY: all build test check ci differential chaos thrash pipeline overload degrade join hot load bench clean

all: build

build:
	$(DUNE) build

test:
	$(DUNE) runtest

differential:
	$(DUNE) exec test/test_differential.exe

# Chaos suites: deterministic fault injection (seeds 11/23/47 fixed
# inside the suites) against the loader and the serving catalog —
# no crash, per-query isolation, quarantine/backoff transitions, and
# bit-identical Ok results versus a fault-free run.
chaos:
	$(DUNE) exec test/test_fault.exe
	$(DUNE) exec test/test_catalog_chaos.exe

# Cache-core suite: the LRU reference differential, qcheck properties
# of the unified bounded cache (cost conservation, pin-never-evicted,
# segment-size invariants), and the deterministic scan-resistance
# thrash trace (segmented vs plain LRU).
thrash:
	$(DUNE) exec test/test_bounded_cache.exe

# Serving-pipeline suites: the loader-pool future seam's unit tests,
# the pipeline differentials (blocking loads vs loader pools of 1/2/4
# load domains — bit-identical results, errors, stats and clock,
# including keyed chaos twins), the overlap check (4 load domains hold
# two loads in flight where the blocking twin holds one), and the
# loader-raises-mid-flight chaos twin.  All seeds are fixed, so this
# target is deterministic and reproducible in CI.
pipeline:
	$(DUNE) exec test/test_loader_pool.exe
	$(DUNE) exec test/test_parallel_differential.exe
	$(DUNE) exec test/test_catalog_chaos.exe

# Overload-protection suites: the admission controller's unit tests
# (deadline budgets, queue bound, circuit-breaker transitions, the
# planner's provability predicate) and the catalog-level overload
# differentials (infinite-budget bit-identity twins, deterministic
# shedding across load-domain counts 1/2/4, the degraded fallback tier,
# breaker persistence in the health file).  All seeds fixed,
# deterministic in CI.
overload:
	$(DUNE) exec test/test_admission.exe
	$(DUNE) exec test/test_catalog_overload.exe

# Degradation-ladder suites: the three-rung answer tier (Exact ->
# resident-sibling Fallback -> pinned Sketch), total-blackout coverage
# with bit-identity twins across load-domain counts 1/2/4, the pinned
# region's hard byte budget, chaos twins proving every injected fault
# lands on a rung, and the health file's unknown-directive skipping
# and old-header rejection.  The chaos suite rides along: it shares the fault
# machinery the ladder degrades over.  All seeds fixed, deterministic
# in CI.
degrade:
	$(DUNE) exec test/test_catalog_degrade.exe
	$(DUNE) exec test/test_catalog_chaos.exe

# Path-join suites: the join's unit cases and mask oracle (chain and
# edge masks, copied out of the join's scratch, chain masks inside
# edge masks, every joined row and frequency against the per-bit
# reference with chain pruning on and off, on three datasets), the
# pinned per-stage pruning counts, the bound on the minor words an
# uncached XMark join allocates beyond its result, and wide row sets;
# the plan suite's run-cache keys (two specs of the workloads share a
# key iff their shapes are equal); the paper's worked examples, the
# estimator's equations with their pinned derivations, and the
# batched-engine bit-identity suite.  Deterministic in CI.
join:
	$(DUNE) exec test/test_path_join.exe
	$(DUNE) exec test/test_plan.exe
	$(DUNE) exec test/test_paper_examples.exe
	$(DUNE) exec test/test_estimator.exe
	$(DUNE) exec test/test_engine_batch.exe

# Warm-serving-path suites: the in-place XPath scanner (every pool
# query parses back, pinned messages for malformed queries, fuzzing of
# random and mutated queries), the linear counter delta against its
# per-name reference, the order specs each plan carries, the catalog's
# per-group metric attribution and per-catalog stats, the
# batched-engine bit-identity suite, and the CLI's cram tests
# (malformed queries exit 1 with one line; the per-key
# `catalog estimate --metrics` tables; the `synopsis info` and
# `synopsis load` tables and their one-line refusal of a cut file).
# The qcheck seeds are fixed, so this target is deterministic in CI.
hot:
	$(DUNE) exec test/test_pattern.exe
	$(DUNE) exec test/test_xpath_parser.exe
	$(DUNE) exec test/test_counters.exe
	$(DUNE) exec test/test_plan.exe
	$(DUNE) exec test/test_catalog.exe
	$(DUNE) exec test/test_engine_batch.exe
	$(DUNE) build @test/cli_catalog_info @test/cli_query_errors @test/cli_catalog_estimate @test/cli_synopsis

# Load-path suites: the synopsis codec (round-trips, pinned checksums,
# the modeled bytes and histogram counts behind Tables 3-5 and Figures
# 9 and 11 pinned for built and loaded summaries, an assembled flat core
# equal to its decoded copy), the container's typed rejections with the
# cross-section checks and the exhaustive single-byte sweep, the
# summary's flat lookups against the histogram builders, and the
# catalog suite with the words one load leaves to promote.
# Deterministic in CI.
load:
	$(DUNE) exec test/test_codec.exe
	$(DUNE) exec test/test_synopsis_io.exe
	$(DUNE) exec test/test_summary.exe
	$(DUNE) exec test/test_catalog.exe

# The paper's evaluation (tables, figures, ablations and the serving
# experiment); its only timings are Tables 4-5's construction costs.
# Throughput is measured by the ledger (perfbench/README.md), not here.
bench:
	$(DUNE) exec bench/main.exe

# The whole gate: compile, then run every suite exactly once.  `dune
# runtest` covers the unit, differential, chaos, thrash, pipeline,
# overload, degradation and join suites (the topic targets
# above re-run subsets for local use).  Every seed is fixed, so the
# gate is deterministic.
check ci: build
	$(DUNE) runtest

clean:
	$(DUNE) clean
