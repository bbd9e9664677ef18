#!/bin/sh
# Throughput regression gate for `make ci`.
#
# Compares a freshly generated BENCH_engine.json against the committed
# baseline (HEAD's copy of the same file) and fails if any gated
# number dropped below THRESHOLD (default 0.70, i.e. a >30%
# regression).  Gated numbers:
#
#   - per-dataset scalar_cold_qps: what a query optimizer pays on
#     first contact — no plan cache, no join cache, every estimate
#     from scratch;
#   - resilience fault-free routed_qps: the result-typed serving path
#     at fault rate 0, so the fault-tolerance machinery cannot quietly
#     tax the common case (skipped while the committed baseline
#     predates the resilience section);
#   - parallel pool-of-1 batch_cold_qps_1d per dataset: a pool of one
#     must stay on the sequential fast path, so handing estimate_many
#     a pool cannot tax the single-core case (skipped while the
#     committed baseline predates the parallel section).
#
# Bit-identity is gated unconditionally, baseline or not: every
# *_bitwise_identical_* flag in the fresh file — including the parallel
# section's — must be true.  Parallel SPEEDUPS are reported but not
# gated against an absolute floor: host_cores in the fresh file records
# how many cores the run actually had, and on a single-core runner the
# honest speedup is ~1.0x.
#
# Schema handling: the fresh file must carry exactly the schema this
# gate was written for (xpest-bench-engine/8) — an unknown or newer
# schema fails loudly instead of silently gating the wrong fields.  An
# OLDER baseline schema only degrades: sections the baseline predates
# are reported without a comparison, as above.
#
# The fresh file's s1_thrash section is gated absolutely: the
# segmented policy's hit rate must come out strictly above plain
# LRU's at the same byte budget, or the scan-resistant residency
# claim is broken.
#
# The fresh file's s1_pipeline section is gated absolutely too: the
# pipelined cold-miss batch (4 load domains) must beat the blocking
# baseline under the injected loader latency, or overlapping loads
# with estimation buys nothing; its bit-identity flag is covered by
# the unconditional *_bitwise_identical_* sweep.
#
# The fresh file's s1_overload section is gated absolutely as well:
# under the saturating cold burst, the admission-controlled twin's
# worst batch must spend strictly fewer logical-clock ticks than the
# uncontrolled one (shed groups spend nothing), or the bounded
# worst-case claim is broken; the shed schedule's determinism flag
# across load-domain counts is covered by the same
# *_bitwise_identical_* sweep.
#
# The fresh file's s1_degrade section is gated absolutely and exactly:
# under the total storage blackout the sketch-tier answer rate must be
# 1.0 — every well-formed query answered from the always-resident
# fallback sketch, no typed error leaking through the degradation
# ladder; the answer schedule's determinism across load-domain counts
# is covered by the same *_bitwise_identical_* sweep.
#
# Usage: tools/check_bench_regression.sh [fresh.json] [threshold]

set -eu

FRESH="${1:-BENCH_engine.json}"
THRESHOLD="${2:-0.70}"

if [ ! -f "$FRESH" ]; then
    echo "check_bench_regression: $FRESH not found (run 'make bench-json' first)" >&2
    exit 2
fi

BASELINE="$(mktemp)"
trap 'rm -f "$BASELINE"' EXIT

if ! git show "HEAD:BENCH_engine.json" > "$BASELINE" 2>/dev/null; then
    echo "check_bench_regression: no committed BENCH_engine.json baseline; skipping" >&2
    exit 0
fi

python3 - "$BASELINE" "$FRESH" "$THRESHOLD" <<'EOF'
import json, sys

baseline_path, fresh_path = sys.argv[1], sys.argv[2]
threshold = float(sys.argv[3])
baseline = json.load(open(baseline_path))
fresh = json.load(open(fresh_path))

EXPECTED_SCHEMA = "xpest-bench-engine/8"
fresh_schema = fresh.get("schema")
if fresh_schema != EXPECTED_SCHEMA:
    print("check_bench_regression: fresh %s has schema %r but this gate "
          "understands only %r — update tools/check_bench_regression.sh "
          "alongside the bench emitter" % (fresh_path, fresh_schema,
                                           EXPECTED_SCHEMA))
    sys.exit(1)
baseline_schema = baseline.get("schema")
if baseline_schema != EXPECTED_SCHEMA:
    print("check_bench_regression: baseline schema %r predates %r; "
          "sections it lacks are reported without comparison"
          % (baseline_schema, EXPECTED_SCHEMA))

# fresh-only absolute gate, checked before any baseline skip: the
# segmented policy must strictly out-hit plain LRU on the thrash trace
thrash = fresh.get("s1_thrash")
if thrash is None:
    print("check_bench_regression: fresh file carries schema %s but no "
          "s1_thrash section" % EXPECTED_SCHEMA)
    sys.exit(1)
lru_rate = thrash.get("lru_hit_rate")
seg_rate = thrash.get("segmented_hit_rate")
if not (isinstance(lru_rate, (int, float))
        and isinstance(seg_rate, (int, float)) and seg_rate > lru_rate):
    print("  s1_thrash  segmented hit rate %r vs lru %r  SCAN RESISTANCE "
          "BROKEN (segmented must be strictly higher)" % (seg_rate, lru_rate))
    sys.exit(1)
print("  s1_thrash  segmented hit rate %.4f > lru %.4f at %d budget "
      "bytes  ok" % (seg_rate, lru_rate, thrash.get("budget_bytes", 0)))

# fresh-only absolute gate: the pipelined cold-miss batch must beat the
# blocking one under injected loader latency (the identity flag is
# covered by the unconditional bitwise sweep below)
pipeline = fresh.get("s1_pipeline")
if pipeline is None:
    print("check_bench_regression: fresh file carries schema %s but no "
          "s1_pipeline section" % EXPECTED_SCHEMA)
    sys.exit(1)
blocking_qps = pipeline.get("blocking_qps")
pipelined_qps = pipeline.get("pipelined_4_qps")
if not (isinstance(blocking_qps, (int, float))
        and isinstance(pipelined_qps, (int, float))
        and pipelined_qps > blocking_qps):
    print("  s1_pipeline  pipelined %r qps vs blocking %r  PIPELINE WIN "
          "BROKEN (pipelined must beat blocking under loader latency)"
          % (pipelined_qps, blocking_qps))
    sys.exit(1)
print("  s1_pipeline  pipelined %.1f qps > blocking %.1f at %.1f ms "
      "loader latency (%.2fx)  ok"
      % (pipelined_qps, blocking_qps, pipeline.get("loader_latency_ms", 0.0),
         pipelined_qps / max(blocking_qps, 1e-9)))

# fresh-only absolute gate: under the saturating burst the admission-
# controlled worst batch must spend strictly fewer logical ticks than
# the uncontrolled one (determinism of the shed schedule is covered by
# the unconditional bitwise sweep below)
overload = fresh.get("s1_overload")
if overload is None:
    print("check_bench_regression: fresh file carries schema %s but no "
          "s1_overload section" % EXPECTED_SCHEMA)
    sys.exit(1)
un_ticks = overload.get("uncontrolled_worst_batch_ticks")
ctrl_ticks = overload.get("controlled_worst_batch_ticks")
if not (isinstance(un_ticks, int) and isinstance(ctrl_ticks, int)
        and ctrl_ticks < un_ticks):
    print("  s1_overload  controlled worst batch %r ticks vs uncontrolled "
          "%r  OVERLOAD BOUND BROKEN (controlled must be strictly lower "
          "under the saturating burst)" % (ctrl_ticks, un_ticks))
    sys.exit(1)
print("  s1_overload  controlled worst batch %d ticks < uncontrolled %d "
      "(%d shed, %d served degraded)  ok"
      % (ctrl_ticks, un_ticks, overload.get("shed_queries", 0),
         overload.get("fallback_queries", 0)))

# fresh-only absolute gate: under the total blackout every well-formed
# query must be answered from the sketch tier — an answer rate below
# exactly 1.0 means the degradation ladder leaked a typed error
# (determinism of the answer schedule is covered by the unconditional
# bitwise sweep below)
degrade = fresh.get("s1_degrade")
if degrade is None:
    print("check_bench_regression: fresh file carries schema %s but no "
          "s1_degrade section" % EXPECTED_SCHEMA)
    sys.exit(1)
answer_rate = degrade.get("sketch_answer_rate")
if not (isinstance(answer_rate, (int, float)) and answer_rate == 1.0):
    print("  s1_degrade  sketch answer rate %r  LADDER LEAKED (must be "
          "exactly 1.0 under the total blackout)" % (answer_rate,))
    sys.exit(1)
print("  s1_degrade  sketch answer rate %.4f, mean relative error %.4f "
      "over %d queries/batch  ok"
      % (answer_rate, degrade.get("sketch_mean_relative_error", 0.0),
         degrade.get("routed_queries_per_batch", 0)))

if baseline.get("scale") != fresh.get("scale"):
    print("check_bench_regression: scale mismatch (baseline %s, fresh %s); "
          "skipping — regenerate the baseline at the CI scale"
          % (baseline.get("scale"), fresh.get("scale")))
    sys.exit(0)

base_qps = {d["dataset"]: d["scalar_cold_qps"] for d in baseline["datasets"]}
failed = False
for d in fresh["datasets"]:
    name = d["dataset"]
    new = d["scalar_cold_qps"]
    old = base_qps.get(name)
    if old is None or old <= 0:
        print("  %-10s cold %8.1f qps (no baseline)" % (name, new))
        continue
    ratio = new / old
    status = "ok" if ratio >= threshold else "REGRESSED"
    print("  %-10s cold %8.1f qps vs baseline %8.1f  (%.2fx, floor %.2fx)  %s"
          % (name, new, old, ratio, threshold, status))
    if ratio < threshold:
        failed = True

def fault_free_qps(doc):
    res = doc.get("resilience")
    if not res:
        return None
    for p in res.get("profiles", []):
        if p.get("fault_rate") == 0.0:
            return p.get("routed_qps")
    return None

fresh_ff = fault_free_qps(fresh)
if fresh_ff is not None:
    old_ff = fault_free_qps(baseline)
    if old_ff is None or old_ff <= 0:
        print("  %-10s      %8.1f qps (baseline predates resilience section)"
              % ("resilience", fresh_ff))
    else:
        ratio = fresh_ff / old_ff
        status = "ok" if ratio >= threshold else "REGRESSED"
        print("  %-10s      %8.1f qps vs baseline %8.1f  (%.2fx, floor %.2fx)  %s"
              % ("resilience", fresh_ff, old_ff, ratio, threshold, status))
        if ratio < threshold:
            failed = True

par = fresh.get("parallel")
if par:
    cores = par.get("host_cores", 0)
    base_par = baseline.get("parallel")
    base_1d = {}
    if base_par:
        base_1d = {d["dataset"]: d.get("batch_cold_qps_1d")
                   for d in base_par.get("datasets", [])}
    for d in par.get("datasets", []):
        name = d["dataset"]
        new = d.get("batch_cold_qps_1d")
        old = base_1d.get(name)
        if old is None or old <= 0:
            print("  %-10s pool-of-1 %7.1f qps (baseline predates parallel "
                  "section)" % (name, new))
        else:
            ratio = new / old
            status = "ok" if ratio >= threshold else "REGRESSED"
            print("  %-10s pool-of-1 %7.1f qps vs baseline %8.1f  "
                  "(%.2fx, floor %.2fx)  %s"
                  % (name, new, old, ratio, threshold, status))
            if ratio < threshold:
                failed = True
        print("  %-10s 4-domain speedup %.2fx on %d core(s)  [reported, "
              "not gated]" % (name, d.get("speedup_4d", 0.0), cores))
    cat = par.get("catalog", {})
    if cat:
        print("  %-10s routed 4-domain speedup %.2fx, plan-lock contention "
              "%d, compile races %d  [reported, not gated]"
              % ("catalog", cat.get("speedup_4d", 0.0),
                 cat.get("plan_lock_contention", 0),
                 cat.get("plan_compile_races", 0)))

def identity_flags(doc, path=""):
    if isinstance(doc, dict):
        for k, v in doc.items():
            here = "%s.%s" % (path, k) if path else k
            if "bitwise_identical" in k:
                yield here, v
            else:
                yield from identity_flags(v, here)
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from identity_flags(v, "%s[%d]" % (path, i))

for where, flag in identity_flags(fresh):
    if flag is not True:
        print("  BIT-IDENTITY VIOLATED: %s = %r" % (where, flag))
        failed = True

if failed:
    print("check_bench_regression: throughput regressed beyond "
          "the %.0f%% floor (or bit-identity violated)" % (100 * threshold))
    sys.exit(1)
print("check_bench_regression: throughput and bit-identity within bounds")
EOF
