#!/usr/bin/env python3
"""CI gate over the machine-readable benchmark outputs.

Fails (exit 1) when BENCH_E9.json, BENCH_E10.json, BENCH_E12.json,
BENCH_E13.json or BENCH_E14.json is missing or unparsable, when the E9
tick table was produced with the golden seed (42) but drifted from the
recorded golden values, when the E12 session run loses a gated
property (read speedup, zero-copy readers, determinism) or regresses
more than 30% below the committed ops/sec baseline in
scripts/e12_baseline.json, when the E13 publish sweep loses
snapshot-capture caching or its median publish latency stops being
sublinear in database size (baseline in scripts/e13_baseline.json), or
when the E14 sharded write path loses its >= 2.5x four-shard
critical-path scaling, any of its determinism invariants, or regresses
below the committed baseline in scripts/e14_baseline.json, or when the
E15 durability sweep loses a gated property (delta checkpoints
cheaper than full rebases and at most a quarter of one at the largest
size, warm restarts growing at most 3x over the object sweep,
recovered fingerprints matching the live engine) or its warm-restart
latency regresses past the ceiling in scripts/e15_baseline.json. The
modeled tick economy is the experiments' measurement instrument: a
deliberate cost-model change must update the golden table here *and*
in crates/bench/src/e9_performance.rs in the same commit.

BENCH_E16.json (the wire-protocol flood) is gated too: every op of
every client must get a typed committed reply, the server must count
zero panics, protocol errors and timeouts, and ops/sec must stay
above the floor derived from scripts/e16_baseline.json.

BENCH_E17.json (the time-travel history layer) is gated on its §15
contract: history reads off retained snapshots must stay zero-copy,
the retention ring must stay bounded by its policy, impact queries
against a pinned historical seq must not track installation size, and
merge-forward throughput must stay above the floor derived from
scripts/e17_baseline.json.

BENCH_E18.json (the compiled fml fast path) is gated on the §16
contract: every script workload must produce the identical value under
the bytecode VM and the tree-walking oracle, the shared cost table
must keep the fuel the two modes charge within a 3x band, the VM must
beat the tree-walker by at least 3x on the loop workloads (arith-loop
and closure — the committed floor), the end-to-end trigger batch must
verify firing and run faster under the VM, and VM-mode trigger
throughput must stay above the floor derived from
scripts/e18_baseline.json.

BENCH_E19.json (O(Δ) history retention) is gated on its contract: a
create-cell-version submit through a service that retains history must
cost at most 2x as much at the largest size as at the smallest (10x
more objects), with history actually retained at every size.
"""

import json
import os
import sys

GOLDEN_SEED = 42

# (gates, bytes, metadata, hybrid_read, fmcad_read, activity,
#  procedural, procedural_activity) — must match the golden test in
# crates/bench/src/e9_performance.rs.
E9_GOLDEN = [
    (10, 649, 0, 2947, 1149, 6243, 0, 3296),
    (50, 3216, 0, 10648, 3716, 19078, 0, 8430),
    (200, 12875, 0, 39625, 13375, 67373, 0, 27748),
    (800, 50705, 0, 153115, 51205, 256523, 0, 103408),
    (3200, 207885, 0, 624655, 208385, 1042423, 0, 417768),
]

E9_FIELDS = (
    "gates",
    "bytes",
    "metadata_ticks",
    "hybrid_read_ticks",
    "fmcad_read_ticks",
    "activity_ticks",
    "procedural_ticks",
    "procedural_activity_ticks",
)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        sys.exit(f"FAIL: {path} is missing (run `report --json` first)")
    except json.JSONDecodeError as e:
        sys.exit(f"FAIL: {path} is not valid JSON: {e}")


def baseline_metric(baseline, path, key):
    """A required numeric key of a committed baseline file.

    Baselines are hand-committed, so a missing key is a baseline-file
    bug, not a benchmark regression — fail with the file name and key
    instead of a bare KeyError traceback.
    """
    if key not in baseline:
        sys.exit(
            f"FAIL: baseline {path} lacks the key {key!r} "
            "(regenerate it from a golden-seed `report --json` run)"
        )
    value = baseline[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        sys.exit(f"FAIL: baseline {path} key {key!r} is not a number: {value!r}")
    return value


def main():
    e9 = load("BENCH_E9.json")
    e10 = load("BENCH_E10.json")

    for name, doc in (("BENCH_E9.json", e9), ("BENCH_E10.json", e10)):
        if "seed" not in doc or not doc.get("rows"):
            sys.exit(f"FAIL: {name} lacks a seed or has no rows")

    if e9["seed"] == GOLDEN_SEED:
        rows = [tuple(row[f] for f in E9_FIELDS) for row in e9["rows"]]
        if rows != E9_GOLDEN:
            for got, want in zip(rows, E9_GOLDEN):
                if got != want:
                    print(f"  drift at gates={got[0]}:", file=sys.stderr)
                    print(f"    got  {got}", file=sys.stderr)
                    print(f"    want {want}", file=sys.stderr)
            sys.exit("FAIL: E9 tick table drifted from the golden seed-42 values")
        print(f"OK: E9 golden tick table intact ({len(rows)} rows, seed {GOLDEN_SEED})")
    else:
        print(f"OK: E9 parsed ({len(e9['rows'])} rows, non-golden seed {e9['seed']})")

    engine = e10.get("engine", {})
    for field in ("applied", "ops", "failures"):
        if field not in engine:
            sys.exit(
                f"FAIL: BENCH_E10.json engine block lacks {field!r} "
                "(the observability counters regressed)"
            )
    print(
        "OK: E10 parsed ({} rows, seed {}, {} engine ops journaled, "
        "{} failure kind(s) counted)".format(
            len(e10["rows"]), e10["seed"], engine["applied"], len(engine["failures"])
        )
    )

    faults = engine.get("fault_injection")
    if faults is None:
        sys.exit("FAIL: BENCH_E10.json engine block lacks the E11 fault counters")
    for field in ("points_armed", "faults_fired", "recoveries_verified"):
        if field not in faults:
            sys.exit(f"FAIL: fault_injection block lacks {field!r}")
    if faults["recoveries_verified"] != faults["points_armed"]:
        sys.exit(
            "FAIL: E11 verified only {}/{} crash recoveries".format(
                faults["recoveries_verified"], faults["points_armed"]
            )
        )
    print(
        "OK: E11 fault injection ({} points armed, {} fired, {} recoveries verified)".format(
            faults["points_armed"], faults["faults_fired"], faults["recoveries_verified"]
        )
    )

    check_e12()
    check_e13()
    check_e14()
    check_e15()
    check_e16()
    check_e17()
    check_e18()
    check_e19()


E12_COUNTERS = (
    "writers",
    "readers",
    "total_reads",
    "single_session_read_ns",
    "concurrent_read_ns",
    "read_speedup",
    "read_ops_per_sec",
    "write_ops",
    "write_ns",
    "write_ops_per_sec",
    "batches",
    "max_batch",
    "mean_batch",
    "writer_waits",
    "reader_waits",
    "max_queue_depth",
    "reader_materializations",
    "deterministic_zero_copy",
    "deterministic_deep_copy",
)

# A fresh run must reach at least this fraction of the committed
# baseline's ops/sec — i.e. a >30% regression fails.
E12_REGRESSION_FLOOR = 0.7


def check_e12():
    e12 = load("BENCH_E12.json")
    sessions = e12.get("sessions")
    if "seed" not in e12 or not isinstance(sessions, dict):
        sys.exit("FAIL: BENCH_E12.json lacks a seed or a sessions block")
    for field in E12_COUNTERS:
        if field not in sessions:
            sys.exit(
                f"FAIL: BENCH_E12.json sessions block lacks {field!r} "
                "(the service counters regressed)"
            )

    if not sessions["deterministic_zero_copy"] or not sessions["deterministic_deep_copy"]:
        sys.exit("FAIL: E12 service run diverged from the serial engine fingerprint")
    if sessions["reader_materializations"] != 0:
        sys.exit(
            "FAIL: E12 reader sessions materialized {} bytes "
            "(snapshot reads must be zero-copy)".format(sessions["reader_materializations"])
        )
    if sessions["read_speedup"] <= 1.5:
        sys.exit(
            "FAIL: E12 concurrent read speedup {}x <= 1.5x over the "
            "single-session engine baseline".format(sessions["read_speedup"])
        )

    baseline_path = os.path.join(os.path.dirname(__file__), "e12_baseline.json")
    baseline = load(baseline_path)
    if e12["seed"] == baseline.get("seed"):
        for metric in ("read_ops_per_sec", "write_ops_per_sec"):
            recorded = baseline_metric(baseline, baseline_path, metric)
            floor = recorded * E12_REGRESSION_FLOOR
            if sessions[metric] < floor:
                sys.exit(
                    "FAIL: E12 {} regressed >30%: {:.0f} < floor {:.0f} "
                    "(baseline {:.0f}, see scripts/e12_baseline.json)".format(
                        metric, sessions[metric], floor, recorded
                    )
                )
        print(
            "OK: E12 sessions ({}w x {}r, {:.1f}x read speedup, {:.0f} read/s, "
            "{:.0f} write/s, {} batches, deterministic both modes)".format(
                sessions["writers"],
                sessions["readers"],
                sessions["read_speedup"],
                sessions["read_ops_per_sec"],
                sessions["write_ops_per_sec"],
                sessions["batches"],
            )
        )
    else:
        print(
            "OK: E12 parsed (non-golden seed {}, baseline comparison skipped)".format(
                e12["seed"]
            )
        )


E13_ROW_FIELDS = (
    "objects",
    "publish_p50_ns",
    "publish_p99_ns",
    "write_ops_per_sec",
    "capture_is_cached",
)

# The largest size has ~50x the objects of the smallest; an O(size)
# publish would grow its p50 by about that factor. The persistent
# store must keep the growth to a small multiple (noise allowance
# included — the capture itself is O(1)).
E13_MAX_P50_GROWTH = 8.0

# A fresh run's writer throughput must reach at least this fraction of
# the committed baseline in scripts/e13_baseline.json.
E13_REGRESSION_FLOOR = 0.5


def check_e13():
    e13 = load("BENCH_E13.json")
    rows = e13.get("rows")
    if "seed" not in e13 or not rows:
        sys.exit("FAIL: BENCH_E13.json lacks a seed or has no rows")
    for row in rows:
        for field in E13_ROW_FIELDS:
            if field not in row:
                sys.exit(
                    f"FAIL: BENCH_E13.json row lacks {field!r} "
                    "(the publish counters regressed)"
                )
        if not row["capture_is_cached"]:
            sys.exit(
                "FAIL: E13 repeat snapshot() at {} objects was not pointer-equal "
                "(the engine snapshot cache regressed)".format(row["objects"])
            )

    first, last = rows[0], rows[-1]
    size_growth = last["objects"] / max(first["objects"], 1)
    p50_growth = last["publish_p50_ns"] / max(first["publish_p50_ns"], 1)
    if p50_growth > E13_MAX_P50_GROWTH:
        sys.exit(
            "FAIL: E13 publish p50 grew {:.1f}x over a {:.0f}x object growth "
            "(> {:.0f}x cap — snapshot publication is no longer O(Δ))".format(
                p50_growth, size_growth, E13_MAX_P50_GROWTH
            )
        )

    baseline_path = os.path.join(os.path.dirname(__file__), "e13_baseline.json")
    baseline = load(baseline_path)
    if e13["seed"] == baseline.get("seed"):
        recorded = baseline_metric(baseline, baseline_path, "write_ops_per_sec")
        floor = recorded * E13_REGRESSION_FLOOR
        worst = min(row["write_ops_per_sec"] for row in rows)
        if worst < floor:
            sys.exit(
                "FAIL: E13 writer throughput regressed >50%: {:.0f} < floor {:.0f} "
                "(baseline {:.0f}, see scripts/e13_baseline.json)".format(
                    worst, floor, recorded
                )
            )
        print(
            "OK: E13 publish sweep ({} sizes, p50 grew {:.1f}x over {:.0f}x objects, "
            "captures cached, worst writer {:.0f} ops/s)".format(
                len(rows), p50_growth, size_growth, worst
            )
        )
    else:
        print(
            "OK: E13 parsed (non-golden seed {}, baseline comparison skipped)".format(
                e13["seed"]
            )
        )


E14_ROW_FIELDS = (
    "shards",
    "write_ops",
    "wall_ns",
    "max_lane_busy_ns",
    "router_ns",
    "critical_path_ns",
    "critical_ops_per_sec",
    "wall_ops_per_sec",
    "per_shard_ops",
    "batches",
    "writer_waits",
)

E14_SHARD_COUNTS = (1, 2, 4, 8)

# Four shards must carry at least this multiple of the one-shard
# critical-path throughput (matches E14Report::holds in
# crates/bench/src/e14_shards.rs).
E14_MIN_WRITE_SCALING = 2.5

# Composed four-shard view reads may cost at most 2x the single-shard
# view (ratio floor 0.5).
E14_MIN_READ_RATIO = 0.5

# A fresh run's four-shard critical-path throughput must reach at
# least this fraction of the committed baseline in
# scripts/e14_baseline.json.
E14_REGRESSION_FLOOR = 0.5


def check_e14():
    e14 = load("BENCH_E14.json")
    rows = e14.get("rows")
    if "seed" not in e14 or not rows:
        sys.exit("FAIL: BENCH_E14.json lacks a seed or has no rows")

    by_shards = {}
    for row in rows:
        for field in E14_ROW_FIELDS:
            if field not in row:
                sys.exit(
                    f"FAIL: BENCH_E14.json row lacks {field!r} "
                    "(the per-shard lane counters regressed)"
                )
        if len(row["per_shard_ops"]) != row["shards"]:
            sys.exit(
                "FAIL: E14 row at {} shards reports {} per-shard counters".format(
                    row["shards"], len(row["per_shard_ops"])
                )
            )
        if sum(row["per_shard_ops"]) != row["write_ops"]:
            sys.exit(
                "FAIL: E14 row at {} shards lost ops: lanes sum to {} of {}".format(
                    row["shards"], sum(row["per_shard_ops"]), row["write_ops"]
                )
            )
        by_shards[row["shards"]] = row
    for shards in E14_SHARD_COUNTS:
        if shards not in by_shards:
            sys.exit(f"FAIL: BENCH_E14.json has no row for {shards} shard(s)")

    for invariant in ("tick_table_invariant", "event_stream_invariant", "recovery_roundtrip"):
        if e14.get(invariant) is not True:
            sys.exit(
                f"FAIL: E14 {invariant} is not true — the sharded write "
                "path is no longer deterministic across shard counts"
            )
    if e14.get("reader_materializations") != 0:
        sys.exit(
            "FAIL: E14 composed-view readers materialized {} bytes "
            "(sharded snapshot reads must stay zero-copy)".format(
                e14.get("reader_materializations")
            )
        )

    scaling = by_shards[4]["critical_ops_per_sec"] / max(
        by_shards[1]["critical_ops_per_sec"], 1
    )
    if scaling < E14_MIN_WRITE_SCALING:
        sys.exit(
            "FAIL: E14 four-shard critical-path scaling {:.2f}x < {:.1f}x "
            "(the partitioned write path stopped scaling)".format(
                scaling, E14_MIN_WRITE_SCALING
            )
        )
    read_ratio = e14.get("read_ratio", 0)
    if read_ratio < E14_MIN_READ_RATIO:
        sys.exit(
            "FAIL: E14 four-shard view reads cost {:.2f}x the single-shard "
            "view (ratio floor {:.1f})".format(read_ratio, E14_MIN_READ_RATIO)
        )

    baseline_path = os.path.join(os.path.dirname(__file__), "e14_baseline.json")
    baseline = load(baseline_path)
    if e14["seed"] == baseline.get("seed"):
        recorded = baseline_metric(baseline, baseline_path, "critical_ops_per_sec_4_shards")
        floor = recorded * E14_REGRESSION_FLOOR
        measured = by_shards[4]["critical_ops_per_sec"]
        if measured < floor:
            sys.exit(
                "FAIL: E14 four-shard throughput regressed >50%: {:.0f} < floor {:.0f} "
                "(baseline {:.0f}, see scripts/e14_baseline.json)".format(
                    measured, floor, recorded
                )
            )
        print(
            "OK: E14 shards ({} counts, {:.2f}x four-shard scaling, "
            "{:.0f} critical ops/s at 4 shards, read ratio {:.2f}, "
            "all invariants hold)".format(
                len(rows), scaling, measured, read_ratio
            )
        )
    else:
        print(
            "OK: E14 parsed (non-golden seed {}, baseline comparison skipped)".format(
                e14["seed"]
            )
        )


E15_ROW_FIELDS = (
    "objects",
    "full_p50_ns",
    "delta_p50_ns",
    "delta_ratio",
    "restart_p50_ns",
    "restart_replayed",
    "recovered_matches",
)

# The largest size replays the same fixed 200-op delta as the
# smallest, so an O(Δ) warm restart stays near-flat; 3x absorbs
# timing noise (matches E15Report::holds in
# crates/bench/src/e15_durability.rs).
E15_MAX_RESTART_GROWTH = 3.0

# At the largest size a delta checkpoint may cost at most a quarter
# of a full-image rebase.
E15_MAX_DELTA_RATIO = 0.25

# At every size (including the smallest, where fixed per-commit
# overhead dominates both paths) a delta checkpoint may never
# meaningfully exceed a full rebase.
E15_MAX_ROW_DELTA_RATIO = 1.5

# A fresh run's warm-restart p50 at the largest size may be at most
# this multiple of the committed baseline in scripts/e15_baseline.json
# (latency metric: larger is worse, so the gate is a ceiling).
E15_REGRESSION_CEILING = 2.0


def check_e15():
    e15 = load("BENCH_E15.json")
    rows = e15.get("rows")
    if "seed" not in e15 or not rows:
        sys.exit("FAIL: BENCH_E15.json lacks a seed or has no rows")
    for row in rows:
        for field in E15_ROW_FIELDS:
            if field not in row:
                sys.exit(
                    f"FAIL: BENCH_E15.json row lacks {field!r} "
                    "(the durability counters regressed)"
                )
        if not row["recovered_matches"]:
            sys.exit(
                "FAIL: E15 warm restart at {} objects diverged from the live "
                "engine fingerprint".format(row["objects"])
            )
        if row["delta_ratio"] > E15_MAX_ROW_DELTA_RATIO:
            sys.exit(
                "FAIL: E15 delta checkpoint at {} objects cost {} ns, "
                "{:.0f}% of the full rebase's {} ns (> {:.0f}% sanity cap)".format(
                    row["objects"],
                    row["delta_p50_ns"],
                    row["delta_ratio"] * 100,
                    row["full_p50_ns"],
                    E15_MAX_ROW_DELTA_RATIO * 100,
                )
            )

    first, last = rows[0], rows[-1]
    size_growth = last["objects"] / max(first["objects"], 1)
    restart_growth = last["restart_p50_ns"] / max(first["restart_p50_ns"], 1)
    if restart_growth > E15_MAX_RESTART_GROWTH:
        sys.exit(
            "FAIL: E15 warm restart p50 grew {:.2f}x over a {:.0f}x object "
            "growth (> {:.1f}x cap — restart is no longer O(Δ))".format(
                restart_growth, size_growth, E15_MAX_RESTART_GROWTH
            )
        )
    if last["delta_ratio"] > E15_MAX_DELTA_RATIO:
        sys.exit(
            "FAIL: E15 delta checkpoint at {} objects costs {:.1f}% of a full "
            "rebase (> {:.0f}% cap — checkpointing is no longer O(Δ))".format(
                last["objects"],
                last["delta_ratio"] * 100,
                E15_MAX_DELTA_RATIO * 100,
            )
        )

    baseline_path = os.path.join(os.path.dirname(__file__), "e15_baseline.json")
    baseline = load(baseline_path)
    if e15["seed"] == baseline.get("seed"):
        recorded = baseline_metric(baseline, baseline_path, "restart_p50_ns_largest")
        ceiling = recorded * E15_REGRESSION_CEILING
        measured = last["restart_p50_ns"]
        if measured > ceiling:
            sys.exit(
                "FAIL: E15 warm-restart latency regressed >2x: {:.0f} ns > "
                "ceiling {:.0f} ns (baseline {:.0f}, see "
                "scripts/e15_baseline.json)".format(measured, ceiling, recorded)
            )
        print(
            "OK: E15 durability ({} sizes, restart grew {:.2f}x over {:.0f}x "
            "objects, final delta/full {:.1f}%, restart p50 {:.0f} ns at the "
            "largest size, fingerprints match)".format(
                len(rows),
                restart_growth,
                size_growth,
                last["delta_ratio"] * 100,
                measured,
            )
        )
    else:
        print(
            "OK: E15 parsed (non-golden seed {}, baseline comparison skipped)".format(
                e15["seed"]
            )
        )


E16_COUNTERS = (
    "clients",
    "ops_per_client",
    "total_ops",
    "committed",
    "failed",
    "busy",
    "wall_ns",
    "ops_per_sec",
    "p50_ns",
    "p99_ns",
    "max_ns",
    "handshakes",
    "frames_in",
    "frames_out",
    "timeouts",
    "protocol_errors",
    "panics",
    "max_queue_depth",
    "max_batch",
)

# The golden run must keep the paper-scale department on the wire.
E16_MIN_CLIENTS = 1000

# A fresh run must reach at least this fraction of the committed
# baseline's ops/sec — the flood is heavily scheduler-bound, so the
# floor is generous (a >70% regression fails).
E16_REGRESSION_FLOOR = 0.3


def check_e16():
    e16 = load("BENCH_E16.json")
    net = e16.get("net")
    if "seed" not in e16 or not isinstance(net, dict):
        sys.exit("FAIL: BENCH_E16.json lacks a seed or a net block")
    for field in E16_COUNTERS:
        if field not in net:
            sys.exit(
                f"FAIL: BENCH_E16.json net block lacks {field!r} "
                "(the wire-server counters regressed)"
            )

    if net["clients"] < E16_MIN_CLIENTS:
        sys.exit(
            "FAIL: E16 ran only {} concurrent clients (< {})".format(
                net["clients"], E16_MIN_CLIENTS
            )
        )
    if net["committed"] != net["total_ops"]:
        sys.exit(
            "FAIL: E16 committed {}/{} ops ({} failed, {} busy) — the "
            "conflict-free flood must commit everything".format(
                net["committed"], net["total_ops"], net["failed"], net["busy"]
            )
        )
    for counter in ("panics", "protocol_errors", "timeouts"):
        if net[counter] != 0:
            sys.exit(
                "FAIL: E16 server counted {} {} under a well-formed flood".format(
                    net[counter], counter
                )
            )
    if net["handshakes"] < net["clients"]:
        sys.exit(
            "FAIL: E16 completed only {}/{} handshakes".format(
                net["handshakes"], net["clients"]
            )
        )
    if net["p50_ns"] > net["p99_ns"]:
        sys.exit("FAIL: E16 latency percentiles are inconsistent (p50 > p99)")
    if net["max_queue_depth"] < 1:
        sys.exit(
            "FAIL: E16 write-queue high-water mark is 0 — the queue-depth "
            "gauge regressed"
        )

    baseline_path = os.path.join(os.path.dirname(__file__), "e16_baseline.json")
    baseline = load(baseline_path)
    if e16["seed"] == baseline.get("seed"):
        recorded = baseline_metric(baseline, baseline_path, "ops_per_sec")
        floor = recorded * E16_REGRESSION_FLOOR
        if net["ops_per_sec"] < floor:
            sys.exit(
                "FAIL: E16 throughput regressed >70%: {:.0f} < floor {:.0f} "
                "(baseline {:.0f}, see scripts/e16_baseline.json)".format(
                    net["ops_per_sec"], floor, recorded
                )
            )
        print(
            "OK: E16 wire flood ({} clients x {} ops, {:.0f} ops/s, "
            "p99 {:.1f}ms, queue peaked at {}, 0 panics)".format(
                net["clients"],
                net["ops_per_client"],
                net["ops_per_sec"],
                net["p99_ns"] / 1e6,
                net["max_queue_depth"],
            )
        )
    else:
        print(
            "OK: E16 parsed (non-golden seed {}, baseline comparison skipped)".format(
                e16["seed"]
            )
        )


E17_ROW_FIELDS = (
    "objects",
    "impact_p50_ns",
    "impact_p99_ns",
    "merge_ops_per_sec",
    "merges",
    "zero_copy",
    "retained",
    "retention_bounded",
)

# The largest size has ~10x the objects of the smallest; an impact
# query that walked the installation would grow its p50 by about that
# factor. The query walks one cellview's impact graph, so the growth
# must stay a small multiple (matches E17Report::holds in
# crates/bench/src/e17_history.rs: growth < size_growth / 2).
E17_MAX_IMPACT_GROWTH = 5.0

# A fresh run's merge-forward throughput must reach at least this
# fraction of the committed baseline in scripts/e17_baseline.json.
E17_REGRESSION_FLOOR = 0.5


def check_e17():
    e17 = load("BENCH_E17.json")
    rows = e17.get("rows")
    if "seed" not in e17 or not rows:
        sys.exit("FAIL: BENCH_E17.json lacks a seed or has no rows")
    for row in rows:
        for field in E17_ROW_FIELDS:
            if field not in row:
                sys.exit(
                    f"FAIL: BENCH_E17.json row lacks {field!r} "
                    "(the history-layer counters regressed)"
                )
        if not row["zero_copy"]:
            sys.exit(
                "FAIL: E17 history reads at {} objects copied payload bytes "
                "(retained-snapshot reads must be zero-copy)".format(row["objects"])
            )
        if not row["retention_bounded"]:
            sys.exit(
                "FAIL: E17 retention ring at {} objects held {} seqs "
                "(the LastN policy stopped bounding the ring)".format(
                    row["objects"], row["retained"]
                )
            )
        if row["merges"] < 1:
            sys.exit("FAIL: E17 measured no clean merge-forward cycles")

    first, last = rows[0], rows[-1]
    size_growth = last["objects"] / max(first["objects"], 1)
    impact_growth = last["impact_p50_ns"] / max(first["impact_p50_ns"], 1)
    if impact_growth > E17_MAX_IMPACT_GROWTH:
        sys.exit(
            "FAIL: E17 impact p50 grew {:.1f}x over a {:.0f}x object growth "
            "(> {:.0f}x cap — impact queries track the installation again)".format(
                impact_growth, size_growth, E17_MAX_IMPACT_GROWTH
            )
        )

    baseline_path = os.path.join(os.path.dirname(__file__), "e17_baseline.json")
    baseline = load(baseline_path)
    if e17["seed"] == baseline.get("seed"):
        recorded = baseline_metric(baseline, baseline_path, "merge_ops_per_sec")
        floor = recorded * E17_REGRESSION_FLOOR
        worst = min(row["merge_ops_per_sec"] for row in rows)
        if worst < floor:
            sys.exit(
                "FAIL: E17 merge-forward throughput regressed >50%: {:.0f} < "
                "floor {:.0f} (baseline {:.0f}, see scripts/e17_baseline.json)".format(
                    worst, floor, recorded
                )
            )
        print(
            "OK: E17 history ({} sizes, impact p50 grew {:.1f}x over {:.0f}x objects, "
            "worst merge rate {:.0f}/s, reads zero-copy, ring bounded)".format(
                len(rows), impact_growth, size_growth, worst
            )
        )
    else:
        print(
            "OK: E17 parsed (non-golden seed {}, baseline comparison skipped)".format(
                e17["seed"]
            )
        )


E18_ROW_FIELDS = (
    "workload",
    "reps",
    "vm_ns",
    "tw_ns",
    "speedup",
    "vm_fuel",
    "tw_fuel",
    "fuel_ratio",
    "agree",
)

E18_TRIGGER_FIELDS = (
    "ops",
    "vm_ns",
    "tw_ns",
    "vm_ops_per_sec",
    "tw_ops_per_sec",
    "speedup",
    "verified",
)

E18_WORKLOADS = ("arith-loop", "closure", "string")

# The committed floor of the §16 redesign: on the loop workloads the
# VM must deliver at least 3x the tree-walker's throughput. The
# speedup is a same-machine ratio, so the floor applies at any seed.
E18_LOOP_WORKLOADS = ("arith-loop", "closure")
E18_MIN_LOOP_SPEEDUP = 3.0

# The end-to-end trigger batch carries Service-layer overhead that is
# identical in both modes, so its floor is lower.
E18_MIN_TRIGGER_SPEEDUP = 1.2

# Both modes charge fuel through the shared cost table; the per-call
# totals may differ only by dispatch shape, never by a model change.
E18_MAX_FUEL_RATIO = 3.0

# A fresh run's VM-mode trigger throughput must reach at least this
# fraction of the committed baseline (the batch runs through the full
# Service write path, so the floor is generous).
E18_REGRESSION_FLOOR = 0.3


def check_e18():
    e18 = load("BENCH_E18.json")
    rows = e18.get("rows")
    trigger = e18.get("trigger")
    if "seed" not in e18 or not rows or not isinstance(trigger, dict):
        sys.exit("FAIL: BENCH_E18.json lacks a seed, rows or a trigger block")

    by_name = {}
    for row in rows:
        for field in E18_ROW_FIELDS:
            if field not in row:
                sys.exit(
                    f"FAIL: BENCH_E18.json row lacks {field!r} "
                    "(the VM benchmark counters regressed)"
                )
        if not row["agree"]:
            sys.exit(
                "FAIL: E18 workload {!r} produced different values under "
                "the VM and the tree-walker".format(row["workload"])
            )
        ratio = row["fuel_ratio"]
        if ratio > E18_MAX_FUEL_RATIO or ratio < 1.0 / E18_MAX_FUEL_RATIO:
            sys.exit(
                "FAIL: E18 workload {!r} fuel ratio {:.2f} left the "
                "[1/{:.0f}, {:.0f}] band — the shared cost table diverged "
                "between modes".format(
                    row["workload"], ratio, E18_MAX_FUEL_RATIO, E18_MAX_FUEL_RATIO
                )
            )
        by_name[row["workload"]] = row
    for name in E18_WORKLOADS:
        if name not in by_name:
            sys.exit(f"FAIL: BENCH_E18.json has no row for workload {name!r}")

    for name in E18_LOOP_WORKLOADS:
        speedup = by_name[name]["speedup"]
        if speedup < E18_MIN_LOOP_SPEEDUP:
            sys.exit(
                "FAIL: E18 VM speedup on {!r} is {:.2f}x < the committed "
                "{:.1f}x floor (the compiled fast path regressed)".format(
                    name, speedup, E18_MIN_LOOP_SPEEDUP
                )
            )

    for field in E18_TRIGGER_FIELDS:
        if field not in trigger:
            sys.exit(
                f"FAIL: BENCH_E18.json trigger block lacks {field!r} "
                "(the trigger-batch counters regressed)"
            )
    if not trigger["verified"]:
        sys.exit(
            "FAIL: E18 trigger batch did not verify that the registered "
            "trigger fires"
        )
    if trigger["speedup"] < E18_MIN_TRIGGER_SPEEDUP:
        sys.exit(
            "FAIL: E18 trigger-batch speedup {:.2f}x < {:.1f}x — compiled "
            "triggers stopped being the fast path".format(
                trigger["speedup"], E18_MIN_TRIGGER_SPEEDUP
            )
        )
    if e18.get("holds") is not True:
        sys.exit("FAIL: E18 reports its own gated properties as lost")

    baseline_path = os.path.join(os.path.dirname(__file__), "e18_baseline.json")
    baseline = load(baseline_path)
    if e18["seed"] == baseline.get("seed"):
        recorded = baseline_metric(baseline, baseline_path, "trigger_vm_ops_per_sec")
        floor = recorded * E18_REGRESSION_FLOOR
        if trigger["vm_ops_per_sec"] < floor:
            sys.exit(
                "FAIL: E18 VM trigger throughput regressed >70%: {:.0f} < "
                "floor {:.0f} (baseline {:.0f}, see scripts/e18_baseline.json)".format(
                    trigger["vm_ops_per_sec"], floor, recorded
                )
            )
        print(
            "OK: E18 fml fast path ({} workloads agree, loop speedups "
            "{:.1f}x/{:.1f}x >= {:.1f}x floor, trigger batch {:.1f}x at "
            "{:.0f} ops/s, fuel in band)".format(
                len(rows),
                by_name["arith-loop"]["speedup"],
                by_name["closure"]["speedup"],
                E18_MIN_LOOP_SPEEDUP,
                trigger["speedup"],
                trigger["vm_ops_per_sec"],
            )
        )
    else:
        print(
            "OK: E18 parsed (non-golden seed {}, baseline comparison skipped)".format(
                e18["seed"]
            )
        )


E19_ROW_FIELDS = (
    "objects",
    "hub_members",
    "cv_p50_ns",
    "cv_p99_ns",
    "samples",
    "retained",
)

# The committed ceiling on create-cell-version p50 growth over the E19
# object sweep (10k -> 100k objects). Copying whole hub link sets or
# fixed-depth trie spines under retention grows it ~16x.
E19_MAX_P50_GROWTH = 2.0


def check_e19():
    e19 = load("BENCH_E19.json")
    rows = e19.get("rows")
    if "seed" not in e19 or not rows or len(rows) < 2:
        sys.exit("FAIL: BENCH_E19.json lacks a seed or has fewer than two rows")
    for row in rows:
        for field in E19_ROW_FIELDS:
            if field not in row:
                sys.exit(f"FAIL: BENCH_E19.json row lacks {field!r}")
        if row["retained"] < 2:
            sys.exit(
                "FAIL: E19 at {} objects retained {} snapshot(s) — the sweep "
                "must run with history retained".format(row["objects"], row["retained"])
            )
    first, last = rows[0], rows[-1]
    size_growth = last["objects"] / max(first["objects"], 1)
    p50_growth = last["cv_p50_ns"] / max(first["cv_p50_ns"], 1)
    if size_growth < 5:
        sys.exit(
            "FAIL: E19 swept only a {:.1f}x object growth; the gate needs a "
            "wide sweep".format(size_growth)
        )
    if p50_growth > E19_MAX_P50_GROWTH:
        sys.exit(
            "FAIL: E19 create-cell-version p50 grew {:.2f}x over a {:.0f}x object "
            "growth (> {:.1f}x cap — a retained snapshot costs more than its "
            "write touched)".format(p50_growth, size_growth, E19_MAX_P50_GROWTH)
        )
    if e19.get("holds") is not True:
        sys.exit("FAIL: E19 reports its own gated properties as lost")
    print(
        "OK: E19 retention sweep (create-cell-version p50 {} -> {} ns, grew "
        "{:.2f}x over {:.0f}x objects, {} snapshots retained)".format(
            first["cv_p50_ns"], last["cv_p50_ns"], p50_growth, size_growth, last["retained"]
        )
    )


if __name__ == "__main__":
    main()
