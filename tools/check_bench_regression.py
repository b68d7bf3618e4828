#!/usr/bin/env python3
"""Compare a fresh bench JSON against a committed baseline.

Supports the perf bench kinds (the "bench" field of the JSON):
``perf_pipeline`` (BENCH_pipeline.json), ``perf_archive``
(BENCH_archive.json) and ``perf_server`` (BENCH_server.json). The
two files must be of the same kind and produced with the same bench
config; mismatches are usage errors (exit 2), not regressions.

Two classes of fields are checked:

* HARD fields (exit 1 on violation): correctness flags and output
  counts that are deterministic for a fixed bench config — the
  parallel==sequential flag, per-thread payload/parity/cell totals,
  scrub repair counts, and the deterministic telemetry counters. A
  relative tolerance (--count-tolerance, default 2%) absorbs
  cross-platform libm jitter while still catching real behaviour
  changes.

* SOFT fields (warn, exit 0): wall-clock timings, throughput and
  speedups, which drift with runner load. --strict-timing promotes
  them to hard failures (--timing-tolerance, default 100% = 2x).

Malformed input never raises: a missing section or key in either
file is reported with a clear message (hard failure when the current
run lost something the baseline has; exit 2 when the file cannot be
interpreted at all).

Exit codes: 0 ok (possibly with warnings), 1 regression, 2 usage or
input error.

Regenerating a baseline after an intentional perf/behaviour change
(see EXPERIMENTS.md):

    VIDEOAPP_BENCH_SCALE=0.15 VIDEOAPP_BENCH_RUNS=2 \\
    VIDEOAPP_BENCH_VIDEOS=1 VIDEOAPP_THREADS=4 \\
    VIDEOAPP_BENCH_OUT=bench/baselines/BENCH_pipeline.baseline.json \\
    ./build/bench/perf_pipeline

and likewise BENCH_archive.baseline.json with ./build/bench/perf_archive.
"""

import argparse
import json
import sys

# Telemetry counters that are deterministic for a fixed bench config
# and therefore hard-checked, per bench kind. Scheduling-dependent
# counters (parallel.loops_* etc.) and everything under
# timers/histograms are soft: they describe how the work was
# executed, not what it computed. Counters a bench never touches
# stay 0 on both sides. perf_server hard-checks no counters: its
# telemetry (cache hit/miss splits, archive reads behind the cache,
# queue depths) depends on request interleaving under real
# concurrency — the schedule-derived response counts in its thread
# rows are the deterministic contract instead.
_STORAGE_HARD_COUNTERS = [
    "pipeline.videos_prepared",
    "pipeline.streams_stored",
    "storage.bch.blocks_decoded",
    "storage.bch.blocks_clean",
    "storage.bch.bits_corrected",
    "storage.bch.blocks_uncorrectable",
    "storage.channel.blocks_stored",
    "storage.channel.blocks_miscorrected",
    "storage.model.streams_stored",
    "storage.model.bits_damaged",
    "storage.cells.blocks_encoded",
    "sim.trials",
    "sim.bits_flipped",
    "archive.puts",
    "archive.gets",
    "archive.scrubs",
    "archive.streams_encoded",
    "archive.read.blocks_corrected",
    "archive.read.blocks_uncorrectable",
    "archive.scrub.blocks_read",
    "archive.scrub.blocks_rewritten",
    "archive.scrub.bits_corrected",
    "archive.scrub.blocks_uncorrectable",
    "archive.scrub.streams_miscorrected",
]

HARD_COUNTERS = {
    "perf_pipeline": _STORAGE_HARD_COUNTERS,
    "perf_archive": _STORAGE_HARD_COUNTERS,
    "perf_server": [],
}

# Per-kind row schemas: (hard keys, soft timing keys) of each entry
# in the "threads" array. For perf_server "threads" is the
# concurrent connection count and the hard keys are response counts
# fixed by the bench's per-client op schedule; the latency
# percentiles are soft like any other timing.
THREAD_ROW_KEYS = {
    "perf_pipeline": (
        ("payload_bits", "parity_bits"),
        ("prepare_s", "store_retrieve_s", "prepare_mb_per_s",
         "prepare_frames_per_s", "store_retrieve_mb_per_s"),
    ),
    "perf_archive": (
        ("payload_bytes", "cell_bytes", "scrub_blocks_rewritten",
         "scrub_bits_corrected"),
        ("put_s", "get_s", "scrub_s"),
    ),
    "perf_server": (
        ("gets_ok", "puts_ok", "scrubs_ok", "not_found",
         "responses_lost"),
        ("wall_s", "ops_per_s", "get_p50_us", "get_p99_us"),
    ),
}

# Additional per-kind row arrays beyond "threads", with their own
# (hard, soft) key schemas. perf_server's "skewed" section is the
# hot-key load (90% of GETs on one GOP): every op is a GET of a
# stored video, so gets_ok/responses_lost are schedule-determined
# and hard; throughput and latency drift with the runner. The
# "cluster" section only exists for `perf_server --shards N` runs
# (rows are keyed by shard count in their "threads" field); a run
# without the flag simply omits it, so the section is checked only
# when one of the two files carries it.
EXTRA_ROW_SECTIONS = {
    "perf_server": {
        "skewed": (
            ("gets_ok", "responses_lost"),
            ("wall_s", "ops_per_s", "get_p50_us", "get_p99_us"),
        ),
        "cluster": (
            ("gets_ok", "not_found", "responses_lost"),
            ("wall_s", "ops_per_s", "get_p50_us", "get_p99_us"),
        ),
        # The resize section only exists for `perf_server --shards N
        # --resize` runs (one row keyed by the post-transition shard
        # count). The video totals are fixed by the bench schedule
        # and the ring, so they are hard; the concurrent read
        # tallies and the transition wall time drift with the
        # runner. Zero lost videos is additionally enforced by the
        # resize_no_lost_videos flag below.
        "resize": (
            ("videos_total", "videos_moved", "videos_lost"),
            ("wall_s", "reads_ok", "read_gaps"),
        ),
        # Shed rows are keyed by shed threshold (0 = off, 1 = on) in
        # their "threads" field. Only the schedule-fixed totals are
        # hard; the full/degraded fidelity split depends on queue
        # timing under load and drifts with the runner, so it is
        # checked like a timing.
        "shed": (
            ("answered", "responses_lost"),
            ("wall_s", "ops_per_s", "get_p50_us", "get_p99_us",
             "full_p99_us", "full_fidelity", "degraded",
             "streams_shed"),
        ),
        # Cold single-GOP GETs, keyed by video length in GOPs in
        # their "threads" field. Latency drifts with the runner and
        # frames per GET comes from telemetry, so both are soft.
        "cold_gop": (
            (),
            ("get_p50_us", "frames_per_get"),
        ),
    },
}

# Per-kind correctness flags that must be true in the current run.
CORRECTNESS_FLAGS = {
    "perf_pipeline": ("parallel_equals_sequential",),
    "perf_archive": ("parallel_equals_sequential",
                     "round_trip_exact"),
    "perf_server": ("responses_all_accounted", "wire_matches_local",
                    "cache_hit_skips_decode",
                    "backpressure_returns_retry",
                    "coalescing_single_flight",
                    "shed_disabled_never_degrades",
                    "shed_under_pressure_degrades_tail"),
}

# Flags a bench only emits in some modes (perf_server --shards N,
# --resize): absent is fine, present-but-false is a failure. The
# resize trio is the live-membership gate: no video may be lost or
# byte-mismatched across a ring transition, the migration must move
# exactly the ring-diff prediction, and a killed shard must rebuild
# byte-exact.
OPTIONAL_FLAGS = {
    "perf_server": ("cluster_routed_get_matches_single",
                    "cluster_meta_repair_get_ok",
                    "cluster_scrub_budget_respected",
                    "resize_no_lost_videos",
                    "resize_moved_matches_ring_diff",
                    "resize_rebuild_byte_exact"),
}


class Report:
    def __init__(self):
        self.failures = []
        self.warnings = []

    def fail(self, message):
        self.failures.append(message)

    def warn(self, message):
        self.warnings.append(message)


def usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load(path, role):
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except FileNotFoundError:
        hint = ""
        if role == "baseline":
            hint = (
                "; no committed baseline exists for this bench yet "
                "— generate one with VIDEOAPP_BENCH_OUT="
                f"{path} and the bench binary (see the header of "
                "this script and EXPERIMENTS.md), then commit it"
            )
        usage_error(f"{role} file {path} does not exist{hint}")
    except (OSError, json.JSONDecodeError) as e:
        usage_error(f"cannot read {role} file {path}: {e}")
    if not isinstance(data, dict):
        usage_error(f"{path}: top level is not a JSON object")
    return data


def rel_diff(current, baseline):
    """Relative difference of two scalars, 0 when both are zero."""
    if baseline == 0 and current == 0:
        return 0.0
    denom = max(abs(baseline), 1e-12)
    return abs(current - baseline) / denom


def check_scalar(report, name, current, baseline, tolerance, hard):
    if current is None:
        report.fail(f"{name}: missing from current results")
        return
    if baseline is None:
        # New metric with no baseline entry: fine, note it.
        report.warn(f"{name}: not in baseline (new metric?)")
        return
    if not isinstance(current, (int, float)) or not isinstance(
            baseline, (int, float)):
        report.fail(
            f"{name}: not numeric (current {current!r}, baseline "
            f"{baseline!r})")
        return
    diff = rel_diff(current, baseline)
    if diff <= tolerance:
        return
    message = (
        f"{name}: current {current} vs baseline {baseline} "
        f"({diff * 100:.1f}% off, tolerance {tolerance * 100:.0f}%)"
    )
    if hard:
        report.fail(message)
    else:
        report.warn(message)


def check_kind(current, baseline, current_path, baseline_path):
    """The bench kind ("bench" field) must be present and equal."""
    kc = current.get("bench")
    kb = baseline.get("bench")
    # Pre-kind BENCH_pipeline.json files carry no "bench" field;
    # treat them as perf_pipeline so old baselines keep working.
    kc = kc if kc is not None else "perf_pipeline"
    kb = kb if kb is not None else "perf_pipeline"
    if kc != kb:
        usage_error(
            f"bench kinds differ: {current_path} is \"{kc}\" but "
            f"{baseline_path} is \"{kb}\"; compare a run against "
            "the baseline of the same bench binary")
    if kc not in THREAD_ROW_KEYS:
        usage_error(
            f"unknown bench kind \"{kc}\"; this checker knows "
            f"{sorted(THREAD_ROW_KEYS)} — update "
            "tools/check_bench_regression.py for the new bench")
    return kc


def check_config(current, baseline):
    ca, cb = current.get("config"), baseline.get("config")
    if ca is None or cb is None:
        usage_error(
            "one of the files has no \"config\" section; "
            "regenerate both with the current bench binary")
    if ca != cb:
        usage_error(
            f"bench configs differ (current {ca}, baseline {cb}); "
            "counts are only comparable at equal scale — rerun "
            "with the baseline's VIDEOAPP_BENCH_* settings or "
            "regenerate the baseline")


def check_correctness(report, kind, current):
    for flag in CORRECTNESS_FLAGS[kind]:
        value = current.get(flag)
        if value is None:
            report.fail(
                f"{flag}: missing from current results (the bench "
                "did not emit its correctness flag)")
        elif value is not True:
            report.fail(
                f"{flag} is not true: the bench detected a "
                "correctness violation")
    for flag in OPTIONAL_FLAGS.get(kind, ()):
        value = current.get(flag)
        if value is not None and value is not True:
            report.fail(
                f"{flag} is not true: the bench detected a "
                "correctness violation")


def thread_rows(report, data, which, section="threads",
                required=True):
    """A row array as {thread_count: row}, {} on damage. Each row is
    keyed by its "threads" field (the thread or connection count)."""
    rows = data.get(section)
    if rows is None:
        if required:
            report.fail(
                f"{section} section missing from {which} results")
        return {}
    if not isinstance(rows, list):
        report.fail(f"{section} section of {which} results is not a "
                    "list")
        return {}
    by_count = {}
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or "threads" not in row:
            report.fail(
                f"{section}[{i}] of {which} results has no "
                "\"threads\" key; regenerate with the current "
                "bench binary")
            continue
        by_count[row["threads"]] = row
    return by_count


def check_row_section(report, section, keys, current, baseline,
                      count_tol, timing_tol, strict_timing):
    hard_keys, timing_keys = keys
    # A baseline predating the section altogether: note and move on
    # (the section becomes load-bearing once the baseline is
    # regenerated). A *current* run missing a section the baseline
    # has is a failure; a mode-dependent section (perf_server's
    # "cluster", only emitted under --shards) absent from both files
    # is simply not checked.
    rows_b = thread_rows(report, baseline, "baseline", section,
                         required=False)
    required = section == "threads" or bool(rows_b) or \
        section in current
    if not required:
        return
    rows_c = thread_rows(report, current, "current", section,
                         required=section == "threads" or
                         bool(rows_b))
    if not rows_b:
        report.warn(f"baseline has no usable {section} rows")
    for n in sorted(rows_b):
        if n not in rows_c:
            report.fail(
                f"{section}[{n}]: row missing from current run")
            continue
        rc, rb = rows_c[n], rows_b[n]
        for key in hard_keys:
            check_scalar(report, f"{section}[{n}].{key}",
                         rc.get(key), rb.get(key), count_tol,
                         hard=True)
        for key in timing_keys:
            check_scalar(report, f"{section}[{n}].{key}",
                         rc.get(key), rb.get(key), timing_tol,
                         hard=strict_timing)


def check_thread_rows(report, kind, current, baseline, count_tol,
                      timing_tol, strict_timing):
    check_row_section(report, "threads", THREAD_ROW_KEYS[kind],
                      current, baseline, count_tol, timing_tol,
                      strict_timing)
    for section, keys in EXTRA_ROW_SECTIONS.get(kind, {}).items():
        check_row_section(report, section, keys, current, baseline,
                          count_tol, timing_tol, strict_timing)


def check_bch(report, current, baseline, timing_tol, strict_timing):
    bc = current.get("bch_single_thread")
    bb = baseline.get("bch_single_thread")
    if bb is None:
        return
    if bc is None:
        report.fail("bch_single_thread section missing from "
                    "current results")
        return
    for key in ("packed_encode_s", "packed_decode_s"):
        check_scalar(report, f"bch_single_thread.{key}", bc.get(key),
                     bb.get(key), timing_tol, hard=strict_timing)


def check_telemetry(report, kind, current, baseline, count_tol):
    tc = current.get("telemetry")
    tb = baseline.get("telemetry")
    if tc is None:
        report.fail("telemetry section missing from current results")
        return
    if tb is None:
        report.warn("telemetry section missing from baseline")
        return
    sv_c = tc.get("schema_version")
    sv_b = tb.get("schema_version")
    if sv_c != sv_b:
        report.warn(
            f"telemetry schema_version changed "
            f"({sv_b} -> {sv_c}); counter comparison may be stale"
        )
    cc = tc.get("counters")
    cb = tb.get("counters")
    if not isinstance(cc, dict):
        report.fail("telemetry.counters missing from current "
                    "results")
        return
    if not isinstance(cb, dict):
        report.warn("telemetry.counters missing from baseline")
        return
    hard_counters = HARD_COUNTERS[kind]
    for name in hard_counters:
        # A counter neither side recorded stayed at zero (metrics
        # register on first increment).
        check_scalar(report, f"telemetry.counters.{name}",
                     cc.get(name, 0), cb.get(name, 0), count_tol,
                     hard=True)
    # Everything else (scheduling counters, new metrics): soft.
    for name in sorted(set(cc) | set(cb)):
        if name in hard_counters:
            continue
        check_scalar(report, f"telemetry.counters.{name}",
                     cc.get(name, 0), cb.get(name, 0), count_tol,
                     hard=False)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--current", required=True,
                        help="freshly produced bench JSON")
    parser.add_argument(
        "--baseline", required=True,
        help="committed bench/baselines/*.baseline.json")
    parser.add_argument(
        "--count-tolerance", type=float, default=0.02,
        help="relative tolerance for hard count/size fields "
             "(default 0.02)")
    parser.add_argument(
        "--timing-tolerance", type=float, default=1.0,
        help="relative tolerance for timing fields (default 1.0, "
             "i.e. 2x)")
    parser.add_argument(
        "--strict-timing", action="store_true",
        help="treat timing drift beyond tolerance as a failure "
             "instead of a warning")
    args = parser.parse_args()

    current = load(args.current, "current")
    baseline = load(args.baseline, "baseline")
    kind = check_kind(current, baseline, args.current, args.baseline)
    check_config(current, baseline)

    report = Report()
    # Timing fields are only comparable within one ISA level; a
    # VIDEOAPP_SIMD override (or older baseline without the field)
    # is worth flagging but is not a regression.
    sc, sb = current.get("simd_level"), baseline.get("simd_level")
    if sb is not None and sc != sb:
        report.warn(
            f"simd_level differs (current {sc}, baseline {sb}); "
            "timing comparison crosses ISA levels")
    check_correctness(report, kind, current)
    check_thread_rows(report, kind, current, baseline,
                      args.count_tolerance, args.timing_tolerance,
                      args.strict_timing)
    if kind == "perf_pipeline":
        check_bch(report, current, baseline, args.timing_tolerance,
                  args.strict_timing)
    check_telemetry(report, kind, current, baseline,
                    args.count_tolerance)

    for w in report.warnings:
        print(f"warning: {w}")
    for f in report.failures:
        print(f"FAIL: {f}")
    if report.failures:
        print(f"\n{len(report.failures)} regression(s) vs baseline "
              f"{args.baseline}")
        return 1
    print(f"ok: within tolerance of baseline {args.baseline} "
          f"({len(report.warnings)} warning(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
