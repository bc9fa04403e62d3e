#!/usr/bin/env python3
"""Validate machine-readable run artifacts.

Usage: check_bench_json.py <file.json> [more.json ...]
       check_bench_json.py --self-test

Six document shapes are recognized:
  * layer bench files ("bench": "layer_bench") — DESIGN.md §8: one
    record per measured variant, with the pins, trace guard, pruning
    and compression gates as invariant hooks (LAYER_INVARIANTS);
  * fault-injection bench files ("bench": "ext_faults") — DESIGN.md §10:
    per-cell fault/breaker accounting, with the two robustness gates
    (fingerprints bit-identical across fault rates; the breaker tripped
    and recovered in the demo cell);
  * live-index churn bench files ("bench": "ext_ingest") — DESIGN.md
    §12: per-cell churn/coherence accounting, with the two liveness
    gates (an idle live system fingerprints identically to a frozen
    one; churned results match a rebuild-from-scratch oracle both
    mid-segment and post-merge);
  * open-loop traffic bench files ("bench": "ext_traffic") — DESIGN.md
    §14: calibration, the offered-load sweep cells with SLO verdicts and
    tail attribution, plus the determinism gate;
  * replication bench files ("bench": "ext_replica") — DESIGN.md §15:
    the replication-factor x fault x load sweep with per-cell broker
    accounting (retries + hedges <= dispatches, coverage in [0, 1]),
    the monotone capped backoff schedule, and the three tail-tolerance
    gates (hedging cuts p99, retries restore coverage, failover keeps
    the SLO);
  * telemetry run reports ("report": "telemetry", schema_version 2) —
    DESIGN.md §9: the metrics registry dump, which is the report's only
    copy of the simulator's metrics, plus the traffic/windows/slo/
    attribution sections when the run was driven by the open-loop
    harness and the replication section on cluster runs. The registry
    dump gets one generic shape check (counters are non-negative
    integers, gauges have min <= mean <= max, histogram quantiles are
    ordered) and a short list of invariant hooks over metric names
    (REPORT_INVARIANTS).

Exits non-zero (with a message) on any missing key, wrong type, or
implausible value — CI runs this after the bench smokes so a silently
malformed artifact fails the build. Internal consistency is checked
too (hits <= probes with hit ratios re-derived, the situation census
sums to the query count, quantiles ordered), not just key presence.
--self-test corrupts a well-formed run report and a well-formed layer
file one invariant at a time and asserts that every corruption is
rejected.
"""
import contextlib
import copy
import io
import json
import sys

TRACE_STAGES = {
    "result_probe", "list_fetch_mem", "list_fetch_ssd", "list_fetch_hdd",
    "daat_score", "write_buffer_flush", "ftl_gc", "broker_merge",
    "ingest_apply", "segment_merge", "daat_skip", "broker_retry",
}

# Tail-attribution axis: tracer stages plus the harness pseudo-stages
# (admission-queue delay and untraced service time).
ATTR_STAGES = TRACE_STAGES | {"queue_wait", "other"}

SLO_STATES = {"ok", "warn", "breach"}


class CheckError(Exception):
    """An artifact violated the schema or one of its invariants."""


def fail(msg):
    raise CheckError(msg)


def require(cond, msg):
    if not cond:
        fail(msg)


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def require_counts(obj, keys, ctx, least=0):
    """Each of `keys` in `obj` holds an integer >= `least`."""
    kind = "non-negative" if least == 0 else "positive"
    for key in keys:
        require(isinstance(obj.get(key), int) and obj[key] >= least,
                f"{ctx}: '{key}' must be a {kind} integer")


def check_quantiles(obj, ctx):
    for key in ("p50_us", "p90_us", "p99_us"):
        require(is_num(obj.get(key)) and obj[key] >= 0,
                f"{ctx}: '{key}' must be a non-negative number")
    require(obj["p50_us"] <= obj["p90_us"] <= obj["p99_us"],
            f"{ctx}: quantiles must be ordered p50 <= p90 <= p99 "
            f"({obj['p50_us']}, {obj['p90_us']}, {obj['p99_us']})")


BREAKER_STATES = {"closed", "open", "half_open"}


def check_breaker(br, ctx):
    require(isinstance(br, dict), f"{ctx}: must be an object")
    require(br.get("final_state", br.get("state")) in BREAKER_STATES,
            f"{ctx}: state must be one of {sorted(BREAKER_STATES)}")
    require_counts(br, ("trips", "closes", "reopens", "bypassed_ops"), ctx)
    # A breaker can only half-open (and hence re-close or reopen) after
    # a trip put it in the open state.
    if br["trips"] == 0:
        require(br["closes"] == 0 and br["reopens"] == 0,
                f"{ctx}: closes/reopens without any trip")


def check_ext_faults(doc, path):
    require_counts(doc, ("queries",), "bench", least=1)

    cells = doc.get("cells")
    require(isinstance(cells, list) and len(cells) >= 2,
            "'cells' must be a list with at least a baseline and one "
            "faulty cell")
    fingerprints = set()
    for c in cells:
        ctx = f"cell '{c.get('name')}'"
        require(isinstance(c.get("name"), str) and c["name"],
                f"{ctx}: 'name' must be a non-empty string")
        require(isinstance(c.get("fingerprint"), int)
                and c["fingerprint"] > 0,
                f"{ctx}: 'fingerprint' must be a positive integer")
        fingerprints.add(c["fingerprint"])
        require(is_num(c.get("mean_response_ms"))
                and c["mean_response_ms"] > 0,
                f"{ctx}: 'mean_response_ms' must be positive")
        require_counts(c, ("ssd_read_errors", "hdd_read_errors",
                           "read_retries", "grown_bad_blocks"), ctx)
        check_breaker(c.get("breaker"), f"{ctx}.breaker")

    # Robustness gate 1: faults must never change results.
    require(doc.get("fingerprint_match") is True,
            "fingerprint_match is not true: a faulty cell's results "
            "diverged from the fault-free baseline")
    require(len(fingerprints) == 1,
            f"cells carry {len(fingerprints)} distinct fingerprints; "
            "expected all identical")
    # Robustness gate 2: the breaker demo tripped and recovered.
    demo = doc.get("breaker_demo")
    require(isinstance(demo, dict), "'breaker_demo' must be an object")
    require(isinstance(demo.get("trips"), int) and demo["trips"] >= 1,
            "breaker_demo: expected at least one trip")
    require(isinstance(demo.get("closes"), int) and demo["closes"] >= 1,
            "breaker_demo: expected at least one re-close (recovery)")
    require(demo.get("recovered") is True,
            "breaker_demo: 'recovered' must be true")

    # Cluster cell (DESIGN.md §15): a faulty HDD on one shard must be
    # observed identically by the broker and the shard-side counters,
    # stay confined to the faulty shard, and never cost coverage.
    cl = doc.get("cluster")
    require(isinstance(cl, dict), "'cluster' must be an object")
    require_counts(cl, ("queries", "broker_observed_faults",
                        "shard_side_faults", "faulty_shard_errors",
                        "clean_shard_errors", "shards_dropped"), "cluster")
    require(cl["queries"] > 0, "cluster: 'queries' must be positive")
    require(cl["broker_observed_faults"] == cl["shard_side_faults"],
            f"cluster: broker observed {cl['broker_observed_faults']} "
            f"faults but shards report {cl['shard_side_faults']}")
    require(cl["faulty_shard_errors"] > 0,
            "cluster: faulty shard reported no errors — the injected "
            "fault never fired")
    require(cl["clean_shard_errors"] == 0,
            f"cluster: clean shard reported "
            f"{cl['clean_shard_errors']} errors; faults leaked across "
            "shards")
    require(is_num(cl.get("coverage_mean"))
            and 0.0 <= cl["coverage_mean"] <= 1.0,
            "cluster: 'coverage_mean' must be in [0, 1]")
    require(cl.get("books_balance") is True,
            "cluster: broker/shard fault books do not balance")
    require(cl.get("full_coverage") is True,
            "cluster: expected full coverage (coverage_mean == 1, no "
            "dropped shards) despite the faulty HDD")

    print(f"check_bench_json: OK ({path}: ext_faults, "
          f"{len(cells)} cells x {doc['queries']} queries, "
          f"fingerprints identical, breaker tripped {demo['trips']}x / "
          f"recovered {demo['closes']}x, cluster books balance "
          f"({cl['broker_observed_faults']} faults))")


STALE_KEYS = ("result_invalidations", "list_invalidations",
              "ssd_result_misses", "ssd_list_misses", "ssd_list_marks")


def check_stale(stale, ctx):
    require(isinstance(stale, dict), f"{ctx}: must be an object")
    require_counts(stale, STALE_KEYS, ctx)


def check_ext_ingest(doc, path):
    require_counts(doc, ("queries",), "bench", least=1)
    queries = doc["queries"]

    cells = doc.get("cells")
    require(isinstance(cells, list) and len(cells) >= 4,
            "'cells' must list the disabled/idle baselines plus at "
            "least two churn mixes")
    by_name = {}
    for c in cells:
        ctx = f"cell '{c.get('name')}'"
        require(isinstance(c.get("name"), str) and c["name"],
                f"{ctx}: 'name' must be a non-empty string")
        by_name[c["name"]] = c
        require(isinstance(c.get("fingerprint"), int)
                and c["fingerprint"] > 0,
                f"{ctx}: 'fingerprint' must be a positive integer")
        require(is_num(c.get("mean_response_ms"))
                and c["mean_response_ms"] > 0,
                f"{ctx}: 'mean_response_ms' must be positive")
        require(is_num(c.get("hit_ratio")) and 0.0 <= c["hit_ratio"] <= 1.0,
                f"{ctx}: 'hit_ratio' must be in [0, 1]")
        require(isinstance(c.get("result_probes"), int)
                and c["result_probes"] >= 0,
                f"{ctx}: 'result_probes' must be a non-negative integer")
        check_stale(c.get("stale"), f"{ctx}.stale")
        # A result entry must be probed before it can be found stale.
        require(c["stale"]["result_invalidations"] <= c["result_probes"],
                f"{ctx}: more stale result invalidations than probes")
        ing = c.get("ingest")
        require(isinstance(ing, dict), f"{ctx}.ingest: must be an object")
        require_counts(ing, ("docs", "deletes", "merges", "merged_postings",
                             "segment_postings", "deleted_docs"),
                       f"{ctx}.ingest")
        require(ing["deleted_docs"] <= ing["deletes"],
                f"{ctx}.ingest: deleted_docs exceeds deletes issued")
        if ing["merges"] == 0 and ing["docs"] == 0:
            require(ing["segment_postings"] == 0,
                    f"{ctx}.ingest: segment postings without any ingest")

    for name in ("disabled", "enabled_idle"):
        require(name in by_name, f"missing baseline cell '{name}'")
        frozen = by_name[name]
        require(frozen["ingest"]["docs"] == 0
                and frozen["ingest"]["deletes"] == 0
                and frozen["stale"]["result_invalidations"] == 0,
                f"cell '{name}': baseline cell performed mutations")
    churned = [c for c in cells if c["ingest"]["docs"] > 0]
    require(churned, "no churn cell actually ingested documents")
    require(any(c["ingest"]["merges"] > 0 for c in churned),
            "no churn cell reached a segment merge")

    # Liveness gate 1: an idle live system is bit-identical to a frozen
    # one (the zero-churn invariant).
    require(doc.get("idle_matches_disabled") is True,
            "idle_matches_disabled is not true: enabling the ingest "
            "subsystem changed a churn-free run")
    require(by_name["disabled"]["fingerprint"]
            == by_name["enabled_idle"]["fingerprint"],
            "disabled and enabled_idle fingerprints differ")
    # Liveness gate 2: churned results match the rebuild-from-scratch
    # oracle, mid-segment and after a forced merge.
    oracle = doc.get("oracle")
    require(isinstance(oracle, dict), "'oracle' must be an object")
    require(isinstance(oracle.get("probes"), int) and oracle["probes"] > 0,
            "oracle: 'probes' must be a positive integer")
    require(oracle.get("pre_merge_match") is True,
            "oracle: mid-segment results diverged from the oracle")
    require(oracle.get("post_merge_match") is True,
            "oracle: post-merge results diverged from the oracle")
    # Liveness gate 3 (PR 7): block-max pruning over the churned index
    # must stay bit-identical to exhaustive DAAT — dirty terms bypass
    # stale stored block maxima rather than pruning against them.
    require(oracle.get("pruned_pre_merge_match") is True,
            "oracle: mid-segment block-max results diverged from "
            "exhaustive DAAT")
    require(oracle.get("pruned_post_merge_match") is True,
            "oracle: post-merge block-max results diverged from "
            "exhaustive DAAT")

    print(f"check_bench_json: OK ({path}: ext_ingest, "
          f"{len(cells)} cells x {queries} queries, idle fingerprint "
          f"identical, oracle exact over {oracle['probes']} probes)")


def check_slo_entry(s, ctx):
    require(isinstance(s.get("name"), str) and s["name"],
            f"{ctx}: 'name' must be a non-empty string")
    require(s.get("state") in SLO_STATES,
            f"{ctx}: state must be one of {sorted(SLO_STATES)}")
    require(isinstance(s.get("windows"), int) and s["windows"] > 0,
            f"{ctx}: 'windows' must be a positive integer")
    require(isinstance(s.get("breach_windows"), int)
            and 0 <= s["breach_windows"] <= s["windows"],
            f"{ctx}: 'breach_windows' must be in [0, windows]")
    fb = s.get("first_breach_window")
    require(isinstance(fb, int) and -1 <= fb < s["windows"],
            f"{ctx}: 'first_breach_window' must be -1 or a window ordinal")
    require((fb == -1) == (s["breach_windows"] == 0),
            f"{ctx}: first_breach_window {fb} inconsistent with "
            f"breach_windows {s['breach_windows']}")
    for key in ("burn_slow", "max_burn_fast"):
        require(is_num(s.get(key)) and s[key] >= 0,
                f"{ctx}: '{key}' must be non-negative")


def check_slo_full(s, ctx):
    """The run report carries the full error-budget arithmetic."""
    check_slo_entry(s, ctx)
    require(is_num(s.get("quantile")) and 0.0 < s["quantile"] < 1.0,
            f"{ctx}: 'quantile' must be in (0, 1)")
    require(is_num(s.get("threshold_us")) and s["threshold_us"] >= 0,
            f"{ctx}: 'threshold_us' must be non-negative")
    require(isinstance(s.get("compliance_windows"), int)
            and s["compliance_windows"] > 0,
            f"{ctx}: 'compliance_windows' must be a positive integer")
    require_counts(s, ("good", "bad", "trailing_events", "trailing_bad"), ctx)
    require(s["trailing_bad"] <= s["trailing_events"],
            f"{ctx}: trailing_bad exceeds trailing_events")
    require(isinstance(s.get("transitions"), int) and s["transitions"] >= 0,
            f"{ctx}: 'transitions' must be a non-negative integer")
    # Error-budget arithmetic: budget = (1 - q) * trailing events, so it
    # can never exceed the trailing window's event count.
    budget = s.get("budget_events")
    require(is_num(budget) and 0 <= budget <= s["trailing_events"],
            f"{ctx}: budget_events {budget} outside "
            f"[0, trailing_events={s['trailing_events']}]")
    derived = (1.0 - s["quantile"]) * s["trailing_events"]
    require(abs(budget - derived) <= 1e-6 * max(derived, 1.0),
            f"{ctx}: budget_events {budget} inconsistent with "
            f"(1-q)*trailing_events ({derived:.6f})")


def check_latency_block(obj, ctx):
    require(isinstance(obj, dict), f"{ctx}: must be an object")
    require(is_num(obj.get("mean_us")) and obj["mean_us"] >= 0,
            f"{ctx}: 'mean_us' must be non-negative")
    check_quantiles(obj, ctx)
    require(is_num(obj.get("p999_us")) and obj["p999_us"] >= obj["p99_us"],
            f"{ctx}: quantiles must be ordered p99 <= p999")


def check_traffic_sections(doc, ctx="traffic"):
    """The run report's traffic/windows/slo/attribution sections."""
    tr = doc["traffic"]
    require(isinstance(tr, dict), f"'{ctx}' must be an object")
    require_counts(tr, ("offered", "served", "shed", "outliers"), ctx)
    require(tr["served"] + tr["shed"] == tr["offered"],
            f"{ctx}: served ({tr['served']}) + shed ({tr['shed']}) "
            f"!= offered ({tr['offered']})")
    require(isinstance(tr.get("servers"), int) and tr["servers"] >= 1,
            f"{ctx}: 'servers' must be a positive integer")
    require(isinstance(tr.get("queue_capacity"), int)
            and tr["queue_capacity"] >= 0,
            f"{ctx}: 'queue_capacity' must be a non-negative integer")
    require(is_num(tr.get("horizon_us")) and tr["horizon_us"] >= 0,
            f"{ctx}: 'horizon_us' must be non-negative")
    for key in ("response", "queue_wait", "service"):
        check_latency_block(tr.get(key), f"{ctx}.{key}")

    win = doc.get("windows")
    require(isinstance(win, dict), "'windows' must be an object")
    require(is_num(win.get("width_us")) and win["width_us"] > 0,
            "windows: 'width_us' must be positive")
    require_counts(win, ("count", "emitted", "total_samples"), "windows")
    require(win["emitted"] <= win["count"],
            "windows: emitted exceeds count (truncation must only shrink)")
    series = win.get("series")
    require(isinstance(series, list) and len(series) == win["emitted"],
            "windows: 'series' length must equal 'emitted'")
    prev_index = -1
    completed_sum = 0
    for i, cell in enumerate(series):
        wctx = f"windows.series[{i}]"
        require(isinstance(cell.get("index"), int)
                and cell["index"] > prev_index,
                f"{wctx}: window indices must be strictly increasing")
        prev_index = cell["index"]
        require_counts(cell, ("offered", "shed", "completed"), wctx)
        require(cell["shed"] <= cell["offered"],
                f"{wctx}: shed exceeds offered in this window")
        require(cell["completed"] > 0,
                f"{wctx}: an emitted window must have completions "
                "(empty windows are gaps, not cells)")
        completed_sum += cell["completed"]
        check_latency_block(cell, wctx)
    if win["emitted"] == win["count"]:
        require(completed_sum == win["total_samples"],
                f"windows: per-window completions sum to {completed_sum}, "
                f"expected total_samples {win['total_samples']}")
        require(completed_sum == tr["served"],
                f"windows: completions ({completed_sum}) != served "
                f"({tr['served']})")

    slos = doc.get("slo")
    require(isinstance(slos, list), "'slo' must be a list")
    for s in slos:
        check_slo_full(s, f"slo '{s.get('name')}'")

    attr = doc.get("attribution")
    require(isinstance(attr, dict), "'attribution' must be an object")
    samples = attr.get("samples")
    require(isinstance(samples, int) and samples >= 0,
            "attribution: 'samples' must be a non-negative integer")
    guilty = attr.get("guilty_stage")
    require(isinstance(guilty, str), "attribution: 'guilty_stage' missing")
    if samples > 0:
        require(guilty in ATTR_STAGES,
                f"attribution: unknown guilty stage {guilty!r}")
    stages = attr.get("stages")
    require(isinstance(stages, list), "attribution: 'stages' must be a list")
    for st in stages:
        sctx = f"attribution stage '{st.get('stage')}'"
        require(st.get("stage") in ATTR_STAGES,
                f"attribution: unknown stage {st.get('stage')!r}")
        require(isinstance(st.get("count"), int) and st["count"] > 0,
                f"{sctx}: 'count' must be a positive integer")
        check_latency_block(st, sctx)
    worst = attr.get("worst")
    require(isinstance(worst, list) and len(worst) <= min(samples, 8),
            "attribution: 'worst' must be a list of at most "
            "min(samples, 8) entries")
    prev_response = None
    for i, s in enumerate(worst):
        wctx = f"attribution.worst[{i}]"
        require(isinstance(s.get("query"), int) and s["query"] >= 0,
                f"{wctx}: 'query' must be a non-negative integer")
        require(isinstance(s.get("outlier"), bool),
                f"{wctx}: 'outlier' must be a bool")
        for key in ("arrival_us", "wait_us", "service_us", "response_us"):
            require(is_num(s.get(key)) and s[key] >= 0,
                    f"{wctx}: '{key}' must be non-negative")
        derived = s["wait_us"] + s["service_us"]
        require(abs(s["response_us"] - derived)
                <= 0.01 * max(derived, 1.0) + 0.1,
                f"{wctx}: response_us {s['response_us']} != wait + service "
                f"({derived:.1f})")
        if prev_response is not None:
            require(s["response_us"] <= prev_response + 1e-6,
                    f"{wctx}: worst list must be sorted by descending "
                    "response")
        prev_response = s["response_us"]
        spans = s.get("stages")
        require(isinstance(spans, dict), f"{wctx}: 'stages' must be an object")
        for name, us in spans.items():
            require(name in ATTR_STAGES,
                    f"{wctx}: unknown span stage {name!r}")
            require(is_num(us) and us > 0,
                    f"{wctx}: span '{name}' must be positive")


EXT_TRAFFIC_EXPECTS = {"met", "breach", "none"}
EXT_TRAFFIC_GATES = ("slo_met_at_1x", "breach_at_2x",
                     "attributed_queue_wait_at_2x", "conservation",
                     "determinism")


def check_ext_traffic(doc, path):
    require_counts(doc, ("offered_per_cell", "servers"), "bench", least=1)
    require_counts(doc, ("queue_capacity",), "bench")
    require(is_num(doc.get("window_us")) and doc["window_us"] > 0,
            "'window_us' must be positive")

    cal = doc.get("calibration")
    require(isinstance(cal, dict), "'calibration' must be an object")
    require_counts(cal, ("queries",), "calibration", least=1)
    for key in ("mean_service_us", "p99_service_us", "capacity_qps"):
        require(is_num(cal.get(key)) and cal[key] > 0,
                f"calibration: '{key}' must be positive")
    require(cal["p99_service_us"] >= cal["mean_service_us"] * 0.5,
            "calibration: p99 service implausibly below the mean")
    require(is_num(cal.get("utilization_target"))
            and 0.0 < cal["utilization_target"] <= 1.0,
            "calibration: 'utilization_target' must be in (0, 1]")

    cells = doc.get("cells")
    require(isinstance(cells, list) and len(cells) >= 3,
            "'cells' must sweep at least under-capacity, at-capacity "
            "and over-capacity")
    for c in cells:
        ctx = f"cell '{c.get('name')}'"
        require(isinstance(c.get("name"), str) and c["name"],
                f"{ctx}: 'name' must be a non-empty string")
        require(is_num(c.get("multiplier")) and c["multiplier"] > 0,
                f"{ctx}: 'multiplier' must be positive")
        require(c.get("expect") in EXT_TRAFFIC_EXPECTS,
                f"{ctx}: 'expect' must be one of "
                f"{sorted(EXT_TRAFFIC_EXPECTS)}")
        require_counts(c, ("offered", "served", "shed", "outliers"), ctx)
        require(c.get("conservation") is True,
                f"{ctx}: conservation gate failed")
        require(c["served"] + c["shed"] == c["offered"],
                f"{ctx}: served + shed != offered "
                f"({c['served']} + {c['shed']} != {c['offered']})")
        require(isinstance(c.get("windows"), int) and c["windows"] > 0,
                f"{ctx}: 'windows' must be a positive integer")
        p50 = c.get("response_p50_us")
        p99 = c.get("response_p99_us")
        p999 = c.get("response_p999_us")
        for key, v in (("response_p50_us", p50), ("response_p99_us", p99),
                       ("response_p999_us", p999)):
            require(is_num(v) and v >= 0,
                    f"{ctx}: '{key}' must be non-negative")
        require(p50 <= p99 <= p999,
                f"{ctx}: response quantiles must be ordered "
                f"p50 <= p99 <= p999 ({p50}, {p99}, {p999})")
        require(is_num(c.get("wait_p99_us")) and c["wait_p99_us"] >= 0,
                f"{ctx}: 'wait_p99_us' must be non-negative")
        require(c.get("guilty_stage") in ATTR_STAGES,
                f"{ctx}: unknown guilty stage {c.get('guilty_stage')!r}")
        require(isinstance(c.get("fingerprint"), int)
                and c["fingerprint"] > 0,
                f"{ctx}: 'fingerprint' must be a positive integer")
        slos = c.get("slo")
        require(isinstance(slos, list) and slos,
                f"{ctx}: 'slo' must be a non-empty list")
        for s in slos:
            check_slo_entry(s, f"{ctx}.slo '{s.get('name')}'")
        breached = any(s["breach_windows"] > 0 for s in slos)
        if c["expect"] == "met":
            require(not breached,
                    f"{ctx}: expected the SLO met but found breach "
                    "windows")
            require(all(s["state"] != "breach" for s in slos),
                    f"{ctx}: expected the SLO met but a spec ended in "
                    "breach")
        elif c["expect"] == "breach":
            require(breached,
                    f"{ctx}: expected a breach but no window breached")
            require(c["guilty_stage"] == "queue_wait",
                    f"{ctx}: overload breach must be attributed to "
                    f"queue_wait, got {c.get('guilty_stage')!r}")
        require(c.get("pass") is True, f"{ctx}: cell verdict failed")

    det = doc.get("determinism")
    require(isinstance(det, dict), "'determinism' must be an object")
    require(isinstance(det.get("cell"), str) and det["cell"],
            "determinism: 'cell' must name the repeated cell")
    require_counts(det, ("fingerprint_a", "fingerprint_b"),
                   "determinism", least=1)
    require(det.get("match") is True
            and det["fingerprint_a"] == det["fingerprint_b"],
            "determinism: repeated run fingerprints differ")

    gates = doc.get("gates")
    require(isinstance(gates, dict), "'gates' must be an object")
    for key in EXT_TRAFFIC_GATES:
        require(isinstance(gates.get(key), bool),
                f"gates: '{key}' must be a bool")
    require(gates.get("pass") is True, "gates: overall verdict failed")
    require(gates["pass"] == all(gates[k] for k in EXT_TRAFFIC_GATES),
            "gates: 'pass' inconsistent with the individual gates")

    breach_cells = [c for c in cells if c["expect"] == "breach"]
    print(f"check_bench_json: OK ({path}: ext_traffic, "
          f"{len(cells)} cells x {doc['offered_per_cell']} offered, "
          f"capacity {cal['capacity_qps']:.0f} q/s, "
          f"{len(breach_cells)} breach cell(s) attributed, "
          f"all gates pass)")


def check_backoff_schedule(sched, ctx):
    require(isinstance(sched, list),
            f"{ctx}: must be a list of pause durations")
    for i, pause in enumerate(sched):
        require(is_num(pause) and pause >= 0,
                f"{ctx}[{i}]: must be a non-negative number")
    for i in range(1, len(sched)):
        require(sched[i] >= sched[i - 1],
                f"{ctx}: schedule must be monotone non-decreasing "
                f"({sched[i - 1]} -> {sched[i]} at index {i})")


REPLICA_COUNTERS = ("dispatches", "retries", "hedges", "hedge_wins",
                    "failovers")


def check_replica_counters(obj, ctx):
    require_counts(obj, REPLICA_COUNTERS, ctx)
    require(obj["retries"] + obj["hedges"] <= obj["dispatches"],
            f"{ctx}: retries ({obj['retries']}) + hedges "
            f"({obj['hedges']}) exceed dispatches ({obj['dispatches']}); "
            "every retry and hedge is itself a dispatch")
    require(obj["hedge_wins"] <= obj["hedges"],
            f"{ctx}: hedge_wins ({obj['hedge_wins']}) exceed hedges "
            f"({obj['hedges']})")
    require(is_num(obj.get("coverage_mean"))
            and 0.0 <= obj["coverage_mean"] <= 1.0,
            f"{ctx}: 'coverage_mean' must be in [0, 1]")


def check_replication_section(rep):
    ctx = "replication"
    require(isinstance(rep, dict), f"'{ctx}' must be an object")
    require_counts(rep, ("groups", "replication_factor", "queries"),
                   ctx, least=1)
    require(isinstance(rep.get("policy_active"), bool),
            f"{ctx}: 'policy_active' must be a bool")
    require_counts(rep, ("shards_dropped", "shards_failed", "observed_faults"),
                   ctx)
    check_replica_counters(rep, ctx)
    require(rep["dispatches"] >= rep["queries"],
            f"{ctx}: dispatches ({rep['dispatches']}) below queries "
            f"({rep['queries']}); every query dispatches each group at "
            "least once")
    check_backoff_schedule(rep.get("backoff_schedule_us"),
                           f"{ctx}.backoff_schedule_us")
    slots = rep.get("replicas")
    require(isinstance(slots, list)
            and len(slots) == rep["replication_factor"],
            f"{ctx}: 'replicas' must list one slot per replica "
            f"(factor {rep['replication_factor']})")
    attempts = 0
    for i, slot in enumerate(slots):
        sctx = f"{ctx}.replicas[{i}]"
        require(slot.get("slot") == i, f"{sctx}: 'slot' must be {i}")
        require_counts(slot, ("attempts", "faults", "breaker_trips",
                              "breaker_reopens", "breaker_closes",
                              "breakers_open"), sctx)
        require(is_num(slot.get("ewma_us_mean"))
                and slot["ewma_us_mean"] >= 0,
                f"{sctx}: 'ewma_us_mean' must be non-negative")
        attempts += slot["attempts"]
    require(attempts == rep["dispatches"],
            f"{ctx}: per-slot attempts sum to {attempts}, expected "
            f"dispatches ({rep['dispatches']})")


EXT_REPLICA_GATES = ("hedge_cuts_p99", "retries_restore_coverage",
                     "failover_keeps_slo")


def check_ext_replica(doc, path):
    require_counts(doc, ("offered_per_cell", "servers"), "bench", least=1)
    require(is_num(doc.get("window_us")) and doc["window_us"] > 0,
            "'window_us' must be positive")

    cal = doc.get("calibration")
    require(isinstance(cal, dict), "'calibration' must be an object")
    require_counts(cal, ("queries",), "calibration", least=1)
    for key in ("mean_service_us", "p99_service_us",
                "median_slowest_shard_us", "capacity_qps",
                "fault_spike_us"):
        require(is_num(cal.get(key)) and cal[key] > 0,
                f"calibration: '{key}' must be positive")
    require(cal["mean_service_us"] <= cal["p99_service_us"],
            "calibration: mean service exceeds its own p99")

    check_backoff_schedule(doc.get("backoff_schedule_us"),
                           "backoff_schedule_us")
    require(len(doc["backoff_schedule_us"]) > 0,
            "backoff_schedule_us: retry policy must publish a non-empty "
            "schedule")

    cells = doc.get("cells")
    require(isinstance(cells, list) and len(cells) >= 6,
            "'cells' must sweep replication factor x fault x load "
            "(at least 6 cells)")
    by_name = {}
    for c in cells:
        ctx = f"cell '{c.get('name')}'"
        require(isinstance(c.get("name"), str) and c["name"],
                f"{ctx}: 'name' must be a non-empty string")
        by_name[c["name"]] = c
        require(isinstance(c.get("replication_factor"), int)
                and c["replication_factor"] >= 1,
                f"{ctx}: 'replication_factor' must be >= 1")
        require(isinstance(c.get("faulty"), bool),
                f"{ctx}: 'faulty' must be a bool")
        require(is_num(c.get("multiplier")) and c["multiplier"] > 0,
                f"{ctx}: 'multiplier' must be positive")
        require_counts(c, ("offered", "served", "shed", "shards_failed",
                           "breach_windows"), ctx)
        require(c.get("conservation") is True,
                f"{ctx}: offered != served + shed")
        require(c["served"] + c["shed"] == c["offered"],
                f"{ctx}: served ({c['served']}) + shed ({c['shed']}) "
                f"!= offered ({c['offered']})")
        for key in ("response_p50_us", "response_p99_us"):
            require(is_num(c.get(key)) and c[key] >= 0,
                    f"{ctx}: '{key}' must be non-negative")
        require(c["response_p50_us"] <= c["response_p99_us"],
                f"{ctx}: p50 exceeds p99")
        check_replica_counters(c, ctx)
        require(c.get("slo_state") in SLO_STATES,
                f"{ctx}: 'slo_state' must be one of {sorted(SLO_STATES)}")
        require(isinstance(c.get("fingerprint"), int)
                and c["fingerprint"] > 0,
                f"{ctx}: 'fingerprint' must be a positive integer")
        if c["replication_factor"] == 1:
            require(c["hedges"] == 0 and c["failovers"] == 0,
                    f"{ctx}: hedges/failovers recorded with a single "
                    "replica")

    det = doc.get("determinism")
    require(isinstance(det, dict), "'determinism' must be an object")
    require(isinstance(det.get("cell"), str) and det["cell"] in by_name,
            "determinism: 'cell' must name a swept cell")
    require_counts(det, ("fingerprint_a", "fingerprint_b"),
                   "determinism", least=1)
    require(det.get("match") is True
            and det["fingerprint_a"] == det["fingerprint_b"],
            "determinism: repeat run fingerprints diverged")
    require(det["fingerprint_a"] == by_name[det["cell"]]["fingerprint"],
            "determinism: repeat fingerprint differs from the swept "
            "cell's fingerprint")

    gates = doc.get("gates")
    require(isinstance(gates, dict), "'gates' must be an object")
    hg = gates.get("hedge_cuts_p99")
    require(isinstance(hg, dict), "gates: 'hedge_cuts_p99' must be an "
            "object")
    for key in ("p99_no_hedge_us", "p99_hedge_us"):
        require(is_num(hg.get(key)) and hg[key] > 0,
                f"gates.hedge_cuts_p99: '{key}' must be positive")
    for key in ("hedges", "hedge_wins"):
        require(isinstance(hg.get(key), int) and hg[key] >= 0,
                f"gates.hedge_cuts_p99: '{key}' must be a non-negative "
                "integer")
    if hg.get("pass"):
        require(hg["p99_hedge_us"] < hg["p99_no_hedge_us"],
                "gates.hedge_cuts_p99: passed without actually cutting "
                "p99")
        require(hg["hedges"] > 0 and hg["hedge_wins"] > 0,
                "gates.hedge_cuts_p99: passed without any hedge firing "
                "and winning")
    rg = gates.get("retries_restore_coverage")
    require(isinstance(rg, dict),
            "gates: 'retries_restore_coverage' must be an object")
    require(is_num(rg.get("deadline_us")) and rg["deadline_us"] > 0,
            "gates.retries_restore_coverage: 'deadline_us' must be "
            "positive")
    for key in ("coverage_no_retry", "coverage_retry"):
        require(is_num(rg.get(key)) and 0.0 <= rg[key] <= 1.0,
                f"gates.retries_restore_coverage: '{key}' must be in "
                "[0, 1]")
    require(isinstance(rg.get("retries"), int) and rg["retries"] >= 0,
            "gates.retries_restore_coverage: 'retries' must be a "
            "non-negative integer")
    if rg.get("pass"):
        require(rg["coverage_no_retry"] < 1.0,
                "gates.retries_restore_coverage: passed but the "
                "no-retry arm never lost coverage")
        require(rg["coverage_retry"] == 1.0 and rg["retries"] > 0,
                "gates.retries_restore_coverage: passed without retries "
                "restoring full coverage")
    fg = gates.get("failover_keeps_slo")
    require(isinstance(fg, dict),
            "gates: 'failover_keeps_slo' must be an object")
    for key in ("primary_only_state", "failover_state"):
        require(fg.get(key) in SLO_STATES,
                f"gates.failover_keeps_slo: '{key}' must be one of "
                f"{sorted(SLO_STATES)}")
    for key in ("primary_only_breach_windows", "failover_breach_windows",
                "failovers"):
        require(isinstance(fg.get(key), int) and fg[key] >= 0,
                f"gates.failover_keeps_slo: '{key}' must be a "
                "non-negative integer")
    if fg.get("pass"):
        require(fg["primary_only_state"] == "breach"
                and fg["failover_state"] != "breach"
                and fg["failovers"] > 0,
                "gates.failover_keeps_slo: passed without the "
                "primary-only arm breaching and failover holding")
    for key in EXT_REPLICA_GATES:
        require(isinstance(gates[key].get("pass"), bool),
                f"gates.{key}: 'pass' must be a bool")
    for key in ("conservation", "determinism"):
        require(isinstance(gates.get(key), bool),
                f"gates: '{key}' must be a bool")
    require(gates.get("pass") is True, "gates: overall verdict failed")
    require(gates["pass"] == (
        all(gates[k]["pass"] for k in EXT_REPLICA_GATES)
        and gates["conservation"] and gates["determinism"]),
            "gates: 'pass' inconsistent with the individual gates")

    print(f"check_bench_json: OK ({path}: ext_replica, "
          f"{len(cells)} cells x {doc['offered_per_cell']} offered, "
          f"capacity {cal['capacity_qps']:.0f} q/s, all gates pass)")


# --- telemetry run reports (schema v2) -------------------------------------
#
# The report's "metrics" object is a registry dump keyed by metric name:
# counters render as integers, gauges as {mean, min, max, samples},
# histograms as {count, mean, p50, p90, p99}. It is checked in two
# parts: one generic shape check over every entry, then the invariant
# hooks below, each a small function over metric names.

GAUGE_KEYS = {"mean", "min", "max", "samples"}
HIST_KEYS = {"count", "mean", "p50", "p90", "p99"}
SITUATIONS = [f"query.situation.s{i}" for i in range(1, 10)]

# Registered by every SearchSystem.
REQUIRED_METRICS = (
    "query.response.count", "query.response.mean", "query.response.us",
    "query.throughput_qps", "query.coverage.covered",
    "query.coverage.implied", "query.coverage.ratio",
    "cache.result.probes", "cache.l1.result.hits", "cache.l2.result.hits",
    "cache.list.probes", "cache.l1.list.hits", "cache.l2.list.hits",
    "cache.result.hit_ratio", "cache.list.hit_ratio", "cache.hit_ratio",
    "cache.background.flash_us", "cache.stale.result_invalidations",
    "cache.stale.list_invalidations", "cache.stale.ssd_result_misses",
    "cache.stale.ssd_list_misses",
    "cache.faults.ssd_read_errors", "cache.faults.hdd_read_errors",
    "cache.breaker.trips", "cache.breaker.reopens", "cache.breaker.closes",
    "cache.breaker.bypassed_ops", "cache.breaker.bypassed_probes",
    "cache.breaker.bypassed_inserts", "cache.breaker.open",
    *SITUATIONS, *(f"{s}.mean_us" for s in SITUATIONS),
)

# Groups registered together: any name under the prefix brings the
# whole group (a cache SSD, an armed faulty HDD, the live index).
METRIC_GROUPS = {
    "ssd.cache.": (
        "ssd.cache.host.reads", "ssd.cache.host.writes",
        "ssd.cache.host.trims", "ssd.cache.gc.invocations",
        "ssd.cache.gc.page_copies", "ssd.cache.ftl.gc_busy_us",
        "ssd.cache.nand.page_reads", "ssd.cache.nand.page_programs",
        "ssd.cache.nand.block_erases", "ssd.cache.write_amplification",
        "ssd.cache.wear.mean_erases", "ssd.cache.wear.max_erases",
        "ssd.cache.faults.read_retries",
        "ssd.cache.faults.uncorrectable_reads",
        "ssd.cache.faults.program_failures",
        "ssd.cache.faults.remapped_writes",
        "ssd.cache.faults.grown_bad_blocks"),
    "hdd.faults.": (
        "hdd.faults.read_uncs", "hdd.faults.read_retries",
        "hdd.faults.write_fails", "hdd.faults.latency_spikes"),
    "ingest.": (
        "ingest.docs", "ingest.deletes", "ingest.delete_misses",
        "ingest.merges", "ingest.merged_terms", "ingest.merged_postings",
        "ingest.replayed_records", "ingest.replay_torn_bytes",
        "ingest.apply_us", "ingest.merge_us", "ingest.segment.postings",
        "ingest.segment.arena_bytes", "ingest.deleted_docs"),
}


def metric_kind(m):
    if isinstance(m, int) and not isinstance(m, bool):
        return "counter"
    if isinstance(m, dict) and set(m) == GAUGE_KEYS:
        return "gauge"
    if isinstance(m, dict) and set(m) == HIST_KEYS:
        return "histogram"
    return None


def check_registry_shape(metrics):
    """Generic registry-dump shape, independent of any metric name."""
    require(isinstance(metrics, dict) and metrics,
            "'metrics' must be a non-empty object (registry dump)")
    for name, m in metrics.items():
        kind = metric_kind(m)
        require(kind is not None,
                f"metric {name!r}: not a counter, gauge or histogram")
        if kind == "counter":
            require(m >= 0, f"counter {name!r} is negative ({m})")
        elif kind == "gauge":
            require(all(is_num(m[k]) for k in ("mean", "min", "max")),
                    f"gauge {name!r}: mean/min/max must be numbers")
            require(isinstance(m["samples"], int) and m["samples"] > 0,
                    f"gauge {name!r}: 'samples' must be a positive "
                    "integer")
            require(m["min"] <= m["mean"] <= m["max"],
                    f"gauge {name!r}: min <= mean <= max violated "
                    f"({m['min']}, {m['mean']}, {m['max']})")
            require(m["samples"] > 1 or m["min"] == m["max"],
                    f"gauge {name!r}: one sample but min != max")
        else:
            require(isinstance(m["count"], int) and m["count"] >= 0,
                    f"histogram {name!r}: 'count' must be a "
                    "non-negative integer")
            require(all(is_num(m[k]) and m[k] >= 0 for k in HIST_KEYS),
                    f"histogram {name!r}: values must be non-negative")
            require(m["p50"] <= m["p90"] <= m["p99"],
                    f"histogram {name!r}: quantiles must be ordered "
                    f"p50 <= p90 <= p99 ({m['p50']}, {m['p90']}, "
                    f"{m['p99']})")


def counter(metrics, name):
    m = metrics.get(name)
    require(metric_kind(m) == "counter", f"{name!r} must be a counter")
    return m


def gauge(metrics, name):
    m = metrics.get(name)
    require(metric_kind(m) == "gauge", f"{name!r} must be a gauge")
    return m["mean"]


def gauge_span(metrics, name):
    """(min, max) of a gauge's samples. A system's report has one sample
    per gauge; a cluster's merges one per replica, except the ratio
    gauges, which it pools from the summed counters into one sample.
    """
    gauge(metrics, name)
    return metrics[name]["min"], metrics[name]["max"]


def inv_presence(metrics, _doc):
    for name in REQUIRED_METRICS:
        require(name in metrics, f"missing metric {name!r}")
    for prefix, group in METRIC_GROUPS.items():
        if any(n.startswith(prefix) for n in metrics):
            for name in group:
                require(name in metrics,
                        f"{prefix}* present but {name!r} missing")


def inv_census(metrics, _doc):
    """Table I: the nine situations partition the served queries."""
    queries = counter(metrics, "query.response.count")
    require(queries > 0, "query.response.count must be positive")
    census = sum(counter(metrics, s) for s in SITUATIONS)
    require(census == queries,
            f"situation counts sum to {census}, expected {queries}")
    # A cluster report merges every replica: each broker dispatch is
    # one query executed on one replica.
    if "cluster.replica.dispatches" in metrics:
        dispatches = counter(metrics, "cluster.replica.dispatches")
        require(dispatches == queries,
                f"cluster.replica.dispatches ({dispatches}) != "
                f"query.response.count ({queries})")
    require(gauge(metrics, "query.throughput_qps") > 0,
            "query.throughput_qps must be positive")


def require_ratio(metrics, name, hits, probes):
    """A ratio gauge equals the quotient of its counters. Cluster reports
    pool ratios from the summed counters too, so this holds for them."""
    ratio = gauge(metrics, name)
    derived = hits / probes if probes else 0.0
    require(abs(derived - ratio) <= 1e-6,
            f"{name} {ratio} inconsistent with counters ({derived:.6f})")


def inv_tier_hits(metrics, _doc):
    """Per tier, hits never exceed probes; hit ratios re-derived."""
    hits_all = probes_all = 0
    for tier in ("result", "list"):
        probes = counter(metrics, f"cache.{tier}.probes")
        hits = (counter(metrics, f"cache.l1.{tier}.hits")
                + counter(metrics, f"cache.l2.{tier}.hits"))
        require(hits <= probes,
                f"cache.{tier}: l1 + l2 hits ({hits}) exceed probes "
                f"({probes})")
        require_ratio(metrics, f"cache.{tier}.hit_ratio", hits, probes)
        hits_all += hits
        probes_all += probes
    require_ratio(metrics, "cache.hit_ratio", hits_all, probes_all)
    covered = counter(metrics, "query.coverage.covered")
    implied = counter(metrics, "query.coverage.implied")
    require(covered <= implied, "query.coverage: covered exceeds implied")
    require_ratio(metrics, "query.coverage.ratio", covered, implied)


def inv_gauge_ranges(metrics, _doc):
    """No simulator gauge is signed; fractions stay in [0, 1]."""
    for name, m in metrics.items():
        if metric_kind(m) != "gauge":
            continue
        require(m["min"] >= 0, f"gauge {name!r} is negative ({m['min']})")
        if name.endswith(("hit_ratio", "coverage.ratio", "_fraction")):
            require(m["max"] <= 1.0, f"gauge {name!r} exceeds 1")


def inv_flash(metrics, _doc):
    """Write amplification >= 1 with host writes; the BBM invariant."""
    if "ssd.cache.host.writes" not in metrics:
        return
    if counter(metrics, "ssd.cache.host.writes") > 0:
        wa = gauge(metrics, "ssd.cache.write_amplification")
        require(wa >= 1.0,
                f"ssd.cache.write_amplification {wa} below 1 with host "
                "writes present")
    # Every remap retires exactly one block; a program failure the free
    # pool cannot take retries in place, unremapped (DESIGN.md §11).
    bbm = [counter(metrics, f"ssd.cache.faults.{k}")
           for k in ("program_failures", "remapped_writes",
                     "grown_bad_blocks")]
    require(bbm[0] >= bbm[1] == bbm[2],
            f"ssd.cache.faults: need program_failures ({bbm[0]}) >= "
            f"remapped_writes ({bbm[1]}) == grown_bad_blocks ({bbm[2]})")


def inv_breaker(metrics, _doc):
    lo, is_open = gauge_span(metrics, "cache.breaker.open")
    require(lo in (0, 1) and is_open in (0, 1),
            "cache.breaker.open must be 0 or 1")
    check_breaker({
        "state": "open" if is_open else "closed",
        **{k: counter(metrics, f"cache.breaker.{k}")
           for k in ("trips", "closes", "reopens", "bypassed_ops")},
    }, "cache.breaker")


def inv_ingest(metrics, _doc):
    """Stale results are found by probing; merges account postings."""
    stale = counter(metrics, "cache.stale.result_invalidations")
    probes = counter(metrics, "cache.result.probes")
    require(stale <= probes,
            f"cache.stale.result_invalidations ({stale}) exceed result "
            f"probes ({probes})")
    if "ingest.docs" not in metrics:
        return
    touched = (counter(metrics, "ingest.docs")
               + counter(metrics, "ingest.deletes"))
    require(gauge(metrics, "ingest.deleted_docs") <= touched,
            "ingest: more tombstones than documents ever touched")
    if counter(metrics, "ingest.merges") == 0:
        require(counter(metrics, "ingest.merged_postings") == 0,
                "ingest: merged postings without any merge")


def inv_trace_stages(metrics, doc):
    """Known tracer stages only; a traced run records at least one."""
    stages = {n: m for n, m in metrics.items() if n.startswith("trace.")}
    for name, m in stages.items():
        stage = name[len("trace."):-len(".us")]
        require(name.endswith(".us") and stage in TRACE_STAGES,
                f"unknown trace stage metric {name!r}")
        require(metric_kind(m) == "histogram",
                f"{name!r} must be a histogram")
    if doc["tracing"]:
        require(any(m["count"] > 0 for m in stages.values()),
                "tracing is on but no trace stage recorded")


REPORT_INVARIANTS = (inv_presence, inv_census, inv_tier_hits,
                     inv_gauge_ranges, inv_flash, inv_breaker, inv_ingest,
                     inv_trace_stages)


def check_telemetry(doc, path):
    require(isinstance(doc.get("run"), str) and doc["run"],
            "'run' must be a non-empty string")
    require(isinstance(doc.get("tracing"), bool), "'tracing' must be a bool")

    metrics = doc.get("metrics")
    check_registry_shape(metrics)
    for invariant in REPORT_INVARIANTS:
        invariant(metrics, doc)

    # Optional open-loop traffic sections (runs driven by run_traffic):
    # all four travel together.
    traffic_keys = [k for k in ("traffic", "windows", "slo", "attribution")
                    if k in doc]
    if traffic_keys:
        require(len(traffic_keys) == 4,
                f"traffic sections must travel together; found only "
                f"{traffic_keys}")
        check_traffic_sections(doc)

    # Optional replication section (cluster runs; DESIGN.md §15).
    if "replication" in doc:
        check_replication_section(doc["replication"])

    print(f"check_bench_json: OK ({path}: telemetry report "
          f"'{doc['run']}', {metrics['query.response.count']} queries, "
          f"{len(metrics)} metrics)")


# --- layer bench records (bench/layer_bench) -------------------------------
#
# One record per measured variant: {layer, name, unit, n, median, min,
# mad[, fingerprint[, pin]][, at_most | at_least]}, n timed chunks each.
# One generic shape check covers every record; the gates are invariant
# hooks over record names. Pins and bounds are the records' own, as the
# bench defined and enforced them. Pins hold at the full query counts;
# bounds on index records (byte counts) always, timed ones on an
# optimized build at the full counts.

LAYERS = ("storage", "ftl", "cache", "workload", "index", "engine", "hybrid")
LAYER_UNITS = {"ns/op", "ns/page", "us/query", "bytes", "ratio"}


def check_record_shape(r):
    ctx = f"record {r.get('layer')}/{r.get('name')}"
    require(r.get("layer") in LAYERS, f"{ctx}: layer must be one of {LAYERS}")
    require(isinstance(r.get("name"), str) and r["name"],
            f"{ctx}: 'name' must be a non-empty string")
    require(r.get("unit") in LAYER_UNITS,
            f"{ctx}: unit must be one of {sorted(LAYER_UNITS)}")
    require(isinstance(r.get("n"), int) and r["n"] > 0,
            f"{ctx}: 'n' must be a positive integer")
    for key in ("median", "min", "mad"):
        require(is_num(r.get(key)), f"{ctx}: '{key}' must be a number")
    for key in ("min", "mad"):
        require(r[key] >= 0, f"{ctx}: {key} {r[key]} is negative")
    require(r["min"] <= r["median"],
            f"{ctx}: min {r['min']} above median {r['median']}")
    for key in ("fingerprint", "pin"):
        if key in r:
            require(isinstance(r[key], int) and r[key] >= 0,
                    f"{ctx}: '{key}' must be a non-negative integer")
    require("pin" not in r or "fingerprint" in r,
            f"{ctx}: a pin needs a fingerprint")
    for key in ("at_most", "at_least"):
        require(key not in r or is_num(r[key]),
                f"{ctx}: '{key}' must be a number")


def record(records, name):
    r = records.get(name)
    require(r is not None, f"missing record {name!r}")
    return r


def inv_layers(records, _doc):
    present = {r["layer"] for r in records.values()}
    for layer in LAYERS:
        require(layer in present, f"no record for layer {layer!r}")


def inv_pins(records, doc):
    if not doc["full_counts"]:
        return
    for name, r in records.items():
        if "pin" in r:
            require(r["fingerprint"] == r["pin"],
                    f"pin mismatch: {name} fingerprint {r['fingerprint']} "
                    f"!= pin {r['pin']}")


# (gate, a daat variant that must reproduce the exhaustive fingerprint,
# its per-chunk ratio against exhaustive)
ENGINE_GATES = (
    ("trace guard", "engine/daat_traced_idle", "engine/trace_overhead"),
    ("pruning", "engine/daat_block_max", "engine/block_max_speedup"),
)


def inv_engine(records, _doc):
    base = record(records, "engine/daat_exhaustive")
    for gate, variant, ratio in ENGINE_GATES:
        require(record(records, variant).get("fingerprint")
                == base.get("fingerprint"),
                f"{gate}: {variant} output differs from daat_exhaustive")
        r = record(records, ratio)
        require(r["unit"] == "ratio" and r["n"] == base["n"],
                f"{gate}: {ratio} needs one ratio per daat chunk "
                f"({base['n']})")


def inv_compression(records, _doc):
    raw = record(records, "index/raw_bytes")["median"]
    packed = record(records, "index/packed_bytes")["median"]
    ratio = record(records, "index/packed_ratio")["median"]
    require(packed > 0 and abs(ratio - raw / packed) < 1e-3,
            f"compression: packed_ratio {ratio} is not raw/packed bytes "
            f"{raw}/{packed}")


# (gate, gated record, the side of its median the record's bound is on)
LAYER_GATES = (
    ("trace guard", "engine/trace_overhead", "at_most"),
    ("pruning", "engine/block_max_speedup", "at_least"),
    ("compression", "index/packed_ratio", "at_least"),
)


def inv_bounds(records, doc):
    timed = doc["optimized"] and doc["full_counts"]
    for gate, name, side in LAYER_GATES:
        r = record(records, name)
        require(side in r, f"{gate}: {name} carries no {side} bound")
        if timed or r["layer"] == "index":
            m, bound = r["median"], r[side]
            require(m <= bound if side == "at_most" else m >= bound,
                    f"{gate}: {name} median {m} breaks {side} {bound}")


LAYER_INVARIANTS = (inv_layers, inv_pins, inv_engine, inv_compression,
                    inv_bounds)


def check_layer_bench(doc, path):
    for key in ("optimized", "full_counts"):
        require(isinstance(doc.get(key), bool), f"'{key}' must be a bool")
    recs = doc.get("records")
    require(isinstance(recs, list) and recs,
            "'records' must be a non-empty list")
    records = {}
    for r in recs:
        require(isinstance(r, dict), "each record must be an object")
        check_record_shape(r)
        name = f"{r['layer']}/{r['name']}"
        require(name not in records, f"duplicate record {name!r}")
        records[name] = r
    for invariant in LAYER_INVARIANTS:
        invariant(records, doc)
    print(f"check_bench_json: OK ({path}: layer_bench, {len(records)} "
          f"records, pins {'enforced' if doc['full_counts'] else 'reported'})")


# --- self-test -------------------------------------------------------------


def gauge_of(v):
    return {"mean": v, "min": v, "max": v, "samples": 1}


def hist_of(count, p50, p90, p99):
    return {"count": count, "mean": p50, "p50": p50, "p90": p90,
            "p99": p99}


def self_test_report():
    """A small well-formed v2 report of a CBSLRU system with a cache SSD,
    HDD and NAND faults armed and the live index on, so that every
    invariant hook has something to check. Ints are counters, floats
    gauges, tuples (count, p50, p90, p99) histograms."""
    flat = {
        "query.response.count": 100, "query.response.mean": 1000.0,
        "query.response.max": 9000.0,
        "query.response.us": (100, 500.0, 4000.0, 8000.0),
        "query.throughput_qps": 800.0, "query.coverage.covered": 150,
        "query.coverage.implied": 300, "query.coverage.ratio": 0.5,
        "query.cache_served_fraction": 0.6,
        "cache.result.probes": 100, "cache.l1.result.hits": 20,
        "cache.l2.result.hits": 10, "cache.result.hit_ratio": 0.3,
        "cache.list.probes": 200, "cache.l1.list.hits": 80,
        "cache.l2.list.hits": 40, "cache.list.hit_ratio": 0.6,
        "cache.hit_ratio": 0.5, "cache.background.flash_us": 5000.0,
        "cache.stale.result_invalidations": 4,
        "cache.stale.list_invalidations": 6,
        "cache.stale.ssd_result_misses": 1, "cache.stale.ssd_list_misses": 0,
        "cache.faults.ssd_read_errors": 3, "cache.faults.hdd_read_errors": 1,
        "cache.breaker.trips": 1, "cache.breaker.reopens": 1,
        "cache.breaker.closes": 1, "cache.breaker.bypassed_ops": 12,
        "cache.breaker.bypassed_probes": 12,
        "cache.breaker.bypassed_inserts": 5,
        "cache.breaker.open": 0.0,
        "ssd.cache.host.reads": 400, "ssd.cache.host.writes": 500,
        "ssd.cache.host.trims": 0, "ssd.cache.gc.invocations": 2,
        "ssd.cache.gc.page_copies": 20, "ssd.cache.ftl.gc_busy_us": 900.0,
        "ssd.cache.nand.page_reads": 420, "ssd.cache.nand.page_programs": 520,
        "ssd.cache.nand.block_erases": 3,
        "ssd.cache.write_amplification": 1.04,
        "ssd.cache.wear.mean_erases": 0.1, "ssd.cache.wear.max_erases": 1.0,
        "ssd.cache.faults.read_retries": 6,
        "ssd.cache.faults.uncorrectable_reads": 3,
        "ssd.cache.faults.program_failures": 2,
        "ssd.cache.faults.remapped_writes": 2,
        "ssd.cache.faults.grown_bad_blocks": 2,
        "hdd.faults.read_uncs": 1, "hdd.faults.read_retries": 2,
        "hdd.faults.write_fails": 0, "hdd.faults.latency_spikes": 1,
        "ingest.docs": 10, "ingest.deletes": 2, "ingest.delete_misses": 0,
        "ingest.merges": 1, "ingest.merged_terms": 30,
        "ingest.merged_postings": 300, "ingest.replayed_records": 0,
        "ingest.replay_torn_bytes": 0, "ingest.apply_us": 50.0,
        "ingest.merge_us": 200.0, "ingest.segment.postings": 40.0,
        "ingest.segment.arena_bytes": 4096.0, "ingest.deleted_docs": 2.0,
        "trace.result_probe.us": (100, 0.1, 300.0, 350.0),
        "trace.daat_score.us": (70, 300.0, 350.0, 360.0),
        "trace.ftl_gc.us": (0, 0.0, 0.0, 0.0),
    }
    for i, (s, n) in enumerate(zip(SITUATIONS,
                                   (20, 10, 15, 10, 5, 20, 5, 5, 10))):
        flat[s] = n
        flat[f"{s}.mean_us"] = 100.0 * (i + 1)
    metrics = {
        name: gauge_of(v) if isinstance(v, float)
        else hist_of(*v) if isinstance(v, tuple) else v
        for name, v in flat.items()
    }
    return {"report": "telemetry", "schema_version": 2, "run": "self_test",
            "tracing": True, "metrics": metrics}


def setting(*pairs):
    """A corruption that overwrites (metric name, value) pairs."""
    def mutate(doc):
        for name, value in pairs:
            doc["metrics"][name] = value
    return mutate


def dropping(name):
    def mutate(doc):
        del doc["metrics"][name]
    return mutate


def untraced(doc):
    for name in doc["metrics"]:
        if name.startswith("trace."):
            doc["metrics"][name] = hist_of(0, 0.0, 0.0, 0.0)


# (what the corruption breaks, how, a fragment of the expected message)
SELF_TEST_PROBES = (
    ("result hits exceed probes",
     setting(("cache.l1.result.hits", 95)), "exceed probes"),
    ("hit ratio disagrees with its counters",
     setting(("cache.list.hit_ratio", gauge_of(0.6 + 1e-5))),
     "inconsistent with counters"),
    ("merged hit ratio averaged per replica, not pooled",
     setting(("cache.list.hit_ratio",
              {"mean": 0.5, "min": 0.4, "max": 0.7, "samples": 2})),
     "inconsistent with counters"),
    ("one-sample gauge with a span",
     setting(("cache.list.hit_ratio",
              {"mean": 0.6, "min": 0.5, "max": 0.7, "samples": 1})),
     "one sample but min != max"),
    ("census does not sum to the query count",
     setting(("query.situation.s9", 11)), "situation counts sum"),
    ("cluster dispatches disagree with the merged query count",
     setting(("cluster.replica.dispatches", 99)),
     "cluster.replica.dispatches"),
    ("BBM invariant broken",
     setting(("ssd.cache.faults.grown_bad_blocks", 3)), "program_failures"),
    ("write amplification below 1 with host writes",
     setting(("ssd.cache.write_amplification", gauge_of(0.98))),
     "below 1"),
    ("unordered histogram quantiles",
     setting(("query.response.us", hist_of(100, 500.0, 9000.0, 8000.0))),
     "quantiles must be ordered"),
    ("unknown trace stage",
     setting(("trace.disk_seek.us", hist_of(5, 1.0, 2.0, 3.0))),
     "unknown trace stage"),
    ("stale invalidations exceed result probes",
     setting(("cache.stale.result_invalidations", 101)),
     "exceed result probes"),
    ("merged postings without a merge",
     setting(("ingest.merges", 0)), "merged postings without any merge"),
    ("breaker closes without a trip",
     setting(("cache.breaker.trips", 0), ("cache.breaker.reopens", 0)),
     "without any trip"),
    ("breaker reopens without a trip",
     setting(("cache.breaker.trips", 0), ("cache.breaker.closes", 0)),
     "without any trip"),
    ("more tombstones than documents touched",
     setting(("ingest.deleted_docs", gauge_of(13.0))), "more tombstones"),
    ("traced run records no stage", untraced, "no trace stage recorded"),
    ("gauge mean below its min",
     setting(("query.response.mean",
              {"mean": 1000.0, "min": 1001.0, "max": 1002.0,
               "samples": 1})),
     "min <= mean <= max"),
    ("negative counter",
     setting(("cache.faults.hdd_read_errors", -1)), "is negative"),
    ("fraction above 1",
     setting(("query.cache_served_fraction", gauge_of(1.5))), "exceeds 1"),
    ("required metric missing",
     dropping("query.throughput_qps"), "missing metric"),
    ("flash group incomplete",
     dropping("ssd.cache.host.trims"), "present but"),
)


def self_test_layers():
    """A well-formed layer-bench file at the full counts from an
    optimized build: one record per layer plus every gated record."""
    def rec(name, unit, median, **extra):
        layer, _, short = name.partition("/")
        return {"layer": layer, "name": short, "unit": unit, "n": 20,
                "median": median, "min": 0.9 * median,
                "mad": 0.02 * median, **extra}
    daat = 0x5EED  # made-up fingerprints: the pins live in the bench
    records = [
        rec("storage/nand_program_erase", "ns/op", 6.0),
        rec("ftl/page_run20", "ns/page", 50.0),
        rec("cache/flat_lru_churn_65536", "ns/op", 48.0),
        rec("workload/zipf", "ns/op", 25.0),
        rec("engine/daat_exhaustive", "us/query", 400.0, fingerprint=daat,
            pin=daat),
        rec("engine/daat_traced_idle", "us/query", 402.0, fingerprint=daat),
        rec("engine/daat_block_max", "us/query", 370.0, fingerprint=daat),
        rec("engine/trace_overhead", "ratio", 1.01, at_most=1.1),
        rec("engine/block_max_speedup", "ratio", 1.07, at_least=1),
        rec("hybrid/cache", "us/query", 1.2, fingerprint=300, pin=300),
        rec("hybrid/ssd", "us/query", 3.0, fingerprint=500, pin=500),
    ]
    for name, size in (("raw_bytes", 24_000_000), ("packed_bytes", 3_000_000)):
        records.append({"layer": "index", "name": name, "unit": "bytes",
                        "n": 1, "median": size, "min": size, "mad": 0})
    records.append({"layer": "index", "name": "packed_ratio", "unit": "ratio",
                    "n": 1, "median": 8, "min": 8, "mad": 0, "at_least": 2.5})
    return {"bench": "layer_bench", "schema_version": 1, "optimized": True,
            "full_counts": True, "records": records}


def with_record(name, **fields):
    """A corruption that overwrites fields of one layer-bench record
    (None drops the field)."""
    def mutate(doc):
        for r in doc["records"]:
            if f"{r['layer']}/{r['name']}" == name:
                r.update(fields)
                for key in [k for k, v in fields.items() if v is None]:
                    del r[key]
    return mutate


LAYER_PROBES = (
    ("pin mismatch at the full count",
     with_record("hybrid/ssd", fingerprint=501), "pin mismatch"),
    ("negative MAD", with_record("ftl/page_run20", mad=-1.0), "mad -1.0"),
    ("min above the median",
     with_record("cache/flat_lru_churn_65536", min=49.0), "above median"),
    ("trace guard over budget",
     with_record("engine/trace_overhead", median=1.2), "trace guard"),
    ("block-max slower than exhaustive",
     with_record("engine/block_max_speedup", median=0.9, min=0.8),
     "pruning"),
    ("compression below its bound",
     lambda doc: [with_record(name, median=v, min=v)(doc) for name, v in
                  (("index/packed_bytes", 12e6), ("index/packed_ratio", 2.0))],
     "packed_ratio median 2.0 breaks at_least"),
    ("compression ratio off the byte counts",
     with_record("index/packed_bytes", median=6_000_000, min=6_000_000),
     "not raw/packed"),
    ("gated ratio without its bound",
     with_record("engine/block_max_speedup", at_least=None),
     "carries no at_least"),
)


def rejection(doc):
    """None if the checker accepts `doc`, else its message."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            check_document(doc, "self-test")
    except CheckError as e:
        return str(e)
    return None


def self_test():
    failures = []
    probes = 0
    for base, table in ((self_test_report(), SELF_TEST_PROBES),
                        (self_test_layers(), LAYER_PROBES)):
        err = rejection(base)
        if err is not None:
            print(f"self-test FAIL: well-formed document rejected: {err}")
            return 1
        for what, mutate, expected in table:
            doc = copy.deepcopy(base)
            mutate(doc)
            err = rejection(doc)
            if err is None:
                failures.append(f"{what}: corruption accepted")
            elif expected not in err:
                failures.append(f"{what}: rejected for another reason: {err}")
        probes += len(table)
    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}")
        return 1
    print("self-test OK: well-formed report and layer file accepted, "
          f"{probes} corruptions rejected")
    return 0


# bench name -> (checker, the schema_version it reads)
CHECKERS = {
    "layer_bench": (check_layer_bench, 1),
    "ext_faults": (check_ext_faults, 1),
    "ext_ingest": (check_ext_ingest, 1),
    "ext_traffic": (check_ext_traffic, 1),
    "ext_replica": (check_ext_replica, 1),
}


def check_document(doc, path):
    if doc.get("report") == "telemetry":
        checker, version = check_telemetry, 2
    elif doc.get("bench") in CHECKERS:
        checker, version = CHECKERS[doc["bench"]]
    else:
        fail(f"{path}: not a {'/'.join(CHECKERS)} bench file or a "
             "telemetry report")
    require(doc.get("schema_version") == version,
            f"unsupported schema_version {doc.get('schema_version')!r}")
    checker(doc, path)


def check_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")
    check_document(doc, path)


def main():
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    try:
        if len(sys.argv) < 2:
            fail("usage: check_bench_json.py <file.json> [more.json ...]")
        for path in sys.argv[1:]:
            check_file(path)
    except CheckError as e:
        print(f"check_bench_json: FAIL: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
