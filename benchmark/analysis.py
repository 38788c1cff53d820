"""Turns the raw record of vsparse_bench into the benchmark's metrics.

Pure functions only, so test_analysis.py can check them without a build:
percentile selection, span nesting and self time, and the comparison of
a result against the metric list in BENCHMARK.json.
"""

import math
import statistics

KERNELS = ("spmm_octet", "sddmm_octet", "hgemm_tcu", "spmm_fpu_subwarp",
           "spmm_blocked_ell", "sddmm_fpu_subwarp")
T2_KERNELS = ("spmm_fpu_subwarp", "spmm_blocked_ell", "sddmm_fpu_subwarp")
# Layers whose self time is reported, per kind of root span.  Spans named
# bench.* are the benchmark's own code and count as unattributed.
ROOT_LAYERS = {
    "setup": ("formats", "gpusim.device", "serve", "unattributed"),
    "pass": ("kernels", "formats", "gpusim.cache", "gpusim.costmodel",
             "serve", "unattributed"),
}


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def geomean(values):
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def layer_of(name):
    """formats.make_cvs -> formats; gpusim.costmodel.cycles ->
    gpusim.costmodel; bench.launch -> unattributed."""
    if name.startswith("bench."):
        return "unattributed"
    return name.rsplit(".", 1)[0]


def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    its children cover.  Spans must nest: a parent precedes its children
    and encloses them."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["end"] < s["start"]:
            raise ValueError(f"span {i} ({s['name']}) ends before it starts")
        p = s["parent"]
        if p < 0:
            continue
        if p >= i:
            raise ValueError(f"span {i} ({s['name']}) precedes its parent")
        parent = spans[p]
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            raise ValueError(f"span {i} ({s['name']}) leaves its parent "
                             f"{p} ({parent['name']})")
        children[p].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s["start"]
        for c in sorted(children[i], key=lambda c: spans[c]["start"]):
            lo = max(spans[c]["start"], reach)
            hi = spans[c]["end"]
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def layer_self_times(spans, root_name, layers):
    """Mean self time per root span named `root_name`, by layer.  Every
    second of a root is attributed to exactly one layer, so the layers
    sum to the root's duration."""
    own = self_times(spans)
    root_of = []
    for i, s in enumerate(spans):
        if s["name"] == root_name:
            root_of.append(i)
        elif s["parent"] >= 0:
            root_of.append(root_of[s["parent"]])
        else:
            root_of.append(-1)
    roots = [i for i, s in enumerate(spans) if s["name"] == root_name]
    totals = {layer: 0.0 for layer in layers}
    for i, s in enumerate(spans):
        if root_of[i] < 0:
            continue
        layer = layer_of(s["name"])
        if layer not in totals:
            raise ValueError(f"span {s['name']} belongs to no reported layer")
        totals[layer] += own[i]
    return {layer: (t / len(roots) if roots else 0.0)
            for layer, t in totals.items()}


def check_metrics(metrics, spec):
    """Raises ValueError unless `metrics` holds exactly the names of
    `spec` (a list of {"name", "unit", ...}) with the same units and a
    finite value each."""
    want = {m["name"]: m["unit"] for m in spec}
    missing = sorted(set(want) - set(metrics))
    extra = sorted(set(metrics) - set(want))
    if missing or extra:
        raise ValueError(f"metrics missing {missing}, unexpected {extra}")
    for name, unit in want.items():
        got = metrics[name]
        if got["unit"] != unit:
            raise ValueError(f"{name}: unit {got['unit']}, expected {unit}")
        if not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            raise ValueError(f"{name}: value {got['value']!r} is not finite")


def _passes(phase):
    return len(phase["pass_wall_s"])


def per_call_medians(times, passes):
    """Each call's median time across the passes, when every pass timed
    the same calls in the same order; otherwise the times as they are."""
    if passes < 2 or len(times) % passes:
        return list(times)
    n = len(times) // passes
    return [statistics.median(times[i::n]) for i in range(n)]


def _common(raw):
    phase = raw["untraced"]
    calls = per_call_medians(phase["launch_ms"], _passes(phase))
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "wall_s": (statistics.median(phase["pass_wall_s"]), "s"),
        "sim_ctas_per_s": (phase["ctas"] / sum(phase["pass_wall_s"]), "CTA/s"),
        "launch_ms_p50": (percentile(calls, 50), "ms"),
        "launch_ms_p90": (percentile(calls, 90), "ms"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }


def ledger_failures(raw):
    """Traces whose request ledger is not an exactly-once record of
    every submitted request."""
    per_trace = raw["requests"] // len(raw["ledgers"])
    bad = 0
    for ledger in raw["ledgers"]:
        ids = sorted(entry["id"] for entry in ledger)
        if ids != list(range(per_trace)):
            bad += 1
    return bad


def serve_latencies(raw):
    """Latency of every completed request, and the SLO headroom
    (deadline budget / latency) of every request that met its SLO."""
    latencies, headroom = [], []
    for ledger in raw["ledgers"]:
        for entry in ledger:
            if entry["outcome"] != "completed":
                continue
            latency = entry["latency"]
            latencies.append(latency)
            budget = entry["deadline"] - entry["arrival"]
            if 0 < latency <= budget:
                headroom.append(budget / latency)
    return latencies, headroom


def end_to_end(raw):
    """Every end-to-end metric, as {name: (value, unit)}."""
    out = _common(raw)
    if "serve" in raw:
        serve = raw["serve"]
        latencies, headroom = serve_latencies(raw)
        ticks = serve["final_ticks"]
        out.update({
            "model_cycles": (ticks, "cycles"),
            "speedup_geomean": (geomean(headroom), "x"),
            "goodput_per_mtick": (serve["slo_met"] * 1e6 / ticks, "1/Mtick"),
            "latency_ticks_p50": (percentile(latencies, 50), "ticks"),
            "latency_ticks_p99": (percentile(latencies, 99), "ticks"),
        })
    else:
        cycles = raw["launch_cycles"]
        total = sum(cycles)
        out.update({
            "model_cycles": (total, "cycles"),
            "speedup_geomean": (geomean(raw["speedups"]), "x"),
            "goodput_per_mtick": (len(cycles) * 1e6 / total, "1/Mtick"),
            "latency_ticks_p50": (percentile(cycles, 50), "ticks"),
            "latency_ticks_p99": (percentile(cycles, 99), "ticks"),
        })
    return out


def per_layer(raw, spans):
    """Every per-layer metric, as {name: (value, unit)}.  Layers a
    workload does not reach report 0."""
    phase = raw["untraced"]
    passes = _passes(phase)
    host = phase["kernel_host_s"]
    out = {
        "formats.generate_s": (statistics.median(raw.get("generate_s", [0])), "s"),
        "formats.upload_s": (statistics.median(raw.get("upload_s", [0])), "s"),
        "formats.nnz": (raw.get("nnz", 0), "count"),
    }
    kernels = raw.get("kernels", {})
    for k in KERNELS:
        agg = kernels.get(k, {"calls": 0, "ctas": 0, "warp_inst": 0,
                              "model_cycles": 0})
        host_s = host.get(k, 0.0) / passes
        inst = agg["warp_inst"]
        out.update({
            f"kernels.{k}.calls": (agg["calls"], "count"),
            f"kernels.{k}.host_s": (host_s, "s"),
            f"kernels.{k}.ctas": (agg["ctas"], "count"),
            f"kernels.{k}.warp_inst": (inst, "count"),
            f"kernels.{k}.ns_per_inst": (host_s / inst * 1e9 if inst else 0.0,
                                         "ns"),
            f"kernels.{k}.model_cycles": (agg["model_cycles"], "cycles"),
        })
    c = raw.get("counters", {})
    get = lambda key: c.get(key, 0)  # noqa: E731
    l1 = get("l1_hits") + get("l1_misses")
    l2 = get("l2_hits") + get("l2_misses")
    out.update({
        "gpusim.tensorcore.hmma": (get("hmma"), "count"),
        "gpusim.ops.hfma": (get("hfma"), "count"),
        "gpusim.ops.ffma": (get("ffma"), "count"),
        "gpusim.ops.imad": (get("imad"), "count"),
        "gpusim.engine.ldg_requests": (get("ldg_requests"), "count"),
        "gpusim.engine.stg_requests": (get("stg_requests"), "count"),
        "gpusim.engine.lds_requests": (get("lds_requests"), "count"),
        "gpusim.engine.sts_requests": (get("sts_requests"), "count"),
        "gpusim.engine.smem_wavefronts": (get("smem_wavefronts"), "count"),
        "gpusim.cache.l1_hit_ratio": (get("l1_hits") / l1 if l1 else 0.0, "ratio"),
        "gpusim.cache.l1_missed_sectors": (get("l1_misses"), "count"),
        "gpusim.cache.l2_hit_ratio": (get("l2_hits") / l2 if l2 else 0.0, "ratio"),
        "gpusim.cache.dram_bytes": (get("dram_bytes"), "B"),
        "gpusim.costmodel.calls": (phase["costmodel_calls"] / passes, "count"),
        "gpusim.costmodel.host_s": (phase["costmodel_s"] / passes, "s"),
    })
    t1 = raw.get("threads1")
    for k in T2_KERNELS:
        ratio = 0.0
        if t1 and host.get(k):
            ratio = t1["kernel_host_s"][k] / _passes(t1) / (host[k] / passes)
        out[f"gpusim.engine.t2_speedup.{k}"] = (ratio, "x")
    serve = raw.get("serve", {})
    run_load_s = host.get("run_load", 0.0) / passes
    requests = raw.get("requests", 0)
    out.update({
        "serve.run_load_s": (run_load_s, "s"),
        "serve.host_us_per_request": (
            run_load_s / requests * 1e6 if requests else 0.0, "us"),
    })
    for key in ("sim_ctas", "placements", "failovers", "hedges", "retries",
                "fallbacks", "quarantines", "policy_cache_rejections",
                "repro_bundles", "shed", "verify_counter_mismatches"):
        out[f"serve.{key}"] = (serve.get(key, 0), "count")
    for root, layers in ROOT_LAYERS.items():
        for layer, s in layer_self_times(spans, f"bench.{root}", layers).items():
            out[f"self_s.{root}.{layer}"] = (s, "s")
    traced = raw["traced"]["pass_wall_s"]
    out["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(phase["pass_wall_s"]),
        "ratio")
    return out
