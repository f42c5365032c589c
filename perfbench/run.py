#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, runs one workload and
prints one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. Workloads (BENCHMARK.json says why each
was chosen):

  client_paper  CkksParams::bootstrappable() round trip, no daemon
  served_churn  Server, 2 workers, UDS, 8 tenants cycling 16 keys through
                a 4-key cache: every key lookup misses and regenerates

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run (spans around calls into each module, plus the
residual no layer span covers and the tracing overhead). The build goes to
.bench_build/perfbench. Before the result line, a "run" line records the
environment (kernel tier, nproc, build type, parameter set, seed), the
exact counts and the key-cache deltas of the timed phases.

Every answer is checked. The run exits 1 if any answer fails, if the exact
counts (bytes up/down, op counts, key-cache hits/misses/evictions) differ
between the two count passes of this run or from an earlier run in this
checkout, or if served_churn's key cache hits in a timed phase.
"""

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import perfstats  # noqa: E402

WORKLOADS = ("client_paper", "served_churn")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "upload_p50_ms": "ms",
    "download_p50_ms": "ms",
    "throughput_rps": "1/s",
}

# Span name -> per-layer metric (median per request of the span's self time).
SPAN_METRICS = {
    "ckks.encode": "ckks.encode_ms",
    "ckks.encrypt": "ckks.encrypt_ms",
    "ckks.serialize": "ckks.serialize_ms",
    "ckks.deserialize": "ckks.deserialize_ms",
    "ckks.mod_switch": "ckks.mod_switch_ms",
    "ckks.decrypt": "ckks.decrypt_ms",
    "ckks.decode": "ckks.decode_ms",
    "client.verify": "client.verify_ms",
    "ckks.keyswitch": "ckks.keyswitch_ms",
    "ckks.relin": "ckks.relin_ms",
    "prng.uniform": "prng.uniform_ms",
    "prng.gaussian": "prng.gaussian_ms",
    "transform.ntt_fwd": "transform.ntt_fwd_ms",
    "server.call": "server.call_ms",
    "server.process": "server.process_ms",
    "server.key_regen": "server.key_regen_ms",
    "transport.uds_call": "transport.uds_call_ms",
}

# Exact per-request counts from the count pass.
COUNT_METRICS = {
    "ckks.upload_bytes": "bytes",
    "ckks.download_bytes": "bytes",
    "transform.ntt_ops": "count",
    "transform.fft_ops": "count",
    "simd.dyadic_ops": "count",
    "keycache.hits": "count",
    "keycache.misses": "count",
    "keycache.evictions": "count",
}

PER_LAYER = {
    **{m: "ms" for m in SPAN_METRICS.values()},
    **COUNT_METRICS,
    "keycache.hit_ratio": "ratio",
    "server.steals": "count",
    "server.dispatch_ms": "ms",
    "transport.overhead_ms": "ms",
    "residual_ms": "ms",
    "trace.overhead_ms": "ms",
}

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170  # every perfbench process of one run together
SETUPS = 3  # set-up is timed in this many fresh processes


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures once, then (re)builds the perfbench target."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j2"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def latencies(samples, column=0):
    """One timing column per request (0 req, 1 upload, 2 download); a
    failed request counts as infinitely slow, a miss in every percentile."""
    return [s[column] if s[3] else math.inf for s in samples]


def end_to_end(raw):
    lat = raw["latency"]
    ok = sum(1 for s in lat if s[3])
    attempted = len(lat)
    if "throughput" in raw:
        tp = raw["throughput"]
        ok += tp["ok"]
        attempted += tp["ok"] + tp["failed"]
        rps = tp["ok"] / tp["elapsed_s"]
    else:
        # Single-client loop: verified round trips per second.
        rps = sum(1 for s in lat if s[3]) / raw["latency_elapsed_s"]
    req = latencies(lat)
    metrics = {
        "setup_s": perfstats.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "ok_ratio": ok / attempted,
        "req_p50_ms": perfstats.median(req),
        "req_p90_ms": perfstats.percentile(req, 0.9),
        "upload_p50_ms": perfstats.median(latencies(lat, 1)),
        "download_p50_ms": perfstats.median(latencies(lat, 2)),
        "throughput_rps": rps,
    }
    return metrics, attempted, attempted - ok


def per_layer(raw):
    spans = [dict(zip(("tree", "id", "parent", "name", "start", "end"), s))
             for s in raw["spans"]]
    for s in spans:
        s["start"] /= 1e6  # ns -> ms
        s["end"] /= 1e6
    layers = perfstats.layer_medians(spans)
    # A layer the workload's request never enters reports 0.
    metrics = {m: layers.get(name, 0.0) for name, m in SPAN_METRICS.items()}
    counts = raw["counts"]
    for m in COUNT_METRICS:
        metrics[m] = counts.get(m, 0.0)
    lookups = metrics["keycache.hits"] + metrics["keycache.misses"]
    metrics["keycache.hit_ratio"] = (
        metrics["keycache.hits"] / lookups if lookups else 0.0)
    tp = raw.get("throughput")
    metrics["server.steals"] = (
        tp["steals"] / (tp["ok"] + tp["failed"]) if tp else 0.0)
    if "server.call" in layers:
        metrics["server.dispatch_ms"] = (
            layers["server.call"] - layers["server.process"])
        metrics["transport.overhead_ms"] = (
            layers["transport.uds_call"] - layers["server.call"])
    else:
        metrics["server.dispatch_ms"] = 0.0
        metrics["transport.overhead_ms"] = 0.0
    roots = [s["end"] - s["start"] for s in spans
             if s["parent"] == 0 and s["name"] == "request"]
    leaves = perfstats.leaf_names(spans, "request")
    metrics["residual_ms"] = perfstats.residual(
        perfstats.median(roots), [layers[n] for n in sorted(leaves)])
    traced = latencies(raw["traced_latency"])
    untraced = latencies(raw["latency"])
    metrics["trace.overhead_ms"] = (
        perfstats.median(traced) - perfstats.median(untraced))
    samples = raw["latency"] + raw["traced_latency"]
    attempted = len(samples)
    failed = sum(1 for s in samples if not s[3])
    if "throughput" in raw:
        attempted += raw["throughput"]["ok"] + raw["throughput"]["failed"]
        failed += raw["throughput"]["failed"]
    return metrics, attempted, failed


def run_perfbench(cmd, started):
    """Runs one perfbench process and returns its JSON document."""
    left = RUN_TIMEOUT_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=max(left, 1), check=False)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"timed out after {RUN_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    return json.loads(proc.stdout)


def check_counts(build_dir, workload, counts, errors):
    """The exact counts must repeat across runs in this checkout."""
    path = build_dir / f"counts-{workload}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            errors.append(f"exact counts differ from an earlier run: "
                          f"{earlier} vs {counts}")
    else:
        path.write_text(json.dumps(counts, sort_keys=True))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = Path.cwd()
    build_dir = root / ".bench_build" / "perfbench"
    try:
        binary = build(root, build_dir)
    except (subprocess.SubprocessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    try:
        # Set-up-only processes first; the measuring process is the last.
        setups = [] if args.trace else [
            run_perfbench(cmd + ["--setup-only", "1"], started)["setup_s"]
            for _ in range(SETUPS - 1)]
        raw = run_perfbench(cmd, started)
    except RuntimeError as e:
        log(str(e))
        return 1
    raw["setup_s"] = setups + [raw["setup_s"]]

    errors = list(raw["errors"])
    check_counts(build_dir, args.workload, raw["counts"], errors)
    try:
        if args.trace:
            metrics, attempted, failed = per_layer(raw)
            units = PER_LAYER
        else:
            metrics, attempted, failed = end_to_end(raw)
            units = END_TO_END
    except perfstats.NotEnoughSamples as e:
        log(f"too few samples: {e}")
        return 1
    correct = failed == 0 and not errors

    for e in errors:
        log(e)

    print(json.dumps({"run": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": raw["env"], "counts": raw["counts"],
        "keycache_timed": raw["keycache_timed"],
    }}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else sys.float_info.max,
                   "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
