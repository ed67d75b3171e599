"""cake benchmark: one workload per run, one JSON result on the last line.

    python3 perfbench/run.py --workload brie|exchange|serve --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...    # every workload in turn

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs the workload twice for S/2 seconds each, untraced and
then traced, and reports the per-layer metrics of the traced half plus the
tracing overhead (traced over untraced median latency of the workload's
main operation). Lines before the last one are a human-readable report
naming every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spans
from measure import percentile

SRC = Path(__file__).resolve().parent.parent / "src"

WORKLOAD_NAMES = ("brie", "exchange", "serve")

# The operation each workload's op_ms_* metrics time.
MAIN_OP = {"brie": "scenario", "exchange": "read", "serve": "store"}
SHAPE = {
    "brie": "closed loop, 1 caller, in-process transport",
    "exchange": "closed loop, 1 caller, in-process transport",
    "serve": "closed loop, 2 client threads over TCP (1 storing, 1 requesting "
             "keys), 1 connection each; server in its own process",
}
# Failure classes reported as their own per-layer count; the rest are summed.
FAILED_CLASSES = ("check", "TransportClosed", "RemoteServiceError", "LedgerRejected")


def end_to_end(name: str, result) -> dict[str, tuple[float, str, int]]:
    """The gated metrics: name -> (value, unit, sample count).

    The p99 of the main operation is reported by :func:`named_metrics` but
    not gated: it rests on ten samples, and host stalls move it far more
    than any bound allows.
    """
    samples = result.log.samples[MAIN_OP[name]]
    return {
        "setup_s": (statistics.median(result.setup_s), "s", len(result.setup_s)),
        "peak_rss_mb": (result.peak_rss_mb, "MiB", 1),
        "ops_per_s": (result.ops_completed / result.timed_s, "1/s",
                      result.ops_completed),
        "op_ms_p50": (percentile(samples, 50), "ms", len(samples)),
    }


def named_metrics(name: str, result) -> list[tuple[str, object, str, object]]:
    """Every metric of the workload under its own name, for the report."""
    log = result.log
    rows: list[tuple[str, object, str, object]] = [
        (metric, *measured) for metric, measured in end_to_end(name, result).items()
        if metric != "op_ms_p50"]
    rows.append(("error_rate", log.failed_total / log.attempted, "ratio",
                 f"{log.failed_total}/{log.attempted}"))
    wanted = {"brie": [("scenario", 50), ("scenario", 99)],
              "exchange": [("read", 50), ("read", 99), ("store", 50), ("key", 50)],
              "serve": [("store", 50), ("store", 99), ("key", 50)]}[name]
    for kind, q in wanted:
        samples = log.samples[kind]
        value = percentile(samples, q)
        rows.append((f"{kind}_ms_p{q}", "n/a" if value is None else value, "ms",
                     len(samples)))
    if result.verify_s:
        rows.append(("verify_s", statistics.median(result.verify_s), "s",
                     len(result.verify_s)))
    return rows


def per_layer(name: str, summary: dict, traced, untraced) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run: metric -> (value, unit).

    ``traced`` and ``untraced`` are the two halves of the run; their failures
    are counted together, and the median latency of the workload's main
    operation in each gives the tracing overhead.
    """
    calls, self_ns = summary["calls"], summary["self_ns"]
    pairs, counters = summary["pairs"], summary["counters"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for span in spans.SPAN_NAMES:
        metrics[f"{span}.calls"] = (calls.get(span, 0), "count")
        time_name = "wait_ms" if span == "protocol.recv_frame" else "self_ms"
        metrics[f"{span}.{time_name}"] = (self_ns.get(span, 0) / 1e6, "ms")
    client_ops = sum(calls.get(f"protocol.{op}", 0) for op in (
        "ServiceClient.store", "ServiceClient.certify",
        "ServiceClient.request_key", "client_read"))
    metrics.update({
        "abe.unwrap_useful_ratio": (ratio(counters.get("abe.shares_needed", 0),
                                          counters.get("abe.shares_unwrapped", 0)),
                                    "ratio"),
        "abe.wrap_keys_per_slice": (ratio(
            pairs.get("abe.encrypt_slice>abe.attribute_wrap_key", 0),
            calls.get("abe.encrypt_slice", 0)), "ratio"),
        "policy.parses_per_decrypt": (ratio(
            pairs.get("abe.decrypt_slice>policy.parse_policy", 0),
            calls.get("abe.decrypt_slice", 0)), "ratio"),
        "cas.bytes_put": (counters.get("cas.bytes_put", 0), "B"),
        "cas.bytes_get": (counters.get("cas.bytes_get", 0), "B"),
        "ledger.txs_per_block": (ratio(counters.get("ledger.txs_sealed", 0),
                                       calls.get("ledger.Chain.seal_block", 0)),
                                 "ratio"),
        "ledger.blocks_verified": (ratio(counters.get("ledger.blocks_verified", 0),
                                         calls.get("ledger.Chain.verify", 0)),
                                   "count"),
        "ledger.blocks_loaded": (ratio(counters.get("ledger.blocks_loaded", 0),
                                       calls.get("ledger.Chain.load", 0)), "count"),
        "protocol.handshakes_per_op": (ratio(calls.get("protocol.client_handshake", 0),
                                             client_ops), "ratio"),
    })
    failed = traced.log.failed + untraced.log.failed
    for cls in FAILED_CLASSES:
        metrics[f"failed.{cls}"] = (failed.get(cls, 0), "count")
    metrics["failed.other"] = (sum(n for cls, n in failed.items()
                                   if cls not in FAILED_CLASSES), "count")
    before = percentile(untraced.log.samples[MAIN_OP[name]], 50)
    after = percentile(traced.log.samples[MAIN_OP[name]], 50)
    metrics["trace.overhead_pct"] = (
        100 * (after / before - 1) if before and after else 0.0, "%")
    return metrics


def print_report(name: str, args, result) -> None:
    print(f"[{name}] {SHAPE[name]}; seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}")
    print(f"  {'metric':<22} {'value':>12}  {'unit':<6} samples")
    for metric, value, unit, n in named_metrics(name, result):
        shown = f"{value:12.4f}" if isinstance(value, float) else f"{value!s:>12}"
        print(f"  {metric:<22} {shown}  {unit:<6} {n}")
    print(f"  failed ops by class: {dict(result.log.failed) or 'none'}")
    for cls, message in result.log.first_error.items():
        print(f"    first {cls}: {message}")


def run_one(args) -> int:
    import workloads  # imports cake, so only once src/ is on the path

    runner = workloads.WORKLOADS[args.workload]
    if not args.trace:
        result = runner(args.seed, args.seconds, None)
        print_report(args.workload, args, result)
        gated = end_to_end(args.workload, result)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in gated.items()}
        log = result.log
    else:
        half = args.seconds / 2
        untraced = runner(args.seed, half, None)
        tracer = spans.Tracer()
        traced = runner(args.seed, half, tracer)
        summary = spans.merge_summaries(
            [tracer.summary(), traced.server_trace or {}])
        workloads.WORK.mkdir(exist_ok=True)
        tracer.write_spans(workloads.WORK / f"{args.workload}.spans.jsonl")
        print_report(args.workload, args, traced)
        layer = per_layer(args.workload, summary, traced, untraced)
        print(f"  tracing overhead on {MAIN_OP[args.workload]} p50: "
              f"{layer['trace.overhead_pct'][0]:+.1f}%")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layer.items()}
        log = untraced.log
        log.merge(traced.log)
    # correct: every output check held. failed also counts operations that
    # raised, which return no output to check.
    print(json.dumps({"correct": log.failed["check"] == 0, "attempted": log.attempted,
                      "failed": log.failed_total, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        status |= subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False).returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cake" / "__init__.py").is_file():
        print(f"perfbench: no cake sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
