#!/usr/bin/env python3
"""The repo benchmark: cost per completed broker discovery.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_wan --seed 1 --seconds 20 --trace 0

One run builds the workload's world from ``--seed``, then repeats
*episodes* (set-up, timed region of discoveries, output checks) until
``--seconds`` are spent, at least three times.  ``--trace 0`` prints
the end-to-end metrics, with times scaled to a nominal machine by the
reference kernel of ``calibrate.py``; ``--trace 1`` first measures one untraced
episode (the tracing-overhead baseline), then installs span tracing
(``tracing.py``) and prints the per-layer metrics (``layers.py``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A failed output
check prints ``correct: false`` and exits 1.  A traced run writes its spans
and a per-module self-time summary to ``.perfbench/<workload>-*``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Episodes per run, however long each takes: ``setup_s`` and the
#: per-episode rates are medians over at least this many.
MIN_EPISODES = 3

#: ``name -> unit`` of the end-to-end metrics (defined in README.md).
END_TO_END = {
    "setup_s": "s",
    "discoveries_per_s": "1/s",
    "cpu_us_per_discovery": "us",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def _load_program():
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"error: the program's sources are missing ({src / 'repro'})")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _episode(workload, seed: int, store=None):
    """One set-up plus one timed region; returns its measurements.

    Untraced, a calibrator (``calibrate.py``) runs reference slices next
    to the set-up and inside the timed region; their time is taken out
    of the region and their speed gives the episode's scale factors.
    With a span ``store`` (traced run) there is no calibrator, spans are
    recorded in the timed region only, and the program's counters are
    read around it.
    """
    from calibrate import Calibrator

    gc.collect()
    cal = Calibrator() if store is None else None
    if cal is not None:
        cal.slice()
    t0 = time.perf_counter()
    world = workload.setup(seed)
    setup_s = time.perf_counter() - t0
    if cal is not None:
        cal.slice()
        setup_scale = cal.wall_scale()
        cal = Calibrator(slice_events=workload.CAL_SLICE_EVENTS)
    try:
        before = workload.counters(world) if store is not None else {}
        if store is not None:
            store.recording = True
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if cal is not None:
            cal.slice()  # every region has at least one slice
        result = workload.run(world, cal)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if store is not None:
            store.recording = False
        if cal is not None:
            wall -= cal.wall_s
            cpu -= cal.cpu_s
        after = workload.counters(world) if store is not None else {}
        problems = workload.check(world, result)
    finally:
        workload.teardown(world)
    delta = {k: after[k] - before.get(k, 0.0) for k in after}
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "cal_wall_s": cal.wall_s if cal is not None else 0.0,
        "setup_scale": setup_scale if cal is not None else 1.0,
        "wall_scale": cal.wall_scale() if cal is not None else 1.0,
        "cpu_scale": cal.cpu_scale() if cal is not None else 1.0,
        "result": result,
        "counters": delta,
        "problems": problems,
    }


def _run_episodes(workload, seed: int, seconds: float, store=None):
    """Episodes until ``seconds`` are spent.

    A traced run needs one episode, not MIN_EPISODES (its metrics are
    totals, not medians), and also stops before the span store fills: an
    episode that overflows it is dropped with its spans, so every
    counted discovery has all of its spans.
    """
    minimum = 1 if store is not None else MIN_EPISODES
    episodes = []
    started = time.perf_counter()
    while True:
        mark = len(store) if store is not None else 0
        episode = _episode(workload, seed, store)
        if store is not None and store.full:
            if not episodes:
                raise RuntimeError(f"one {workload.name} episode overflows the span store")
            store.truncate(mark)
            break
        episodes.append(episode)
        elapsed = time.perf_counter() - started
        if len(episodes) >= minimum and elapsed * (1 + 1 / len(episodes)) > seconds:
            break
    return episodes


def _problems(workload, episodes) -> list[str]:
    problems = [p for ep in episodes for p in ep["problems"]]
    for ep in episodes:
        if ep["result"].completed < 1:
            problems.append("an episode completed no discovery")
    if workload.deterministic:
        first = episodes[0]["result"].fingerprint
        if any(ep["result"].fingerprint != first for ep in episodes[1:]):
            problems.append("episodes of one seed disagree: the simulation is not deterministic")
    return problems


def _pooled(episodes, field: str) -> list:
    return [x for ep in episodes for x in getattr(ep["result"], field)]


def end_to_end(workload, episodes) -> dict[str, float]:
    """The end-to-end metrics; times are scaled to the nominal machine.

    A wall-paced workload's wall time is set by its timers and sleeps,
    not by the machine's speed, so its ``setup_s`` is unscaled and its
    ``discoveries_per_s`` is answered requests over the whole timed
    region, slices included, unscaled.
    """

    def setup(ep) -> float:
        return ep["setup_s"] * (1.0 if workload.wall_paced else ep["setup_scale"])

    def rate(ep) -> float:
        if workload.wall_paced:
            return ep["result"].completed / (ep["wall_s"] + ep["cal_wall_s"])
        return ep["result"].completed / (ep["wall_s"] * ep["wall_scale"])

    from stats import percentile

    latencies = _pooled(episodes, "latencies_ms")
    return {
        "setup_s": statistics.median([setup(ep) for ep in episodes]),
        "discoveries_per_s": statistics.median([rate(ep) for ep in episodes]),
        "cpu_us_per_discovery": statistics.median(
            [ep["cpu_s"] * ep["cpu_scale"] * 1e6 / ep["result"].completed for ep in episodes]
        ),
        "latency_p50_ms": percentile(latencies, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _traced(workload, seed: int, seconds: float, out_dir: Path):
    import layers
    import tracing

    started = time.perf_counter()
    baseline = _episode(workload, seed)
    untraced_cpu = baseline["cpu_s"] / max(baseline["result"].completed, 1)

    store = tracing.SpanStore()
    uninstall = tracing.install(store)
    try:
        remaining = max(seconds - (time.perf_counter() - started), 0.0)
        episodes = _run_episodes(workload, seed, remaining, store)
    finally:
        uninstall()
    spans = store.aggregate()
    completed = sum(ep["result"].completed for ep in episodes)
    timed_cpu = sum(ep["cpu_s"] for ep in episodes)
    counters: dict[str, float] = {}
    for ep in episodes:
        for k, v in ep["counters"].items():
            counters[k] = counters.get(k, 0.0) + v
    metrics = layers.compute(
        spans,
        counters,
        completed=completed,
        attempted=sum(ep["result"].attempted for ep in episodes),
        failed=sum(ep["result"].failed for ep in episodes),
        latencies_ms=_pooled(episodes, "latencies_ms"),
        lateness_ms=_pooled(episodes, "lateness_ms"),
        phases_ms=_pooled(episodes, "phases_ms"),
        transmissions=_pooled(episodes, "transmissions"),
        pending_peak=store.pending_peak,
        attributed_ns=store.root_ns(),
        timed_cpu_s=timed_cpu,
        overhead_ratio=(timed_cpu / max(completed, 1)) / untraced_cpu if untraced_cpu else 0.0,
        live=not workload.deterministic,
    )
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / workload.name
    store.write(f"{stem}-spans.npz")
    summary = {
        "workload": workload.name,
        "seed": seed,
        "episodes": len(episodes),
        "completed": completed,
        "spans": len(store),
        "span_cap_reached": store.full,
        "module_self_us_per_discovery": {
            k: v / max(completed, 1) for k, v in layers.module_self_us(spans).items()
        },
        "predictions": predictions(workload.name, metrics, spans, completed),
        "metrics": metrics,
    }
    Path(f"{stem}-summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return episodes, metrics, summary


def predictions(workload: str, m: dict[str, float], spans, completed: int) -> list[dict]:
    """The layer split the benchmark predicts, checked on this workload.

    A mismatch is reported, not raised: it is a finding about the
    program (or about the prediction), not a failed output check.  A
    claim that names neither outcome for this workload is only observed.
    """
    d = max(completed, 1)
    avg_rtt_us = spans.get("repro.discovery.ping:Pinger.average_rtt", (0, 0))[1] / 1e3 / d
    groups = {
        "registry read path": m["registry.all.self_us"] + avg_rtt_us + m["bdn.handler.self_us"],
        "requester+selection": (
            m["requester.handler.self_us"] + m["selection.select_target_set.self_us"]
        ),
        "responder": m["responder.handler.self_us"],
        "ping (other)": m["ping.self_us"] - avg_rtt_us,
        "registry writes": m["registry.accept.self_us"],
        "replication": m["replication.self_us"],
    }
    largest = max(groups, key=groups.get)
    codec_obs = m["codec.encode.self_us"] + m["codec.decode.self_us"] + m["obs.self_us"]
    rows = [
        (
            "registry read path is the largest discovery-layer self time",
            {"flash_crowd": True, "paper_wan": False}.get(workload),
            largest == "registry read path",
            f"largest: {largest} ({groups[largest]:.1f} us/discovery)",
        ),
        (
            "codec encode/decode and obs self time are non-zero",
            workload == "live_loopback",
            codec_obs > 0,
            f"encode {m['codec.encode.self_us']:.2f} decode {m['codec.decode.self_us']:.2f} "
            f"obs {m['obs.self_us']:.2f} us/discovery",
        ),
        (
            "replication self time is non-zero",
            workload == "ad_churn",
            m["replication.self_us"] > 0,
            f"replication {m['replication.self_us']:.2f} us/discovery",
        ),
    ]
    return [
        {
            "claim": claim,
            "predicted": predicted,
            "observed": observed,
            "holds": None if predicted is None else predicted == observed,
            "detail": detail,
        }
        for claim, predicted, observed, detail in rows
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.trace:
        episodes, metrics, summary = _traced(workload, args.seed, args.seconds, ROOT / ".perfbench")
        import layers

        units = layers.PER_LAYER
        for row in summary["predictions"]:
            verdict = {True: "holds", False: "MISMATCH", None: "(no prediction)"}[row["holds"]]
            print(f"prediction {verdict}: {row['claim']} "
                  f"(predicted {row['predicted']}, {row['detail']})", file=sys.stderr)
    else:
        episodes = _run_episodes(workload, args.seed, args.seconds)
        metrics = end_to_end(workload, episodes)
        units = END_TO_END
    problems = _problems(workload, episodes)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(ep["result"].attempted for ep in episodes)
    failed = sum(ep["result"].failed for ep in episodes)
    print(
        f"{workload.name} seed {args.seed}: {len(episodes)} episodes, "
        f"{attempted - failed}/{attempted} discoveries completed "
        f"(latency percentiles over {len(_pooled(episodes, 'latencies_ms'))} samples)",
        file=sys.stderr,
    )
    record = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(record))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
