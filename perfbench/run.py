"""golodkit benchmark: four workloads against the public API, checked outputs.

One workload in this process:

    python3 perfbench/run.py --workload predicate --seed 1 --seconds 25 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones (pass time, item latency, set-up time, peak RSS); with
``--trace 1`` they are the per-layer ones taken from spans around golodkit's
entry points (see spans.py).

Every workload, one fresh interpreter after another, untraced then traced:

    python3 perfbench/run.py [--seed 1] [--seconds 25]

A run builds its inputs SETUP_REPEATS times and reports the median set-up
time, then runs passes over the workload's items until the next pass would
end after ``--seconds``; at least one pass always runs.  An item's latency is
its median over the passes.  Outputs are checked after the timed region:
against the pinned outputs in expected.json for corpus items, and against
identities that hold for every input (see workloads.py).

Times are reference-scaled.  The host's speed drifts by up to a factor of two
over a minute (measured on the machine in baseline.json: the same pass took
1.1-2.0 s within 40 s), far more than a regression bound.  So every run
times a fixed pure-Python kernel before every pass, after every item and
after every set-up, and scales each item and each set-up by REF_NOMINAL_S /
(kernel time around it): a scaled time is the time the work would take on a
host that runs the kernel in REF_NOMINAL_S.  The raw wall times are printed
on the ``raw`` line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
TAIL_BEYOND = 10  # samples beyond the tail percentile
REF_NOMINAL_S = 0.001  # kernel time on the machine in baseline.json, about 1 ms
REF_SETUP_SAMPLES = 25
REF_ITEM_SAMPLES = 3
REF_WINDOW_S = 0.25

END_TO_END = [
    ("pass_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def reference_kernel():
    """Fixed work in the style of golodkit's inner loops: Fractions, tuple keys, dicts."""
    acc = {}
    f = Fraction(1, 3)
    for i in range(160):
        key = (i % 7, i % 11, i % 13)
        acc[key] = acc.get(key, Fraction(0)) + f * (i % 5 - 2)
    return sorted(acc)


def time_kernel() -> float:
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_golodkit():
    """Import golodkit from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "golodkit" or m.startswith("golodkit.")]:
        del sys.modules[name]
    gk = importlib.import_module("golodkit")
    importlib.import_module("golodkit.cli")
    if Path(gk.__file__).resolve().parent.parent != SRC.resolve():
        fail(f"golodkit was imported from {gk.__file__}, not from {SRC}")
    return gk


def make_workdir(tag: str) -> Path:
    """Scratch directory for session files, inside the checkout."""
    return ROOT / ".perfbench-work" / tag


def drop_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def setup(name: str, seed: int, workdir: Path):
    """Import golodkit, build the corpus and seeded inputs, write sessions."""
    raw = []
    scaled = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = perf_counter()
        workdir.mkdir(parents=True)
        gk = import_golodkit()
        wl = workloads.WORKLOADS[name](gk, seed, workdir)
        raw.append(perf_counter() - t0)
        ref = statistics.median(time_kernel() for _ in range(REF_SETUP_SAMPLES))
        scaled.append(raw[-1] * REF_NOMINAL_S / ref)
    return gk, wl, statistics.median(raw), statistics.median(scaled)


def reference_speed() -> float:
    """Median of REF_ITEM_SAMPLES kernel times: the host's speed at this moment."""
    return statistics.median(time_kernel() for _ in range(REF_ITEM_SAMPLES))


def run_passes(items, seconds: float, tracer):
    """Timed passes; returns per-pass walls, per-item times and outputs.

    The reference kernel runs before every pass and after every item, outside
    the items' times.  ``scaled`` holds each item time times REF_NOMINAL_S
    over the median of the kernel times taken from REF_WINDOW_S before the
    item to REF_WINDOW_S after it: short items share many kernel times, and a
    change of host speed under a long item is scaled out where it happens.
    ``factors`` holds each pass's scaled over unscaled item-time sum.
    """
    times = [[] for _ in items]
    scaled = [[] for _ in items]
    outputs = [[] for _ in items]
    walls = []
    factors = []
    counter_deltas = []
    item_pass = []
    start = perf_counter()
    while True:
        gc.collect()
        before = tracer.counter_snapshot() if tracer else {}
        ref_at = [perf_counter()]
        refs = [reference_speed()]
        bounds = []
        t_pass = perf_counter()
        for i, item in enumerate(items):
            t0 = perf_counter()
            try:
                if tracer:
                    out = tracer.run_item(len(item_pass), item.run)
                else:
                    out = item.run()
            except Exception as exc:  # a raising item counts as failed
                out = exc
            t1 = perf_counter()
            times[i].append(t1 - t0)
            outputs[i].append(out)
            item_pass.append(len(walls))
            bounds.append((t0, t1))
            refs.append(reference_speed())
            ref_at.append(t1)
        now = perf_counter()
        for i, (t0, t1) in enumerate(bounds):
            lo = bisect_left(ref_at, t0 - REF_WINDOW_S)
            near = refs[lo:bisect_right(ref_at, t1 + REF_WINDOW_S)]
            scaled[i].append(times[i][-1] * REF_NOMINAL_S / statistics.median(near))
        k = len(walls)
        walls.append(now - t_pass)
        factors.append(sum(s[k] for s in scaled) / sum(t[k] for t in times))
        if tracer:
            after = tracer.counter_snapshot()
            counter_deltas.append({k: after[k] - before[k] for k in after})
        elapsed = now - start
        if elapsed + elapsed / len(walls) > seconds:
            break
    return walls, factors, times, scaled, outputs, counter_deltas, item_pass


def verify(workload_name: str, items, outputs, expected: dict):
    """Failed executions per item, plus messages; outside any timed region."""
    pins = expected.get(workload_name, {})
    failed = [0] * len(items)
    messages = []
    signatures = []
    for i, item in enumerate(items):
        outs = outputs[i]
        if any(isinstance(o, Exception) for o in outs):
            exc = next(o for o in outs if isinstance(o, Exception))
            failed[i] = len(outs)
            messages.append(f"{item.name}: raised {type(exc).__name__}: {exc}")
            signatures.append(f"raised {type(exc).__name__}")
            continue
        sigs = [item.signature(o) for o in outs]
        signatures.append(sigs[0])
        problems = []
        if not item.seeded:
            if item.name not in pins:
                problems.append("no pinned output")
            elif sigs[0] != pins[item.name]:
                problems.append("output differs from the pinned output")
        try:
            problems += item.check(outs[0])
        except Exception as exc:
            problems.append(f"check raised {type(exc).__name__}: {exc}")
        if problems:
            failed[i] = len(outs)
        else:
            failed[i] = sum(1 for s in sigs if s != sigs[0])
            if failed[i]:
                problems.append("output changed between passes")
        messages += [f"{item.name}: {p}" for p in problems]
    return failed, messages, signatures


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    idx = max(n - TAIL_BEYOND - 1, 0)
    return ordered[idx], 100.0 * (idx + 1) / n


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "golodkit" / "__init__.py").is_file():
        fail(f"no golodkit sources under {SRC}")
    workdir = make_workdir(str(os.getpid()))
    try:
        gk, wl, setup_raw_s, setup_s = setup(name, seed, workdir)
        tracer = None
        if trace:
            tracer = spans.Tracer()
            missing = tracer.install()
            for path in missing:
                print(f"perfbench: not traced, absent: {path}", file=sys.stderr)
        gc.collect()
        walls, factors, times, scaled, outputs, deltas, item_pass = run_passes(
            wl.items, seconds, tracer)
        if tracer:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        expected = json.loads((HERE / "expected.json").read_text())
        failed, messages, signatures = verify(name, wl.items, outputs, expected)
    finally:
        drop_workdir(workdir)

    attempted = sum(len(t) for t in times)
    nfailed = sum(failed)
    npasses = len(walls)
    item_s = [statistics.median(t) for t in times]
    pass_s = [sum(t[k] for t in times) for k in range(npasses)]
    tail_s, tail_pct = tail(item_s)
    corpus_digest, seeded_digest = wl.input_digests()
    outputs_digest = hashlib.sha256("\n".join(signatures).encode()).hexdigest()[:16]
    for m in messages[:20]:
        print(f"perfbench: FAIL {m}", file=sys.stderr)
    print(f"workload {name} seed {seed} trace {int(trace)}: {len(wl.items)} items "
          f"({sum(1 for it in wl.items if it.seeded)} seeded), {len(walls)} passes, "
          f"tail at p{tail_pct:.1f}")
    print(f"inputs corpus={corpus_digest} seeded={seeded_digest}")
    print(f"outputs {outputs_digest}")
    print(f"raw pass_s={statistics.median(pass_s)} item_p50_ms={1000.0 * statistics.median(item_s)} "
          f"item_tail_ms={1000.0 * tail_s} setup_s={setup_raw_s}")
    if trace:
        rows = tracer.per_pass(item_pass, npasses, pass_s, factors, deltas)
        values = spans.median_row(rows)
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in spans.PER_LAYER}
    else:
        item_scaled = [statistics.median(t) for t in scaled]
        values = {
            "pass_s": statistics.median(sum(t[k] for t in scaled) for k in range(npasses)),
            "item_p50_ms": 1000.0 * statistics.median(item_scaled),
            "item_tail_ms": 1000.0 * tail(item_scaled)[0],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    print(json.dumps({"correct": nfailed == 0, "attempted": attempted,
                      "failed": nfailed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in a fresh interpreter, untraced then traced."""
    ok = True
    for name in workloads.WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                ok = False
                continue
            for line in lines[:-1]:
                print(line)
            results[trace] = json.loads(lines[-1])
        if len(results) < 2:
            continue
        plain, traced = results[0], results[1]
        share = plain["failed"] / plain["attempted"]
        ok = ok and plain["correct"] and traced["correct"]
        print(f"== {name}")
        for metric, m in plain["metrics"].items():
            print(f"  {metric:<48} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'failed_share':<48} {share:>14.6g} share of {plain['attempted']} items")
        overhead = (traced["metrics"]["trace.pass_scaled_s"]["value"]
                    - plain["metrics"]["pass_s"]["value"])
        print(f"  {'tracing overhead (traced - untraced pass_s)':<48} {overhead:>14.6g} s")
        for metric, m in traced["metrics"].items():
            print(f"  {metric:<48} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
