"""The zerosum benchmark: seeded workloads, end-to-end metrics, per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve_corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads (see workloads.py for why each was chosen): solve_corpus,
cli_eval, cli_rescore, pad_cliff. ``all`` runs them one after another, each
in a fresh process, so set-up time and peak memory belong to one workload.

One run of a workload:

1. set-up (untraced runs only): a fresh interpreter imports zerosum and
   builds the workload's inputs, several times; ``setup_s`` is the median
   wall time;
2. builds the same inputs in this process and runs one untimed pass over
   each input set (see workloads.py), which checks the outputs and gives the
   reference digests; the run's digest hashes them together and, for a
   recorded seed (digests.json), must equal the recorded one;
3. runs passes for ``--seconds`` seconds, then on to the end of a whole
   cycle of input sets, so every input set counts equally. Every pass must
   reproduce the reference digest of its input set.

With ``--trace 0`` it reports the end-to-end metrics: ``games_per_s`` (games
completed in one pass over each input set, per second of the median pass
time of each set), ``setup_s`` and ``peak_rss_mb``.
Both times are scaled to the reference machine speed (see SpeedScale): a
fixed loop timed on either side of each pass and each set-up measures how
fast the machine ran then, because shared machines drift by up to 2x over
tens of seconds. The record keeps every pass's scaled and
unscaled rate (``pass_rates``, ``pass_wall_rates``).
With ``--trace 1`` each input set in turn gets an untraced pass and then a
traced one. It reports the per-layer metrics of tracing.py from the traced
passes (per pass), the tracing overhead (median over those pairs of traced
over untraced games per wall second, so both sides of a ratio ran the same
inputs), and the baseline per-call probes, and writes the spans to
``.perfbench_out/``.

Every operation is caught on its own and counted against the attempts; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record (environment,
digests, failed operation ids, per-pass rates) goes to
``.perfbench_out/<workload>-<size>-seed<seed>-trace<t>.json``; compare two
such records with compare.py. ``--size smoke`` runs tiny inputs, for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("solve_corpus", "cli_eval", "cli_rescore", "pad_cliff")
SETUP_REPEATS = {"full": 5, "smoke": 2}
PROBE_CALLS = {"full": 60, "smoke": 5}
# Time of _reference_loop at the median speed of the machine the benchmark
# was tuned on (2-vCPU Xeon VM, 2.1 GHz, Python 3.11, numpy 2.4).
REFERENCE_LOOP_S = 0.050


def _reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreter and small-numpy work.

    Shared machines change speed by up to 2x over tens of seconds. Timing
    this loop just before and just after an interval measures the speed the
    interval ran at; the loop uses no zerosum code, so no change to the
    program moves it.
    """
    import numpy as np

    row = np.linspace(-1.0, 1.0, 8)
    table: dict = {}
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(8000):
        acc += float(np.sort(row * (i % 7 - 3))[0])
        table[i % 97] = json.dumps([i, acc])
    return time.perf_counter() - t0


class SpeedScale:
    """Scales intervals to the reference machine speed.

    ``scaled(seconds)`` multiplies an interval by REFERENCE_LOOP_S over the
    mean of the reference-loop times measured on either side of it; the
    loop after one interval is the loop before the next.

    Scaling keeps a before/after ratio at its true size. On a 2-vCPU VM,
    six alternating pairs of runs against a copy of src/ with a slowdown
    injected gave these median ratios of games_per_s (after / before):
    every LP solved twice, on solve_corpus: 0.683 scaled, 0.677 unscaled;
    every response scored twice, on cli_eval: 0.877 scaled, 0.895
    unscaled, 0.887 predicted from the traced share of exploitability.
    The scaled ratios spread about half as much.
    """

    def __init__(self):
        _reference_loop()  # warm up
        self._before = _reference_loop()

    def scaled(self, seconds: float) -> float:
        after = _reference_loop()
        scale = REFERENCE_LOOP_S / ((self._before + after) / 2.0)
        self._before = after
        return seconds * scale


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the recorded default seed)")
    p.add_argument("--seconds", type=float, default=20.0, help="length of the timed region")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Import zerosum from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "zerosum" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no zerosum sources under {src}")
    sys.path.insert(0, str(src))
    import zerosum

    if Path(zerosum.__file__).resolve().parent != (src / "zerosum").resolve():
        raise SystemExit(f"perfbench: imported zerosum from {zerosum.__file__}, not {src}")
    return zerosum


def _load_digests() -> dict:
    with open(HERE / "digests.json") as fh:
        return json.load(fh)


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    from zerosum import _kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "backend": _kernels.backend_name(),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "commit": _git_commit(),
    }


def _workdir(tag: str) -> Path:
    path = OUT_DIR / f"work-{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _setup_only(args) -> int:
    import workloads

    work = _workdir(f"setup-{args.workload}")
    try:
        workloads.WORKLOADS[args.workload](args.seed, args.size, str(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def _time_setups(args) -> list:
    """Wall time of fresh interpreters that import zerosum and build the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    times = []
    speed = SpeedScale()
    for _ in range(SETUP_REPEATS[args.size]):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(speed.scaled(time.perf_counter() - t0))
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed: {proc.stderr.strip()[-500:]}")
    return times


def _timed_passes(w, seconds: float, tracer, references: list) -> dict:
    """Run passes for ``seconds``, then on to the end of a whole cycle of input sets.

    Untraced, pass i works on input set i mod ``w.cycle``. With a tracer,
    each input set in turn gets an untraced pass and then a traced one over
    the same inputs. Rates are games per scaled second (SpeedScale); each
    pass must reproduce the reference digest of its input set.
    """
    import workloads

    out = {"rates": [], "wall_rates": [], "traced_rates": [], "overhead": [],
           "set_seconds": [[] for _ in range(w.cycle)],
           "traced_wall_s": 0.0, "traced_digests": [set() for _ in range(w.cycle)],
           "attempted": 0, "failed": 0, "failed_ops": {}, "problems": []}
    step = 1 if tracer is None else 2
    speed = SpeedScale()
    start = time.perf_counter()
    for i in itertools.count():
        input_set = i // step % w.cycle
        traced = tracer is not None and i % 2 == 1
        gc.collect()  # start every pass with the same collector state
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            r = w.run_pass(workloads.Pass(verify=False, tracer=tracer if traced else None,
                                          input_set=input_set))
            dt = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        scaled = speed.scaled(dt)
        rate = r.games / scaled
        if traced:
            out["traced_rates"].append(rate)
            out["traced_wall_s"] += dt
            out["traced_digests"][input_set].add(r.digest)
            out["overhead"].append(r.games / dt / out["wall_rates"][-1])
        else:
            out["rates"].append(rate)
            out["wall_rates"].append(r.games / dt)
            out["set_seconds"][input_set].append(scaled)
        out["attempted"] += r.attempted
        out["failed"] += len(r.failures)
        for op_id, error in r.failures:
            out["failed_ops"].setdefault(op_id, {"error": error, "count": 0})["count"] += 1
        if r.digest != references[input_set]:
            kind = "traced" if traced else "untraced"
            out["problems"].append(f"{kind} pass digest {r.digest} differs from "
                                   f"{references[input_set]} on input set {input_set}")
        cycle_done = (i + 1) % (step * w.cycle) == 0
        if cycle_done and time.perf_counter() - start >= seconds:
            return out


def _run_workload(args) -> int:
    import workloads
    from tracing import Tracer, baseline_probes

    env = environment()
    setup_times = [] if args.trace else _time_setups(args)
    work = _workdir(args.workload)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, args.size, str(work))
        firsts = [w.run_pass(workloads.Pass(verify=True, input_set=i)) for i in range(w.cycle)]
        references = [r.digest for r in firsts]
        digest = hashlib.sha256("".join(references).encode()).hexdigest()
        problems = [problem for r in firsts for problem in r.problems]
        recorded = _load_digests()["digests"].get(f"{args.workload}/{args.size}/{args.seed}")
        if recorded is not None and recorded != digest:
            problems.append(f"digest {digest} differs from the recorded {recorded}")
        tracer = Tracer(getattr(w, "reply_class", None)) if args.trace else None
        timed = _timed_passes(w, args.seconds, tracer, references)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += timed["problems"]
    attempted, failed = timed["attempted"], timed["failed"]

    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = None
    if args.trace:
        metrics = tracer.metrics(len(timed["traced_rates"]), timed["traced_wall_s"])
        metrics["trace.overhead_ratio"] = statistics.median(timed["overhead"])
        metrics.update(baseline_probes(args.seed, PROBE_CALLS[args.size]))
        spans_file = OUT_DIR / f"{stem}-spans.jsonl.gz"
        tracer.write(str(spans_file))
    else:
        # each input set counts once, at its median pass time: the median of
        # pooled passes would fall between the sets' own rates
        cycle_s = sum(statistics.median(t) for t in timed["set_seconds"])
        metrics = {
            "games_per_s": sum(r.games for r in firsts) / cycle_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
    correct = not problems
    record = {
        "schema": "perfbench/1",
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": correct,
        "problems": problems[:50],
        "digest": digest,
        "recorded_digest": recorded,
        "set_digests": references,
        "traced_set_digests": [sorted(d) for d in timed["traced_digests"]],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failed_ops": timed["failed_ops"],
        "games_per_pass": firsts[0].games,
        "pass_rates": timed["rates"],
        "pass_wall_rates": timed["wall_rates"],
        "traced_pass_rates": timed["traced_rates"],
        "traced_overhead_ratios": timed["overhead"],
        "reply_classes": dict(getattr(w, "reply_classes", {})),
        "parse_share_by_class": tracer.parse_share_by_class() if tracer else {},
        "setup_s_samples": setup_times,
        "peak_rss_mb": peak_rss_mb,
        "spans_file": spans_file.name if spans_file else None,
        "metrics": metrics,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"{args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"backend={env['backend']} digest={digest[:16]}")
    print(f"attempted={attempted} failed={failed} failed_frac={failed / attempted:.4f}")
    for op_id, info in sorted(timed["failed_ops"].items()):
        print(f"  failed {op_id} x{info['count']}: {info['error'][:120]}")
    for problem in problems[:10]:
        print(f"  PROBLEM {problem}")
    if not args.trace:
        print(f"  unscaled games per wall second (median pass) = "
              f"{statistics.median(timed['wall_rates']):.6g}")
    if record["reply_classes"]:
        total = sum(record["reply_classes"].values())
        shares = record["parse_share_by_class"]
        for kind, count in sorted(record["reply_classes"].items()):
            parse = f", {shares[kind]:.1%} of parse time" if kind in shares else ""
            print(f"  replies {kind}: {count} ({count / total:.1%}){parse}")
    units = _metric_units()
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units.get(name, '')}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def _metric_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        results[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    if args.seed is None:
        args.seed = _load_digests()["default_seed"]
    if args.setup_only:
        return _setup_only(args)
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
