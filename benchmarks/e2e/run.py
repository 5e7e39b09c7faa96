#!/usr/bin/env python3
"""Whole-scenario benchmark: end-to-end metrics and a per-layer ledger.

Two modes, one set of runner functions:

``run.py --workload W --seed S --seconds T --trace 0|1``
    One measurement process (the form ``BENCHMARK.json`` declares).  It
    builds and runs workload *W* through the path users run
    (``ScenarioSpec.from_dict(...).build()`` -> ``backend.start()`` ->
    ``ControlPlane.run()`` -> ``backend.result()``) again and again until
    *T* seconds of ``engine.run()`` have been measured, checks the
    outputs, prints every metric by name with its unit, and ends with
    one JSON line.  ``--trace 0`` reports the end-to-end metrics of dark
    (telemetry off, no wrappers) runs; ``--trace 1`` reports the
    per-layer ledger of one traced pass (see ``ledger.py``).

``run.py [--workloads a,b] [--repeats N] [--seed S] [--traced] [--out F]``
    The report: every (workload, repeat) in a fresh child process of the
    first form, workloads interleaved round-robin, then one table with
    minimum / quartiles / sample count per metric, the digest checks
    against ``expected.json``, and (``--traced``) the per-layer table.
    Exits non-zero when any output check fails.

Metric names, units, directions and bounds live in ``BENCHMARK.json`` at
the repository root; ``README.md`` beside this file is the glossary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Pinned default seed; ``expected.json`` holds its digests and counts.
DEFAULT_SEED = 2010
#: ``trace.seed`` is derived from ``--seed`` with this offset so the
#: trace generator never shares a stream with the VM/server draws
#: (``LargeScaleBackend`` uses ``seed`` and ``seed + 1``).
TRACE_SEED_OFFSET = 1_000_003
#: Set-up is timed at least this many times and for at least this long
#: per process (extra build+start passes without a run): a 0.1 s set-up
#: needs many more samples than a 2.5 s one for a steady minimum.
SETUP_SAMPLES = 3
SETUP_MIN_S = 1.5
#: Testbed SLO accounting skips the controllers' settling periods and
#: allows 20 % above the set point (the paper's Fig. 2 band).
SLO_WARMUP_PERIODS = 6
SLO_TOLERANCE = 1.2
#: Every measurement process runs single-threaded BLAS; the report's
#: children also get a fixed string hash (digests do not depend on it,
#: timings of dict/set-heavy code might).
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
CHILD_ENV = {**BLAS_ENV, "PYTHONHASHSEED": "0"}
CHILD_TIMEOUT_S = 180.0


# ------------------------------------------------------------ specs --


def declared() -> Dict[str, Any]:
    """The benchmark declaration (``BENCHMARK.json`` at the repo root)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def workload_names() -> List[str]:
    return [w["name"] for w in declared()["workloads"]]


def spec_from_doc(doc: Mapping[str, Any], seed: int):
    """A ``ScenarioSpec`` from *doc* with every seed field derived from
    *seed* — the program only ever sees generated inputs."""
    from repro.engine.scenario import ScenarioSpec

    doc = json.loads(json.dumps(doc))  # deep copy, JSON types only
    doc["params"]["seed"] = int(seed)
    if "trace" in doc:
        doc["trace"]["seed"] = int(seed) + TRACE_SEED_OFFSET
    return ScenarioSpec.from_dict(doc)


def load_spec(name: str, seed: int):
    path = HERE / "workloads" / f"{name}.json"
    return spec_from_doc(json.loads(path.read_text(encoding="utf-8")), seed)


# ------------------------------------------------------- one scenario --


@dataclass
class Outcome:
    """What one finished run produced, as the output checks saw it."""

    units: int  # app-periods (testbed) or VM-steps (large-scale/sharded)
    failed: int
    energy_wh_per_vm: float
    slo_met_share: float
    digest: str
    problems: List[str] = field(default_factory=list)


@dataclass
class Sample:
    """Wall times of one build -> start -> run -> result pass."""

    build_s: float
    start_s: float
    run_s: float
    outcome: Outcome

    @property
    def setup_s(self) -> float:
        return self.build_s + self.start_s


def set_up(spec) -> Tuple[Any, Any, float, float]:
    """``spec.build()`` + ``backend.start()``; returns their wall times."""
    t0 = time.perf_counter()
    engine, backend = spec.build()
    t1 = time.perf_counter()
    backend.start()
    t2 = time.perf_counter()
    return engine, backend, t1 - t0, t2 - t1


def close(backend) -> None:
    """Stop the backend's worker pool when it has one."""
    closer = getattr(backend, "close", None)
    if closer is not None:
        closer()


def run_once(spec) -> Sample:
    """One dark pass: telemetry off, nothing wrapped."""
    engine, backend, build_s, start_s = set_up(spec)
    t0 = time.perf_counter()
    try:
        engine.run()
        result = backend.result()
    finally:
        close(backend)
    run_s = time.perf_counter() - t0
    return Sample(build_s, start_s, run_s, evaluate(spec, engine, backend, result))


def digest_of(spec, result) -> str:
    from repro.service.runner import summarize_run_result

    blob = json.dumps(summarize_run_result(spec, result), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def evaluate(spec, engine, backend, result) -> Outcome:
    """Output checks + the simulated statistics of one finished run."""
    import numpy as np

    problems: List[str] = []
    if not engine.finished:
        problems.append(f"engine stopped at period {engine.k}/{engine.n_periods}")
    if spec.harness == "testbed":
        cfg = backend.config
        n_apps, n_periods = cfg.n_apps, engine.n_periods
        rec = result.recorder
        series = [rec.values(f"rt/app{i}") for i in range(n_apps)]
        power = rec.values("power/total")
        if any(s.shape != (n_periods,) for s in series) or power.shape != (n_periods,):
            problems.append(f"recorded series do not have {n_periods} periods")
            rt = np.full((n_apps, n_periods), np.nan)
        else:
            rt = np.vstack(series)
        units = n_apps * n_periods
        failed = int(np.count_nonzero(~np.isfinite(rt)))
        energy = float(power.sum()) * engine.period_s / 3600.0 / (2 * n_apps)
        setpoints = np.asarray(
            [cfg.setpoints_ms.get(i, cfg.setpoint_ms) for i in range(n_apps)]
        )
        settled = rt[:, SLO_WARMUP_PERIODS:]
        # A NaN measurement compares False: it misses the SLO.
        met = np.count_nonzero(settled <= SLO_TOLERANCE * setpoints[:, None])
        slo_met = met / settled.size if settled.size else float("nan")
    else:
        power = np.asarray(result.power_series_w)
        if power.shape != (result.n_steps,):
            problems.append(f"power series does not have {result.n_steps} steps")
        units = result.n_vms * result.n_steps
        failed = int(result.unplaced_vm_steps)
        if failed:
            problems.append(f"{failed} VM-steps stayed unplaced")
        energy = float(result.energy_per_vm_wh)
        hosting_steps = int(np.asarray(result.active_series).sum())
        slo_met = (
            1.0 - result.overload_server_steps / hosting_steps
            if hosting_steps else float("nan")
        )
    if not np.all(np.isfinite(power)):
        problems.append("power series is not finite")
    if not energy > 0.0:
        problems.append(f"energy per VM is {energy!r}, expected > 0")
    if not np.isfinite(slo_met):
        problems.append("SLO share is undefined (no settled periods)")
    if problems:
        failed = units  # a run that fails a check fails all its units
    return Outcome(units, failed, energy, float(slo_met), digest_of(spec, result), problems)


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped worker's (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


# ------------------------------------------------------ measurement --


def measure(spec, seconds: float) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Dark passes until *seconds* of ``run_s`` are measured.

    Returns the end-to-end metric values and a detail record (every
    sample, the digest, the check verdicts) for the report.
    """
    samples: List[Sample] = []
    while not samples or sum(s.run_s for s in samples) < seconds:
        samples.append(run_once(spec))
    setups = [s.setup_s for s in samples]
    while len(setups) < SETUP_SAMPLES or sum(setups) < SETUP_MIN_S:
        _, backend, build_s, start_s = set_up(spec)
        close(backend)
        setups.append(build_s + start_s)

    first = samples[0].outcome
    problems = [p for s in samples for p in s.outcome.problems]
    if any(s.outcome.digest != first.digest for s in samples):
        problems.append("result digest differs between passes of one process")
    # Fastest pass, not the median: the program is deterministic and host
    # noise only ever adds time (README.md, "Why the minimum").
    run_s = min(s.run_s for s in samples)
    values = {
        "run_s": run_s,
        "setup_s": min(setups),
        "steps_per_s": first.units / run_s,
        "peak_rss_mb": peak_rss_mb(),
        "energy_wh_per_vm": first.energy_wh_per_vm,
        "slo_met_share": first.slo_met_share,
    }
    detail = {
        "digest": first.digest,
        "problems": problems,
        "attempted": sum(s.outcome.units for s in samples),
        "failed": sum(s.outcome.failed for s in samples),
        "run_s_samples": [s.run_s for s in samples],
        "setup_s_samples": setups,
    }
    return values, detail


def with_units(values: Mapping[str, float], metrics: Sequence[Mapping[str, Any]]):
    """``{name: {"value", "unit"}}`` for exactly the declared *metrics*."""
    names = [m["name"] for m in metrics]
    if set(values) != set(names):
        raise SystemExit(
            f"metric set differs from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(names))}"
        )
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in metrics
    }


def main_measure(args) -> int:
    """One measurement process; the last stdout line is the result."""
    if not (SRC / "repro").is_dir():
        print(f"run.py: {SRC / 'repro'} is missing: nothing to benchmark",
              file=sys.stderr)
        return 2
    # Single-threaded BLAS, set before numpy loads (the driver runs this
    # form without the report's child environment).
    os.environ.update(BLAS_ENV)
    decl = declared()
    if args.workload not in workload_names():
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # Timings start after imports: load every harness before the clock.
    import repro.engine.largescale_backend  # noqa: F401
    import repro.engine.sharded_backend  # noqa: F401
    import repro.engine.testbed_backend  # noqa: F401
    import repro.service.runner  # noqa: F401

    spec = load_spec(args.workload, args.seed)
    if args.trace:
        import ledger

        values, detail = ledger.trace_workload(spec, HERE)
        metrics = with_units(values, decl["per_layer"])
    else:
        values, detail = measure(spec, args.seconds)
        metrics = with_units(values, decl["end_to_end"])
    detail.update(workload=args.workload, seed=args.seed, nproc=nproc())
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:40s} {m['value']:.6g} {m['unit']}")
    for key in ("run_s_samples", "setup_s_samples"):
        passes = sorted(detail.get(key, []))
        if passes:
            print(f"{args.workload:16s} {key:40s} n={len(passes)} min {passes[0]:.4f} "
                  f"median {statistics.median(passes):.4f} max {passes[-1]:.4f} s")
    for problem in detail["problems"]:
        print(f"{args.workload}: CHECK FAILED: {problem}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not detail["problems"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))
    return 0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------- report --


def run_child(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    """One measurement in a fresh process; a child that raises, times
    out or prints no result fails all its units."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV}, text=True,
            stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            raise RuntimeError(f"exit code {proc.returncode}")
        result = json.loads(lines[-1])
        result["detail"] = json.loads(lines[-2].removeprefix("detail "))
    except (subprocess.TimeoutExpired, RuntimeError, ValueError) as exc:
        print(f"{workload}: child failed: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "detail": {"digest": None, "problems": [f"child failed: {exc}"]}}
    return result


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(name: str, runs: List[Dict[str, Any]], pinned: Mapping[str, Any],
              seed: int) -> Dict[str, Any]:
    """Fold one workload's children into its report entry."""
    samples: Dict[str, List[float]] = {}
    for run in runs:
        for metric, m in run["metrics"].items():
            samples.setdefault(metric, []).append(m["value"])
    digests = {run["detail"]["digest"] for run in runs}
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    entry = {
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "digest": runs[0]["detail"]["digest"],
        "digest_stable": int(len(digests) == 1 and None not in digests),
        "problems": [p for run in runs for p in run["detail"]["problems"]],
    }
    if seed == pinned.get("seed"):
        want = pinned["workloads"].get(name, {}).get("digest")
        entry["digest_matches_pinned"] = entry["digest"] == want
    return entry


def print_report(report: Mapping[str, Any], decl: Mapping[str, Any]) -> None:
    units = {m["name"]: m["unit"] for m in decl["end_to_end"] + decl["per_layer"]}
    print(f"\ne2e benchmark: seed {report['seed']}, {report['repeats']} repeats x "
          f"{report['run_seconds']} s, nproc {report['nproc']}")
    head = f"{'workload':16s} {'metric':18s} {'min':>11s} {'q1':>11s} " \
           f"{'median':>11s} {'q3':>11s} {'n':>3s}  unit"
    print(head)
    for name, entry in report["workloads"].items():
        for metric, values in entry["samples"].items():
            q1, q2, q3 = quartiles(values)
            print(f"{name:16s} {metric:18s} {min(values):11.5g} {q1:11.5g} "
                  f"{q2:11.5g} {q3:11.5g} {len(values):3d}  {units[metric]}")
        print(f"{name:16s} {'failed_share':18s} {entry['failed_share']:11.5g} "
              f"({entry['failed']} of {entry['attempted']} work units)")
        print(f"{name:16s} {'digest_stable':18s} {entry['digest_stable']:11d} "
              f"digest {str(entry['digest'])[:16]} "
              f"digest_matches_pinned={entry.get('digest_matches_pinned', 'n/a')}")
        for problem in entry["problems"]:
            print(f"{name:16s} CHECK FAILED: {problem}")
    for name, entry in report["workloads"].items():
        layers = entry.get("per_layer")
        if not layers:
            continue
        busy = {k: v for k, v in layers.items()
                if k.startswith("engine.phase.") or k == "engine.loop_other_s"}
        total = sum(busy.values())
        print(f"\n{name}: per-layer ledger (one traced pass; shares are of the "
              f"traced run, {total:.3f} s)")
        for metric, value in layers.items():
            share = f"  {100 * value / total:5.1f} %" if metric in busy and total else ""
            print(f"  {metric:44s} {value:14.6g} {units[metric]}{share}")
        if "counts_match_pinned" in entry:
            print(f"  counts_match_pinned={entry['counts_match_pinned']}")


def exact_counts(layers: Mapping[str, float], decl: Mapping[str, Any]) -> Dict[str, int]:
    """The per-layer metrics that are counts: they repeat bit for bit at a
    fixed seed, so ``expected.json`` pins them beside the digest."""
    return {
        m["name"]: int(layers[m["name"]])
        for m in decl["per_layer"] if m["unit"] == "count"
    }


def main_report(args) -> int:
    decl = declared()
    names = args.workloads.split(",") if args.workloads else workload_names()
    unknown = sorted(set(names) - set(workload_names()))
    if unknown:
        print(f"run.py: unknown workloads {unknown}", file=sys.stderr)
        return 2
    if args.pin and args.workloads:
        print("run.py: --pin rewrites every workload's entry; drop --workloads",
              file=sys.stderr)
        return 2
    expected_path = HERE / "expected.json"
    pinned = json.loads(expected_path.read_text(encoding="utf-8"))
    seconds = decl["run_seconds"]
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for repeat in range(args.repeats):
        for name in names:  # round-robin: host drift hits every workload alike
            print(f"repeat {repeat + 1}/{args.repeats}: {name}", file=sys.stderr)
            runs[name].append(run_child(name, args.seed, seconds, trace=0))
    report: Dict[str, Any] = {
        "seed": args.seed, "repeats": args.repeats, "run_seconds": seconds,
        "nproc": nproc(), "python": sys.version.split()[0],
        "workloads": {n: summarize(n, runs[n], pinned, args.seed) for n in names},
    }
    if args.traced or args.pin:
        for name in names:
            traced = run_child(name, args.seed, seconds, trace=1)
            entry = report["workloads"][name]
            entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
            entry["problems"] += traced["detail"]["problems"]
            if traced["metrics"] and "digest_matches_pinned" in entry:
                want = pinned["workloads"].get(name, {}).get("counts")
                entry["counts_match_pinned"] = (
                    exact_counts(entry["per_layer"], decl) == want
                )
    print_report(report, decl)
    ok = all(
        not e["problems"] and e["failed"] == 0 and e["digest_stable"]
        for e in report["workloads"].values()
    )
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if args.pin and ok:
        pinned = {"seed": args.seed, "workloads": {
            name: {"digest": e["digest"],
                   "counts": exact_counts(e["per_layer"], decl)}
            for name, e in report["workloads"].items()
        }}
        expected_path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
        print(f"pinned {expected_path}")
    print("\nall output checks passed" if ok else "\nOUTPUT CHECKS FAILED")
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    one = parser.add_argument_group("one measurement process")
    one.add_argument("--workload")
    one.add_argument("--seconds", type=float, default=None)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rep = parser.add_argument_group("report (no --workload)")
    rep.add_argument("--workloads", help="comma-separated subset")
    rep.add_argument("--repeats", type=int, default=5)
    rep.add_argument("--traced", action="store_true",
                     help="add one traced pass per workload (per-layer table)")
    rep.add_argument("--out", help="write the report as JSON (input of compare.py)")
    rep.add_argument("--pin", action="store_true",
                     help="rewrite expected.json from this report's digests and counts")
    args = parser.parse_args(argv)
    if args.workload:
        if args.seconds is None:
            args.seconds = declared()["run_seconds"]
        return main_measure(args)
    return main_report(args)


if __name__ == "__main__":
    sys.exit(main())
