"""tracelab benchmark: one workload, one seed, one command.

Run from the root of a source checkout::

    python3 bench/run.py --workload proof-ladder --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``solve_s``,
``peak_rss_mb``); ``--trace 1`` prints the per-layer metrics of a separate
traced run.  Every workload runs in fresh interpreters with
``TRACELAB_THREADS`` removed from the environment.  Lines before the last
are the run record; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Nothing here
asserts anything about time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402  (the benchmark's own modules sit beside this file)

WORKLOADS = ("proof-ladder", "frontier", "family-pipeline")
SEARCH_WORKLOADS = ("proof-ladder", "frontier")
# the whole run must end within this many seconds
RUN_LIMIT_S = 170.0
# fresh set-ups per run; setup_s is their median
SETUP_RUNS = 5


class RunError(Exception):
    pass


def _commit(root: Path) -> str:
    """HEAD of a git checkout, read from the files; 'unknown' elsewhere."""
    git = root / ".git"
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
    return "unknown"


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    """Starts the child interpreters and makes sure each one has ended."""

    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.deadline = perf_counter() + RUN_LIMIT_S
        env = {k: v for k, v in os.environ.items() if k not in ("TRACELAB_THREADS", "PYTHONPATH")}
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def _argv(self, *extra) -> list[str]:
        a = self.args
        return [sys.executable, str(HERE / "child.py"), "--workload", a.workload,
                "--seed", str(a.seed), "--scale", a.scale, *extra]

    def _start(self, argv):
        return subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True)

    def _remaining(self) -> float:
        left = self.deadline - perf_counter()
        if left <= 0:
            raise RunError("run exceeded its time limit")
        return left

    def setup_seconds(self) -> float:
        """Fresh interpreter, import, inputs built: wall time to 'ready'."""
        t0 = perf_counter()
        proc = self._start(self._argv("--setup-only"))
        try:
            line = proc.stdout.readline()
            dt = perf_counter() - t0
            proc.communicate(timeout=self._remaining())
        finally:
            _stop(proc)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RunError(f"set-up child failed (exit {proc.returncode})")
        return dt

    def measure(self, *extra) -> dict:
        proc = self._start(self._argv(*extra))
        try:
            out, _ = proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired as exc:
            raise RunError("measurement child exceeded the run's time limit") from exc
        finally:
            _stop(proc)
        lines = out.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
            raise RunError(f"measurement child failed (exit {proc.returncode})")
        return json.loads(lines[-1])


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _sentinel_diffs(workload: str, calls) -> list[str]:
    """Differences of nodes, optimum or proved from the stored sentinel."""
    stored = json.loads((HERE / "sentinel.json").read_text()).get(workload, {})
    diffs = []
    for c in calls:
        want = stored.get(c["name"])
        if want is None:
            diffs.append(f"{c['name']}: no stored sentinel")
            continue
        for key in ("nodes", "optimum", "proved"):
            if want[key] != c[key]:
                diffs.append(f"{c['name']}: {key} {want[key]} -> {c[key]}")
    return diffs


def _failures(passes):
    calls = [c for p in passes for c in p]
    return len(calls), [c for c in calls if not c["ok"]]


def _end_to_end(workload, setups, report, record):
    passes = report["passes"]
    solve = metrics.solve_seconds(passes)
    out = {"setup_s": median(setups), "solve_s": solve, "peak_rss_mb": report["peak_rss_mb"]}
    attempted, failed = _failures(passes)
    info = {"passes": len(passes), "setup_samples": len(setups),
            "failed_frac": len(failed) / attempted}
    if workload in SEARCH_WORKLOADS:
        info.update(metrics.search_totals(passes[0]))
        outcome = [[(c["name"], c["nodes"], c["optimum"], c["proved"]) for c in p] for p in passes]
        record["passes_agree"] = all(o == outcome[0] for o in outcome)
    else:
        lat = metrics.latency_summary([c["seconds"] for p in passes for c in p])
        info["families_per_s"] = len(passes[0]) / solve
        info.update({f"family_{k}": v for k, v in lat.items()})
    record["info"] = info
    return out, attempted, failed


def _per_layer(workload, plain, traced, record):
    calls = plain["passes"][0]
    out = dict(traced["layers"])
    out.update(metrics.instance_metrics(plain["passes"]))
    totals = metrics.search_totals(calls) if workload in SEARCH_WORKLOADS else {
        "nodes": 0, "proved": 0, "incumbent_gap": 0}
    out.update({f"search.{k}": v for k, v in totals.items()})
    out["search.budget_exhausted"] = sum(
        1 for c in calls if workload in SEARCH_WORKLOADS and not c["proved"])
    untraced = metrics.pass_seconds(calls)
    if workload == "family-pipeline":
        out["pipeline.families_per_s"] = len(calls) / untraced
        lat = metrics.latency_summary([c["seconds"] for c in calls])
        out.update({f"pipeline.family_{k}": v for k, v in lat.items()})
    else:
        out.update({"pipeline.families_per_s": 0.0, "pipeline.family_samples": 0,
                    "pipeline.family_p50_ms": 0.0, "pipeline.family_p90_ms": 0.0})
    out["tracing.overhead_frac"] = metrics.pass_seconds(traced["passes"][0]) / untraced - 1.0
    record["info"] = {"spans": traced["spans"]}
    record["self_time_balanced"] = traced["balanced"]
    record["absent_names"] = ", ".join(traced["missing"]) or "none"
    attempted, failed = _failures(plain["passes"] + traced["passes"])
    return out, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small instances, for smoke tests only")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tracelab" / "__init__.py").is_file():
        print("error: run from the root of a tracelab checkout (src/tracelab not found)", file=sys.stderr)
        return 2
    runner = Runner(root, args)
    record = {
        "run": f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
               f"trace={args.trace} scale={args.scale}",
        "commit": _commit(root),
        "src_sha256": _src_digest(root / "src" / "tracelab"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loop": "closed, one client, one call at a time",
    }
    try:
        if args.trace:
            plain = runner.measure("--seconds", "0")
            spans_dir = root / ".bench_runs"
            spans_dir.mkdir(exist_ok=True)
            spans_path = spans_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"
            traced = runner.measure("--trace", "--spans-out", str(spans_path))
            record["spans_file"] = str(spans_path.relative_to(root))
            values, attempted, failed = _per_layer(args.workload, plain, traced, record)
            calls = plain["passes"][0]
            correct = not failed and traced["balanced"]
        else:
            setups = [runner.setup_seconds() for _ in range(SETUP_RUNS)]
            report = runner.measure("--seconds", str(args.seconds))
            values, attempted, failed = _end_to_end(args.workload, setups, report, record)
            calls = report["passes"][0]
            correct = not failed
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    searched = args.workload in SEARCH_WORKLOADS
    diffs = _sentinel_diffs(args.workload, calls) if searched and args.scale == "full" else []
    if args.trace:
        values["search.sentinel_diffs"] = len(diffs)

    info = record.pop("info")
    for key, val in record.items():
        print(f"# {key}: {val}")
    for name, val in info.items():
        print(f"# info {name} {val} {metrics.unit_of(name)}")
    if searched:
        for c in calls:
            print(f"# call {c['name']}: optimum={c['optimum']} ref={c['ref']} proved={c['proved']} "
                  f"nodes={c['nodes']} seconds={c['seconds']:.4f}")
    for d in diffs:
        print(f"# SENTINEL DIFF {d}")
    if searched and args.scale == "full":
        print(f"# sentinel: {f'{len(diffs)} difference(s)' if diffs else 'unchanged'}")
    for c in failed:
        print(f"# FAILED {c['name']}: {c['error']}")
    for name, val in values.items():
        print(f"{name} {val} {metrics.unit_of(name)}")
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": metrics.unit_of(k)} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
