"""Benchmark of the `vt` command line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a vtnum checkout; the commands run as
`python -m vtnum ...` subprocesses against that checkout's src/.  With
--trace 0 the workload's commands repeat for S seconds and the result
holds the end-to-end metrics; with --trace 1 untraced and traced
repeats alternate, then layer probes run, and the result holds the
per-layer metrics.  Every command's output is checked against a
reference.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

import harness
import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# name -> (unit, better); BENCHMARK.json lists the same names
END_TO_END = {
    "wall_rel": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
MAX_THREADS = 2  # no load uses more; scaling past 2 workers is not measured
COMMAND_TIMEOUT_S = 60.0


class Runner:
    """Starts the checked children of one benchmark run and counts failures."""

    def __init__(self, root: Path, workdir: Path, program: list[str]) -> None:
        self.root = root
        self.workdir = workdir
        self.program = program
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("VT_THREADS", None)  # every command runs at its default, 1 thread
        self.attempted = 0
        self.failures: list[str] = []
        self.version = ""

    def _run(self, argv: list[str], label: str, problems_of) -> harness.Outcome:
        outcome = harness.run_child(
            argv, env=self.env, cwd=self.root,
            stderr_path=self.workdir / "stderr", timeout_s=COMMAND_TIMEOUT_S,
        )
        problems = problems_of(outcome)
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")
        return outcome

    def command(self, command: workloads.Command) -> harness.Outcome:
        return self._run([*self.program, *command.args], " ".join(command.args),
                         lambda o: workloads.check(command, o))

    def traced(self, command: workloads.Command) -> tuple[harness.Outcome, list[dict]]:
        """The command in-process under bench/traced.py, checked; returns its spans too."""
        spans = self.workdir / "spans.json"
        argv = [sys.executable, str(BENCH / "traced.py"), str(spans), "cli", *command.args]
        outcome = self._run(argv, "traced " + " ".join(command.args),
                            lambda o: workloads.check(command, o))
        return outcome, _load_spans(spans)

    def probes(self, spec: dict) -> list[dict]:
        spans = self.workdir / "spans.json"
        argv = [sys.executable, str(BENCH / "traced.py"), str(spans), "probes", json.dumps(spec)]
        self._run(argv, "probes", _exit_code_problems)
        return _load_spans(spans)

    def setup(self) -> harness.Outcome:
        """`vt --version`: interpreter start plus the numpy and vtnum imports."""

        def problems(o: harness.Outcome) -> list[str]:
            if o.exit_code != 0 or not re.fullmatch(rb"vt \S+\n", o.stdout_head):
                return [f"exit code {o.exit_code}, stdout {o.stdout_head!r}"]
            self.version = o.stdout_head.decode().split()[1]
            return []

        return self._run([*self.program, "--version"], "--version", problems)

    def calibrate(self) -> float:
        """Wall time of reference.py's fixed calibration job.

        This is the benchmark's own yardstick, not an operation of vt, so
        it is not counted in attempted; a failure of it ends the run.
        """
        outcome = harness.run_child(
            [sys.executable, str(BENCH / "reference.py"), "calibrate"], env=self.env,
            cwd=self.root, stderr_path=self.workdir / "stderr", timeout_s=COMMAND_TIMEOUT_S,
        )
        if outcome.exit_code != 0:
            raise RuntimeError(f"calibration job failed: {outcome.stderr[-2000:]!r}")
        return outcome.wall_s


def _exit_code_problems(outcome: harness.Outcome) -> list[str]:
    return [] if outcome.exit_code == 0 else [f"exit code {outcome.exit_code}"]


def _load_spans(path: Path) -> list[dict]:
    try:
        spans = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    path.unlink()
    return spans


def end_to_end(runner: Runner, plan: workloads.Plan, seconds: float) -> dict[str, tuple[float, int]]:
    """Repeat the workload's commands, each repeat followed by one setup run
    and one calibration job.

    The machine's speed drifts by up to a third over minutes (see
    README.md), so the bounded time is wall_rel: each repeat's wall time
    over the calibration job's wall time right after it.  The raw wall
    time and rate are printed beside it.
    """
    walls, rels, rss, setups = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        outcomes = [runner.command(c) for c in plan.commands]
        walls.append(sum(o.wall_s for o in outcomes))
        rss.append(max(o.peak_rss_mb for o in outcomes))
        setups.append(runner.setup().wall_s)
        rels.append(walls[-1] / runner.calibrate())
        if time.perf_counter() >= deadline:
            break
    n = len(walls)
    print(f"wall_s = {median(walls):.6g} s, idx_per_s = {plan.indexes / median(walls):.6g} 1/s "
          f"(median of {n}; unbounded, as they drift with the machine's speed)")
    return {
        "wall_rel": (median(rels), n),
        "peak_rss_mb": (median(rss), n),
        "setup_s": (median(setups), n),
    }


def per_layer(runner: Runner, plan: workloads.Plan, seconds: float) -> dict[str, tuple[float, int]]:
    """Alternate untraced and traced repeats, then run the layer probes."""
    untraced, traced_walls, traced_spans = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(sum(runner.command(c).wall_s for c in plan.commands))
        runs = [runner.traced(c) for c in plan.commands]
        traced_walls.append(sum(o.wall_s for o, _ in runs))
        traced_spans.append([s for _, spans in runs for s in spans])
        if time.perf_counter() >= deadline:
            break
    side_spans = [s for c in plan.side for s in runner.traced(c)[1]]
    probe_spans = runner.probes(plan.probes)
    metrics = layers.per_layer(
        indexes=plan.indexes,
        untraced_walls=untraced, traced_walls=traced_walls, traced_spans=traced_spans,
        side_spans=side_spans, probe_spans=probe_spans, probes=plan.probes,
    )
    share = layers.classify_share(probe_spans)
    split = [layers.self_times(spans, share) for spans in traced_spans]
    names = sorted({name for s in split for name in s},
                   key=lambda name: -median(s.get(name, 0.0) for s in split))
    print(f"self time by layer, median of {len(split)} traced repeats:")
    for name in names:
        print(f"  {name:<32} {median(s.get(name, 0.0) for s in split):10.4f} s")
    return {name: (value, len(traced_spans)) for name, value in metrics.items()}


def git_commit(root: Path) -> str | None:
    """HEAD's commit, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None, *, root: Path = ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (root / "src" / "vtnum" / "__init__.py").is_file():
        print(f"bench: no vtnum sources under {root / 'src'}; run from a vtnum checkout",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = root / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, workdir, [sys.executable, "-m", "vtnum"])
        plan = workload.plan(args.seed, workdir)
        runner.setup()  # untimed: lets bytecode caches fill before timing
        if args.trace:
            measured, units = per_layer(runner, plan, args.seconds), layers.PER_LAYER
        else:
            measured, units = end_to_end(runner, plan, args.seconds), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "max_threads": MAX_THREADS,
        "python": sys.version.split()[0], "numpy": metadata.version("numpy"),
        "vtnum": runner.version, "git_commit": git_commit(root),
        "note": f"loads use at most {MAX_THREADS} threads; "
                f"scaling past {MAX_THREADS} workers is not verified here",
        "commands": [" ".join(c.args) for c in plan.commands],
    }
    print("context " + json.dumps(context))
    for name, (value, samples) in measured.items():
        print(f"{name} = {value:.6g} {units[name][0]} (median of {samples})")
    # failed_frac is not a metric: metrics must never read 0, so the
    # result's "failed" and "attempted" carry it
    failed_frac = len(runner.failures) / runner.attempted
    print(f"failed_frac = {failed_frac:.6g} ({len(runner.failures)} of {runner.attempted} operations)")
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, (value, _) in measured.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
