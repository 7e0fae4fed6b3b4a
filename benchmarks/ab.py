"""Compare two commits on the benchmark, run for run on this machine.

    python3 benchmarks/ab.py --base REF [--pairs N] [--seconds S]
        [--workload NAME ...]

Run from the root of a checkout.  The working tree is the *change*; the
*parent* is ``REF``, checked out into a git worktree under ``.ab_work/``
and removed afterwards, whatever happens.  For every workload (default:
all of ``BENCHMARK.json``), pair ``i`` runs
``perfbench/run.py --seed i --seconds S --trace 0`` once in each tree,
back to back, alternating which tree goes first, so drift of the
machine lands on both sides alike.

For every end-to-end metric × workload it prints the parent median, the
change median, their ratio (change / parent) and in how many pairs the
change was better.  Exit status:

* 2 — the runs' host stamps differ (``nproc``, ``python``, ``platform``
  or ``cpu_model``), the numbers are not comparable; or the base cannot
  be checked out;
* 1 — a change median is worse than the parent's by more than the
  metric's ``BENCHMARK.json`` bound, a run reports ``correct: false``,
  or the change fails a larger share of its operations than the parent;
* 0 — otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".ab_work")

#: Host-stamp fields that must agree for two runs to be comparable.
#: ``git_sha`` and ``src_sha256`` name the code and differ by design.
HOST_KEYS = ("nproc", "python", "platform", "cpu_model")

SIDES = ("parent", "change")

#: What a run that printed no result line counts as.
NO_RESULT = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def parse_run(stdout: str) -> dict:
    """The host stamp and result object of one ``run.py`` output.

    The result is the last line; the host stamp, when the run passed its
    correctness gate, the line before it.  A run that crashed before
    printing a result counts as ``correct: false``.
    """
    lines = [line for line in stdout.splitlines() if line.strip()]
    objects = []
    for line in lines[-2:]:
        try:
            objects.append(json.loads(line))
        except ValueError:
            objects.append(None)
    result = objects[-1] if objects and isinstance(objects[-1], dict) else None
    if result is None or "correct" not in result:
        return {"host": None, "result": dict(NO_RESULT)}
    host = objects[0] if len(objects) == 2 and isinstance(objects[0], dict) else {}
    return {"host": host.get("host"), "result": result}


def host_mismatch(runs) -> list:
    """One line per host-stamp field on which the runs disagree."""
    problems = []
    stamps = [
        run["host"]
        for by_side in runs.values()
        for side in SIDES
        for run in by_side[side]
        if run["host"]
    ]
    for key in HOST_KEYS:
        values = sorted({str(stamp.get(key)) for stamp in stamps})
        if len(values) > 1:
            problems.append(f"host stamps differ on {key}: {' vs '.join(values)}")
    return problems


def _is_worse(parent: float, change: float, metric: dict) -> bool:
    """True when ``change`` is worse than ``parent`` beyond the bound."""
    if metric["better"] == "lower":
        return change > parent * (1.0 + metric["bound"])
    return change < parent * (1.0 - metric["bound"])


def _is_better(parent: float, change: float, metric: dict) -> bool:
    return change < parent if metric["better"] == "lower" else change > parent


def _failed_share(runs) -> float:
    attempted = sum(run["result"]["attempted"] for run in runs)
    failed = sum(run["result"]["failed"] for run in runs)
    return failed / attempted if attempted else 0.0


def verdict(runs, metrics):
    """The exit status and the lines to print for a finished A/B.

    ``runs`` maps each workload to ``{"parent": [...], "change": [...]}``,
    the ``parse_run`` objects of pairs 0..N-1 in order; ``metrics`` is
    ``BENCHMARK.json``'s ``end_to_end`` list.  Pure: it runs nothing.
    """
    mismatch = host_mismatch(runs)
    if mismatch:
        return 2, ["ab: refusing to compare runs from different hosts"] + mismatch
    lines = [
        f"{'workload':<14} {'metric':<13} {'parent':>10} {'change':>10} "
        f"{'ratio':>7} {'wins':>6} {'bound':>7}"
    ]
    failures = []
    for workload, by_side in runs.items():
        for side in SIDES:
            bad = [
                pair
                for pair, run in enumerate(by_side[side])
                if not run["result"]["correct"]
            ]
            if bad:
                failures.append(
                    f"{workload}: {side} run(s) of pair(s) {bad} report correct: false"
                )
        for metric in metrics:
            name = metric["name"]
            values = {
                side: [
                    run["result"]["metrics"].get(name, {}).get("value")
                    for run in by_side[side]
                ]
                for side in SIDES
            }
            measured = {
                side: [value for value in values[side] if value is not None]
                for side in SIDES
            }
            if not measured["parent"] or not measured["change"]:
                lines.append(f"{workload:<14} {name:<13} {'-':>10} {'-':>10}")
                continue
            parent = statistics.median(measured["parent"])
            change = statistics.median(measured["change"])
            pairs = [
                (a, b)
                for a, b in zip(values["parent"], values["change"])
                if a is not None and b is not None
            ]
            wins = sum(_is_better(a, b, metric) for a, b in pairs)
            ratio = change / parent if parent else float("inf")
            lines.append(
                f"{workload:<14} {name:<13} {parent:>10.4g} {change:>10.4g} "
                f"{ratio:>7.3f} {f'{wins}/{len(pairs)}':>6} "
                f"{metric['bound']:>7.0%}"
            )
            if _is_worse(parent, change, metric):
                failures.append(
                    f"{workload} {name}: change median {change:.4g} vs parent "
                    f"{parent:.4g} is worse than the {metric['bound']:.0%} bound"
                )
        parent_share = _failed_share(by_side["parent"])
        change_share = _failed_share(by_side["change"])
        if change_share > parent_share:
            failures.append(
                f"{workload}: change fails {change_share:.4%} of operations, "
                f"parent {parent_share:.4%}"
            )
    if failures:
        return 1, lines + ["ab: FAIL"] + failures
    return 0, lines + ["ab: ok"]


# -- running ----------------------------------------------------------------


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _run_bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable,
        os.path.join("perfbench", "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        "--trace",
        "0",
    ]
    process = subprocess.Popen(command, cwd=tree, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = process.communicate()
    except BaseException:  # SIGTERM or ^C: run.py stops its phases on SIGTERM
        process.terminate()
        process.wait()
        raise
    return parse_run(stdout)


def _measure(trees, workloads, args):
    """Pair ``i`` of every workload, sides alternating which runs first."""
    runs = {workload: {side: [] for side in SIDES} for workload in workloads}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                run = _run_bench(trees[side], workload, pair, args.seconds)
                runs[workload][side].append(run)
                wall = run["result"]["metrics"].get("wall_s", {}).get("value")
                print(
                    f"ab: pair {pair + 1}/{args.pairs} {workload} {side}: "
                    + (f"wall_s {wall:.3f}" if wall is not None else "no result"),
                    file=sys.stderr,
                )
    return runs


def _remove_worktree(tree: str) -> None:
    subprocess.run(
        ["git", "worktree", "remove", "--force", tree], cwd=ROOT, capture_output=True
    )
    shutil.rmtree(tree, ignore_errors=True)  # left behind if the add was cut short
    subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
    try:
        os.rmdir(WORK_DIR)
    except OSError:
        pass  # another A/B still uses it


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref of the parent")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument(
        "--workload",
        action="append",
        choices=names,
        help="repeatable; default: every workload in BENCHMARK.json",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload or names

    try:
        base = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError as error:
        print(f"ab: cannot resolve --base {args.base}: {error.stderr.strip()}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tree = os.path.join(WORK_DIR, f"base-{os.getpid()}")
    try:
        _git("worktree", "add", "--detach", tree, base)
        runs = _measure({"parent": tree, "change": ROOT}, workloads, args)
    except subprocess.CalledProcessError as error:
        print(f"ab: git worktree add: {error.stderr.strip()}", file=sys.stderr)
        return 2
    finally:
        _remove_worktree(tree)
    print(f"ab: parent {base[:12]} vs the working tree, {args.pairs} pair(s), "
          f"--seconds {args.seconds:g}")
    code, lines = verdict(runs, spec["end_to_end"])
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
