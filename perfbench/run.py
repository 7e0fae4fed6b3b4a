"""The repository's benchmark: time-to-paper, a durable crawl, a serving fleet.

    python3 perfbench/run.py --workload {paper-slice,local-durable,serve-zipf}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every phase of every iteration runs
in a fresh interpreter (``phase.py``).  Iterations repeat while another
one is expected to finish within ``--seconds``; every end-to-end
metric, set-up time included, is the median over the iterations of the
run.  Metric names and units come from ``BENCHMARK.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced iteration, then one with the layer wrappers of ``tracing.py``
installed, and prints the per-layer metrics.  Every iteration passes the
correctness gate (``check_*``) or the run reports a failure and no
numbers.  The last line of standard output is the result object; the
line before it stamps the host the numbers were measured on and lists
each iteration's own numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: A run must end within 180 s; phases are killed past this budget.
RUN_BUDGET_S = 170.0

WORKLOAD_PHASES = {
    "paper-slice": ("paper-slice-crawl", "paper-slice-report"),
    "local-durable": ("local-durable",),
    "serve-zipf": ("serve-zipf",),
}



def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metrics' names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


class CheckFailed(Exception):
    pass


class Runner:
    """Starts phase processes inside one work directory of the checkout."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.iterations = 0
        self.workdir = os.path.join(
            ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}"
        )
        os.makedirs(self.workdir)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:
            pass  # another run still uses it

    def phase(self, name: str, workdir: str, *, trace=False) -> dict:
        out = os.path.join(workdir, f"{name}.result.json")
        command = [
            sys.executable,
            os.path.join(HERE, "phase.py"),
            name,
            "--seed",
            str(self.seed),
            "--workdir",
            workdir,
            "--out",
            out,
        ]
        if trace:
            command.append("--trace")
        remaining = RUN_BUDGET_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise TimeoutError("run budget exhausted")
        command += ["--spawned-at", repr(time.monotonic())]
        # A session of its own, so a timeout can stop crawl workers too.
        process = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
        try:
            code = process.wait(timeout=remaining)
        except BaseException:  # timeout, SIGTERM or ^C: stop the phase first
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise
        if code != 0:
            raise RuntimeError(f"phase {name} exited with code {code}")
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        os.remove(out)
        return result

    def _fresh_dir(self) -> str:
        """An empty directory per iteration: no journal is ever resumed."""
        self.iterations += 1
        path = os.path.join(self.workdir, str(self.iterations))
        os.makedirs(path)
        return path

    def iteration(self, *, trace=False) -> dict:
        """One full pass of the workload; its phases merged into one record."""
        workdir = self._fresh_dir()
        phases = [
            self.phase(name, workdir, trace=trace)
            for name in WORKLOAD_PHASES[self.workload]
        ]
        shutil.rmtree(workdir)
        regions = [phase["region"] for phase in phases]
        record = {
            "setup_s": sum(region["setup_s"] for region in regions),
            "wall_s": sum(region["wall_s"] for region in regions),
            "cpu_s": sum(region["cpu_s"] for region in regions),
            "peak_rss_mib": max(region["peak_rss_mib"] for region in regions),
            "phases": phases,
        }
        CHECKS[self.workload](self.seed, record)
        return record


# -- correctness gate ---------------------------------------------------------


def load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_golden(workload: str, seed: int, observed: dict) -> None:
    """Digests must equal the ones recorded for this seed, when recorded."""
    recorded = load_golden()["digests"].get(workload, {}).get(str(seed))
    if recorded is None:
        return
    for key, value in recorded.items():
        _require(
            observed[key] == value,
            f"{workload} seed {seed}: {key} {observed[key]} != recorded {value}",
        )


def _check_crawl(out: dict) -> None:
    _require(
        out["collected"] + out["failed"] == out["scheduled"],
        f"collected {out['collected']} + failed {out['failed']} "
        f"!= scheduled {out['scheduled']} cells",
    )


def check_paper_slice(seed: int, record: dict) -> None:
    crawl, report = (phase["out"] for phase in record["phases"])
    _check_crawl(crawl)
    _require(
        report["records"] == crawl["collected"],
        f"report loaded {report['records']} of {crawl['collected']} records",
    )
    _check_golden(
        "paper-slice",
        seed,
        {
            "dataset_sha256": crawl["dataset_sha256"],
            "figures_sha256": report["figures_sha256"],
        },
    )
    record.update(attempted=crawl["scheduled"], failed=crawl["failed"])


def check_local_durable(seed: int, record: dict) -> None:
    out = record["phases"][0]["out"]
    _check_crawl(out)
    _require(out["journal_clean"], "fsck: checkpoint journal is not clean")
    _require(not out["event_problems"], f"event log: {out['event_problems']}")
    _check_golden("local-durable", seed, {"dataset_sha256": out["dataset_sha256"]})
    record.update(attempted=out["scheduled"], failed=out["failed"])


def check_serve_zipf(seed: int, record: dict) -> None:
    out = record["phases"][0]["out"]
    _require(
        sum(out["outcomes"].values()) == out["requests"],
        f"outcomes {out['outcomes']} do not sum to {out['requests']} requests",
    )
    _require(
        out["fleet_partition"] == out["fleet_requests"],
        f"fleet outcome partition {out['fleet_partition']} "
        f"!= {out['fleet_requests']} offered",
    )
    _check_golden("serve-zipf", seed, {"responses_sha256": out["responses_sha256"]})
    record.update(
        attempted=out["requests"], failed=out["requests"] - out["outcomes"]["ok"]
    )


CHECKS = {
    "paper-slice": check_paper_slice,
    "local-durable": check_local_durable,
    "serve-zipf": check_serve_zipf,
}

#: Digests that must agree between iterations of one run, on any seed.
DIGEST_KEYS = ("dataset_sha256", "figures_sha256", "responses_sha256")


def check_repeatable(records) -> None:
    seen = {}
    for record in records:
        for phase in record["phases"]:
            for key in DIGEST_KEYS:
                if key in phase["out"]:
                    first = seen.setdefault(key, phase["out"][key])
                    _require(
                        first == phase["out"][key],
                        f"{key} differs between iterations of one run",
                    )


# -- host fingerprint -----------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def _source_sha256() -> str:
    """Digest of the measured program's sources (checkouts may lack git)."""
    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src")
    for directory, dirnames, filenames in os.walk(source):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(directory, filename)
                digest.update(os.path.relpath(path, source).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def host_fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
        "src_sha256": _source_sha256(),
    }


# -- metrics ----------------------------------------------------------------------


def run_timed(runner: Runner, seconds: float, names):
    records = []
    durations = []
    deadline = runner.started + seconds
    while True:
        began = time.monotonic()
        records.append(runner.iteration())
        durations.append(time.monotonic() - began)
        if time.monotonic() + statistics.median(durations) > deadline:
            break
    check_repeatable(records)
    values = {
        name: statistics.median(record[name] for record in records) for name in names
    }
    return records, values


def run_traced(runner: Runner):
    from layers import per_layer_metrics

    untraced = [runner.iteration()]
    traced = runner.iteration(trace=True)
    check_repeatable(untraced + [traced])
    return untraced + [traced], per_layer_metrics(runner.workload, untraced, traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_PHASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    units = {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if args.trace else "end_to_end"]
    }
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            records, values = run_traced(runner)
        else:
            records, values = run_timed(runner, args.seconds, units)
    except CheckFailed as error:
        print(f"perfbench: correctness check failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        runner.close()
    timed = [metric["name"] for metric in spec["end_to_end"]]
    iterations = [{name: record[name] for name in timed} for record in records]
    print(json.dumps({"host": host_fingerprint(), "iterations": iterations}))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": sum(record["attempted"] for record in records),
                "failed": sum(record["failed"] for record in records),
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
