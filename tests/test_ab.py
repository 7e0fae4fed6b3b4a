"""The verdict of ``benchmarks/ab.py``, fed synthetic ``run.py`` output.

``verdict`` is pure, so these tests start no benchmark process.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

METRICS = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())[
    "end_to_end"
]

HOST = {
    "nproc": 2,
    "python": "3.11.7",
    "platform": "Linux-6.1-x86_64-with-glibc2.36",
    "cpu_model": "Intel(R) Xeon(R) CPU",
    "git_sha": "a" * 40,
    "src_sha256": "b" * 64,
}

BASE = {"setup_s": 0.5, "wall_s": 4.0, "cpu_s": 4.2, "peak_rss_mib": 200.0}


def _output(scale=1.0, *, host=None, correct=True, attempted=100, failed=0,
            **overrides):
    """The last two stdout lines of one ``run.py --trace 0`` run."""
    if not correct:  # a failed gate prints the result line alone
        return "perfbench: phase crashed\n" + json.dumps(
            {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        )
    values = {name: value * scale for name, value in BASE.items()}
    values.update(overrides)
    host_line = {"host": host or HOST, "iterations": [values]}
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "s"} for name, value in values.items()},
    }
    return json.dumps(host_line) + "\n" + json.dumps(result) + "\n"


def _runs(parent, change, workload="paper-slice"):
    return {
        workload: {
            "parent": [ab.parse_run(text) for text in parent],
            "change": [ab.parse_run(text) for text in change],
        }
    }


def test_within_bound_passes():
    runs = _runs([_output(), _output(1.02), _output(0.98)],
                 [_output(1.1), _output(0.95), _output(1.05)])
    code, lines = ab.verdict(runs, METRICS)
    assert code == 0
    assert lines[-1] == "ab: ok"
    wall = next(line for line in lines if " wall_s " in line)
    assert "1.050" in wall  # ratio of medians 4.2 / 4.0
    assert "1/3" in wall  # the change won one pair


def test_one_metric_beyond_its_bound_fails():
    # peak_rss_mib's bound is 15%: 20% more memory fails, the rest is flat.
    runs = _runs([_output()] * 3, [_output(peak_rss_mib=240.0)] * 3)
    code, lines = ab.verdict(runs, METRICS)
    assert code == 1
    assert any(line.startswith("paper-slice peak_rss_mib") for line in lines)
    assert not any(line.startswith("paper-slice wall_s") for line in lines)


def test_only_the_breaching_workload_is_named():
    runs = _runs([_output()] * 2, [_output()] * 2)
    runs.update(_runs([_output()] * 2, [_output(wall_s=6.0)] * 2, "serve-zipf"))
    code, lines = ab.verdict(runs, METRICS)
    assert code == 1
    assert [line for line in lines if "bound" in line and ":" in line] == [
        "serve-zipf wall_s: change median 6 vs parent 4 is worse than the 25% bound"
    ]


@pytest.mark.parametrize("side", ["parent", "change"])
def test_correct_false_on_either_side_fails(side):
    outputs = {"parent": [_output()] * 3, "change": [_output()] * 3}
    outputs[side] = [_output(), _output(correct=False), _output()]
    code, lines = ab.verdict(_runs(outputs["parent"], outputs["change"]), METRICS)
    assert code == 1
    assert any(f"{side} run(s) of pair(s) [1] report correct: false" in line
               for line in lines)


def test_output_without_a_result_line_counts_as_incorrect():
    run = ab.parse_run("Traceback (most recent call last):\nRuntimeError: boom\n")
    assert run["result"]["correct"] is False
    code, _ = ab.verdict(_runs([_output()], ["RuntimeError: boom"]), METRICS)
    assert code == 1


def test_higher_failed_share_fails():
    runs = _runs([_output(failed=1)] * 2, [_output(failed=1), _output(failed=2)])
    code, lines = ab.verdict(runs, METRICS)
    assert code == 1
    assert "paper-slice: change fails" in lines[-1]


def test_equal_or_lower_failed_share_passes():
    runs = _runs([_output(failed=2)] * 2, [_output(failed=1), _output(failed=2)])
    assert ab.verdict(runs, METRICS)[0] == 0


def test_different_cpu_model_is_refused():
    other = dict(HOST, cpu_model="AMD EPYC 7B13")
    runs = _runs([_output()] * 2, [_output(), _output(host=other)])
    code, lines = ab.verdict(runs, METRICS)
    assert code == 2
    assert "host stamps differ on cpu_model" in lines[1]


def test_stamps_differing_only_in_code_identity_are_accepted():
    other = dict(HOST, git_sha="c" * 40, src_sha256="d" * 64)
    runs = _runs([_output()] * 2, [_output(host=other)] * 2)
    assert ab.verdict(runs, METRICS)[0] == 0
