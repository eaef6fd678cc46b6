"""Reproducibility: one seed gives one op list, one set of outputs and one set
of exact counts, and an untraced run has no wrappers installed.

    python3 -m pytest perfbench/test_repro.py -q     (about a minute and a half)
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

if run.import_library() is None:
    pytest.skip("no src/wallfact next to the benchmark", allow_module_level=True)

import wallfact.linalg  # noqa: E402

WORKLOAD, SEED = "qq-positive", 11
ORIGINAL_RREF = wallfact.linalg._rref


def _exact_layer_values(layer):
    """Per-layer values that are counts, bit sizes or shares, not times."""
    return {name: value for name, value in layer.items()
            if not name.endswith(("_s", "_ms", ".overhead"))}


@pytest.fixture(scope="module")
def runs(monkeypatch_module):
    wrapped_during_untraced = []
    plain_run = run.Runner.run

    def spy(self, op):
        wrapped_during_untraced.append(wallfact.linalg._rref is not ORIGINAL_RREF)
        return plain_run(self, op)

    monkeypatch_module.setattr(run.Runner, "run", spy)
    untraced = run.run(WORKLOAD, SEED, 0, traced=False)
    seen_untraced = list(wrapped_during_untraced)
    traced = [run.run(WORKLOAD, SEED, 0, traced=True) for _ in range(2)]
    return untraced, traced, seen_untraced


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as mp:
        yield mp


def test_untraced_run_has_no_wrappers(runs):
    _, _, seen_untraced = runs
    assert seen_untraced and not any(seen_untraced)
    assert wallfact.linalg._rref is ORIGINAL_RREF


def test_same_ops_outputs_and_failures(runs):
    (result, report), traced, _ = runs
    for other_result, other_report in traced:
        assert [(op["input"], op["calls"]) for op in report["ops"]] == \
            [(op["input"], op["calls"]) for op in other_report["ops"]]
        for key in ("out_sha", "in_bits", "out_bits", "fail"):
            assert [op[key] for op in report["ops"]] == [op[key] for op in other_report["ops"]]
        for name in ("fail_share", "max_coeff_bits", "coeff_bits_p50"):
            assert report["end_to_end"][name] == other_report["end_to_end"][name]
        assert result["correct"] and other_result["correct"]
        assert result["failed"] / result["attempted"] == \
            other_result["failed"] / other_result["attempted"]


def test_roadmap_seed_times_out(runs):
    (_, report), _, _ = runs
    assert report["failed_ops"] == ["pos-roadmap-seed-d10"]
    assert report["failures"]["timeout"] == report["rounds"]


def test_traced_counts_repeat_exactly(runs):
    _, ((_, first), (_, second)), _ = runs
    assert _exact_layer_values(first["per_layer"]) == _exact_layer_values(second["per_layer"])
    assert first["per_layer"]["positive.positive_factorization.calls"] > 0
