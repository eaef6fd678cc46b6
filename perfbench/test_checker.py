"""Negative controls: the checker must count corrupted outputs as failures.

    python3 -m pytest perfbench/test_checker.py -q
"""

import json
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

if run.import_library() is None:
    pytest.skip("no src/wallfact next to the benchmark", allow_module_level=True)

import check  # noqa: E402
import exact  # noqa: E402
import inputs  # noqa: E402


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """A rational input and an O(3,F_5) oracle input, with real CLI outputs."""
    F = exact.Field()
    rng = random.Random(7)
    values = inputs.signature_values("lorentz", 5)
    gram = inputs.diag(F, values)
    word = inputs.random_word(rng, F, gram, 4, 2)
    f = exact.reflection_product(F, gram, word)
    g = exact.reflection_product(F, gram, word[:2])
    qq = inputs.make_input("probe-qq", F, values, f, g)
    p, fp_values = inputs.FP_SPACES["o3_f5"]
    fp = {"name": "oracle-o3_f5", "p": p, "gram": inputs.diag(exact.Field(p), fp_values),
          "f": None, "g": None, "group": "o3_f5", "props": {}}
    items = [qq, fp]
    run.write_inputs(items, str(tmp_path_factory.mktemp("inputs")))
    runner = run.Runner(60.0, {inp["name"]: inp for inp in items})
    fl = qq["files"]
    base = ["--form", fl["form"], "--isometry", fl["f"]]
    ops = [
        {"id": 0, "input": "probe-qq", "pre": None, "calls": [
            ("factor", ["factor"] + base, None, None),
            ("leq", ["leq", "--form", fl["form"], "--isometry", fl["g"],
                     "--isometry", fl["f"]], None, None)]},
        {"id": 1, "input": "oracle-o3_f5", "pre": None, "calls": [
            ("oracle", ["oracle", "--field", "5", "--dim", "3", "--check", "length"],
             None, "length")]},
    ]
    results = [runner.run(op) for op in ops]
    return items, ops, results


def _verdicts(probe, edit=None):
    """Failure kinds of the two ops after ``edit`` rewrites one call's output."""
    items, ops, results = probe
    results = [(lat, [list(r) for r in records], fail) for lat, records, fail in results]
    if edit is not None:
        op_index, call_index, change = edit
        record = results[op_index][1][call_index]
        payload = json.loads(record[2])
        change(payload)
        record[2] = json.dumps(payload)
    by_name = {inp["name"]: inp for inp in items}
    return [fail for fail, _ in run.check_results(ops, by_name, [results])[0]]


def test_real_outputs_pass(probe):
    assert _verdicts(probe) == [None, None]


def test_corrupted_vector_fails(probe):
    def corrupt(payload):
        v = payload["reflections"][0]
        v[-1] = str(exact.Field()(v[-1]) + 1)
    assert _verdicts(probe, (0, 0, corrupt)) == ["wrong", None]


def test_flipped_leq_fails(probe):
    def flip(payload):
        payload["leq"] = not payload["leq"]
    assert _verdicts(probe, (0, 1, flip)) == ["wrong", None]


def test_wrong_group_order_fails(probe):
    def shrink(payload):
        payload["group_order"] -= 1
    assert _verdicts(probe, (1, 0, shrink)) == [None, "wrong"]


def test_positive_output_with_negative_vector_fails():
    F = exact.Field()
    values = inputs.signature_values("lorentz", 3)
    gram = inputs.diag(F, values)
    # r_a r_b with Q(a) = Q(b) = -1: a positive isometry given by negative vectors
    a, b = [0, 0, 1], [1, 0, 2]
    f = exact.reflection_product(F, gram, [a, b])
    checker = check.Checker(inputs.make_input("neg", F, values, f))
    text = json.dumps({"length": 2, "positive": True, "reflections": [a, b]})
    assert checker.check("factor --positive", text) == "a reflecting vector has Q(v) <= 0"
