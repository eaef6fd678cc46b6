"""The wallfact benchmark: three workloads, run from the root of a checkout.

    python3 perfbench/run.py --workload qq-minimal --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

(``all`` runs the three in one process, so after the first one set-up time
omits the import and peak RSS is the whole process's.)

One process, one caller, no threads: a closed loop in which each op (a fixed
sequence of ``wallfact.cli.main(argv)`` calls, or of public functions that
have no subcommand, on one input) starts when the previous one has ended.
Set-up generates the inputs from ``--seed`` and writes them as JSON files
under ``.perfbench/`` in the checkout.  A round is the workload's fixed op
list; at least two whole rounds run, and more until ``--seconds`` have
passed, so every round does the same work and every count repeats exactly.
Outputs are checked afterwards, outside the timed region, by ``check.py``.

With ``--trace 1`` the untraced rounds are followed by one round with the
layer wrappers of ``spans.py`` installed, and the per-layer metrics and the
tracing overhead are printed instead of the end-to-end ones.  The last line
of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("qq-minimal", "qq-positive", "fp-oracle")
SETUP_REPEATS = 5
# Other tenants slow a shared machine down by up to 2.5x for seconds to
# minutes at a time.  Every round repeats the same ops, so each op's latency
# is taken from its fastest round, and throughput is the op count over the
# sum of those latencies: a round with every op at its fastest.
MIN_ROUNDS = 2

# cli.<name>.p50_ms is reported for these call labels
CLI_LABELS = {"length": "length", "factor": "factor", "factor --positive": "factor_positive",
              "spinor": "spinor", "classify": "classify", "leq": "leq", "interval": "interval",
              "interval --describe": "interval_describe", "oracle": "oracle", "verify": "verify"}

# PositivePair.case values and positive_factorization routes, counted per layer
PAIR_CASES = ("immediate", "case1-nonzero-sum", "case1-zero-sum",
              "case2-large-b", "case2-square-search")
ROUTES = ("definite", "positive_basis", "prepend", "peel")

# output keys that hold vectors or matrices, for coefficient sizes
VECTOR_KEYS = ("reflections", "elements", "fixed_line", "hyperplane")


class OpTimeout(BaseException):
    """Raised inside an op that ran past its budget (not an Exception, so
    no handler in the library can swallow it)."""


# ---------------------------------------------------------------------------
# set-up

def encode(x):
    """JSON scalar: 'p/q' strings over Q, residues over F_p."""
    if isinstance(x, int):
        return x
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle)


def space_payload(inp):
    field = "rational" if inp["p"] is None else {"field": "prime", "p": inp["p"]}
    return {"field": field, "form": [[encode(x) for x in row] for row in inp["gram"]]}


def generate(workload, seed):
    import inputs

    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "qq-minimal":
        return inputs.minimal_inputs(rng)
    if workload == "qq-positive":
        return inputs.positive_inputs(rng)
    return inputs.fp_inputs(rng)


def write_inputs(items, workdir):
    """One space, isometry and partner file per input (plus a word for fp ones)."""
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    for inp in items:
        files = {"form": os.path.join(workdir, inp["name"] + ".form.json")}
        write_json(files["form"], space_payload(inp))
        for key in ("f", "g"):
            if inp.get(key) is not None:
                files[key] = os.path.join(workdir, "%s.%s.json" % (inp["name"], key))
                write_json(files[key], {"matrix": [[encode(x) for x in row] for row in inp[key]]})
        if inp.get("word") is not None:
            files["word"] = os.path.join(workdir, inp["name"] + ".word.json")
            write_json(files["word"], {"length": len(inp["word"]),
                                       "reflections": [[encode(x) for x in v] for v in inp["word"]]})
        files["cache"] = os.path.join(workdir, inp["name"] + ".census.json")
        inp["files"] = files


def build_round(workload, items):
    """The fixed op list of one round.  An op is a list of calls
    (label, argv or None for a library call, index of the call whose output
    feeds stdin or None, oracle check expected or None); ``pre`` names a
    file removed before the op."""
    ops = []

    def op(inp, calls, pre=None):
        calls = [call + (None,) * (4 - len(call)) for call in calls]
        ops.append({"id": len(ops), "input": inp["name"], "calls": calls, "pre": pre})

    if workload == "qq-minimal":
        for inp in items:
            fl = inp["files"]
            base = ["--form", fl["form"], "--isometry", fl["f"]]
            op(inp, [("factor", ["factor"] + base),
                     ("verify", ["verify"] + base + ["--factorization", "-"], 0),
                     ("spinor", ["spinor"] + base),
                     ("length", ["length"] + base),
                     ("leq", ["leq", "--form", fl["form"], "--isometry", fl["g"],
                              "--isometry", fl["f"]])])
        return ops
    if workload == "qq-positive":
        for inp in items:
            base = ["--form", inp["files"]["form"], "--isometry", inp["files"]["f"]]
            calls = [("factor --positive", ["factor", "--positive"] + base)]
            if inp.get("lorentz"):
                calls += [("classify", ["classify"] + base),
                          ("interval --describe", ["interval", "--describe"] + base),
                          ("hyperbolic", None)]
            op(inp, calls)
        return ops
    by_name = {inp["name"]: inp for inp in items}
    for group, second_check in (("o4p_f3", "length"), ("o4m_f3", "length"), ("o3_f5", "wall")):
        inp = by_name["oracle-" + group]
        fl = inp["files"]
        # the first call computes and writes the census cache, the second reads it
        op(inp, [("oracle", ["oracle", "--form", fl["form"], "--check", "length",
                             "--cache", fl["cache"]], None, "length")], pre=fl["cache"])
        op(inp, [("oracle", ["oracle", "--form", fl["form"], "--check", second_check,
                             "--cache", fl["cache"]], None, second_check)])
    for inp in items:
        fl = inp["files"]
        if inp["name"].startswith("interval-"):
            op(inp, [("interval", ["interval", "--form", fl["form"], "--isometry", fl["f"]])])
    for inp in items:
        fl = inp["files"]
        if not inp["name"].startswith("light-"):
            continue
        base = ["--form", fl["form"], "--isometry", fl["f"]]
        op(inp, [("factor", ["factor"] + base)])
        op(inp, [("verify", ["verify"] + base + ["--factorization", fl["word"]])])
        op(inp, [("spinor", ["spinor"] + base)])
        op(inp, [("length", ["length"] + base)])
        op(inp, [("leq", ["leq", "--form", fl["form"], "--isometry", fl["g"],
                          "--isometry", fl["f"]])])
    return ops


# ---------------------------------------------------------------------------
# running ops

class Runner:
    """Executes ops in-process under a per-op budget enforced by SIGALRM."""

    def __init__(self, budget_s, by_name):
        import wallfact.cli

        self.cli = wallfact.cli
        self.budget_s = budget_s
        self.by_name = by_name
        self.in_op = False
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if self.in_op:
            raise OpTimeout()

    def _cli(self, argv, stdin_text):
        buf = io.StringIO()
        saved = sys.stdin
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        finally:
            sys.stdin = saved
        return code, buf.getvalue()

    def _library(self, inp):
        """Public functions without a subcommand, called the way the CLI would."""
        import wallfact.hyperbolic
        import wallfact.jsonio as jsonio

        with open(inp["files"]["form"]) as handle:
            space = jsonio.decode_space(json.load(handle))
        with open(inp["files"]["f"]) as handle:
            f = jsonio.decode_isometry(json.load(handle), space)
        fact = wallfact.hyperbolic.hyperbolic_positive_factorization(f)
        return 0, json.dumps(jsonio.encode_factorization(fact, positive=True), sort_keys=True)

    def run(self, op):
        """(latency seconds, [(label, code, text, seconds)], failure kind or None)."""
        if op["pre"] and os.path.exists(op["pre"]):
            os.remove(op["pre"])
        inp = self.by_name[op["input"]]
        records = []
        fail = None
        start = time.perf_counter()
        self.in_op = True
        signal.setitimer(signal.ITIMER_REAL, self.budget_s)
        try:
            for label, argv, feed, _ in op["calls"]:
                t0 = time.perf_counter()
                if argv is None:
                    code, text = self._library(inp)
                else:
                    stdin_text = records[feed][2] if isinstance(feed, int) else None
                    code, text = self._cli(argv, stdin_text)
                records.append((label, code, text, time.perf_counter() - t0))
                if code != 0:
                    fail = "exit%d" % code if code in (1, 2) else "exit_other"
                    break
        except OpTimeout:
            fail = "timeout"
        except Exception:  # an uncaught library exception fails the op, not the run
            fail = "exception"
        finally:
            self.in_op = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - start, records, fail


def run_rounds(runner, ops, seconds):
    """Whole rounds, at least MIN_ROUNDS, until ``seconds`` have passed:
    (seconds per round, [per round: per op (latency, call records, failure)])."""
    results, round_s = [], []
    start = time.perf_counter()
    while len(results) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        results.append([runner.run(op) for op in ops])
        round_s.append(time.perf_counter() - t0)
    return round_s, results


# ---------------------------------------------------------------------------
# checking, outside the timed region

def out_bits(text):
    import check

    try:
        payload = json.loads(text)
    except ValueError:
        return None
    if not isinstance(payload, dict) or not any(k in payload for k in VECTOR_KEYS):
        return None
    return check.output_bits({k: payload[k] for k in VECTOR_KEYS if k in payload})


def check_results(ops, by_name, results):
    """Per round and op: (failure kind or None, output bits or None).

    Each distinct output of a call is checked once; a later round that
    prints the same text for the same call gets the same verdict."""
    import check

    checkers = {}
    verdicts = {}
    checked = []
    for round_results in results:
        row = []
        for op, (_, records, fail) in zip(ops, round_results):
            bits = None
            if fail is None:
                for idx, (label, _code, text, _s) in enumerate(records):
                    key = (op["id"], idx, text)
                    if key not in verdicts:
                        inp = by_name[op["input"]]
                        if inp["name"] not in checkers:
                            checkers[inp["name"]] = check.Checker(inp)
                        reason = checkers[inp["name"]].check(label, text, op["calls"][idx][3])
                        verdicts[key] = (reason, out_bits(text))
                    reason, b = verdicts[key]
                    if reason is not None:
                        fail = "wrong"
                    if b is not None:
                        bits = b if bits is None else max(bits, b)
            row.append((fail, bits))
        checked.append(row)
    return checked


# ---------------------------------------------------------------------------
# metrics

def percentile(values, q):
    """Linear interpolation between closest ranks, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_quantile(ops_per_round):
    """The highest percentile with at least ten ops of one round beyond it, at
    most p90.  Fixed by the round, so every run of a workload uses the same one."""
    return max(0.5, min(0.9, 1 - 10 / ops_per_round))


def fastest(results, i):
    """Op i's latency in its fastest round."""
    return min(round_results[i][0] for round_results in results)


def end_to_end(ops, results, checked, setup_s):
    latencies = [fastest(results, i) for i in range(len(ops))]
    fails = [fail for row in checked for fail, _ in row]
    first_bits = [b for _, b in checked[0] if b is not None]
    q = tail_quantile(len(ops))
    return {
        "throughput_ops_s": (len(ops) / sum(latencies), "ops/s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000 * percentile(latencies, q), "ms"),
        "fail_share": (sum(f is not None for f in fails) / len(fails), "ratio"),
        "max_coeff_bits": (max(first_bits, default=0), "bits"),
        "coeff_bits_p50": (statistics.median(first_bits) if first_bits else 0, "bits"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }, q


def cli_p50(ops, results):
    """Median per subcommand of each call's fastest round."""
    best = {}
    for round_results in results:
        for op, (_, records, _) in zip(ops, round_results):
            for idx, (label, _code, _text, seconds) in enumerate(records):
                key = (op["id"], idx)
                best[key] = (label, min(seconds, best.get(key, (label, seconds))[1]))
    per_label = {}
    for label, seconds in best.values():
        per_label.setdefault(label, []).append(seconds)
    return {"cli.%s.p50_ms" % name: 1000 * statistics.median(per_label[label])
            if label in per_label else 0.0 for label, name in CLI_LABELS.items()}


def per_layer(tracer, ops, by_name, plain_throughput, traced_throughput, untraced_cli):
    import spans

    calls, self_s = tracer.layer_totals()
    counts = tracer.counts
    out = {}
    spanned = sorted({name for name, *_ in spans.FUNCTIONS + spans.METHODS}
                     | {"quadspace.isometry_check"})
    for name in spanned:
        out[name + ".calls"] = calls.get(name, 0)
        out[name + ".self_s"] = self_s.get(name, 0.0)
    out["field.fp_new.calls"] = counts["field.fp_new.calls"]
    out["linalg.matrix_new.calls"] = counts["linalg.matrix_new.calls"]
    out["linalg.peak_entry_bits"] = tracer.peak_entry_bits
    for case in PAIR_CASES:
        out["positive.pair_case." + case] = counts["positive.pair_case." + case]
    routes = [by_name[op["input"]]["props"].get("route") for op in ops]
    for route in ROUTES:
        out["positive.route_share." + route] = routes.count(route) / len(routes)
    leq_calls = calls.get("order.less_equal", 0)
    out["order.leq_true_ratio"] = counts["order.less_equal.true"] / leq_calls if leq_calls else 0.0
    out["oracle.bfs_products"] = counts["oracle.bfs_products"]
    out["oracle.bfs_yield"] = (counts["oracle.bfs_new"] / counts["oracle.bfs_products"]
                               if counts["oracle.bfs_products"] else 0.0)
    out["oracle.cache_lookups"] = counts["oracle.cache_lookups"]
    out["oracle.cache_hit_ratio"] = (counts["oracle.cache_hits"] / counts["oracle.cache_lookups"]
                                     if counts["oracle.cache_lookups"] else 0.0)
    out.update(untraced_cli)
    out["trace.spans"] = len(tracer.span_start)
    out["trace.overhead"] = 1 - traced_throughput / plain_throughput
    return out


def property_shares(items, ops):
    """Share of ops per value of each recorded input property."""
    by_name = {inp["name"]: inp for inp in items}
    shares = {}
    for op in ops:
        for key, value in by_name[op["input"]]["props"].items():
            if key == "in_bits":
                continue
            shares.setdefault(key, {}).setdefault(str(value), 0)
            shares[key][str(value)] += 1
    return {key: {v: round(c / len(ops), 4) for v, c in sorted(vals.items())}
            for key, vals in sorted(shares.items())}


def environment(seed):
    head = os.path.join(ROOT, ".git", "HEAD")
    commit = "unknown"
    if os.path.exists(head):
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as handle:
                    ref = handle.read().strip()
        commit = ref
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "wallfact")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)), "seed": seed,
            "commit": commit, "src_sha256": digest.hexdigest()[:16]}


# ---------------------------------------------------------------------------

def import_library():
    """Import wallfact from this checkout's src/ only; None when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "wallfact", "__init__.py")):
        return None
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import wallfact
    import wallfact.cli  # noqa: F401  (part of the import cost users pay)

    if not os.path.abspath(wallfact.__file__).startswith(SRC + os.sep):
        return None
    return wallfact


def setup(workload, seed):
    """Generate and write the inputs SETUP_REPEATS times; median seconds."""
    workdir = os.path.join(OUT_DIR, "work-" + workload)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        items = generate(workload, seed)
        write_inputs(items, workdir)
        times.append(time.perf_counter() - t0)
    return items, statistics.median(times)


def run(workload, seed, seconds, traced):
    """Run one benchmark; returns (result dict, report dict)."""
    t0 = time.perf_counter()
    if import_library() is None:
        raise FileNotFoundError("no src/wallfact in %s" % ROOT)
    import_s = time.perf_counter() - t0
    import inputs

    items, gen_s = setup(workload, seed)
    by_name = {inp["name"]: inp for inp in items}
    ops = build_round(workload, items)
    runner = Runner(inputs.BUDGET_S[workload], by_name)
    round_s, results = run_rounds(runner, ops, seconds)
    checked = check_results(ops, by_name, results)
    metrics, q = end_to_end(ops, results, checked, import_s + gen_s)
    fails = [fail for row in checked for fail, _ in row]
    report = {
        "workload": workload, "env": environment(seed), "rounds": len(round_s),
        "round_s": round_s,
        "ops_per_round": len(ops), "budget_s": inputs.BUDGET_S[workload],
        "tail_percentile": round(100 * q, 1),
        "failures": {kind: fails.count(kind) for kind in
                     ("exit1", "exit2", "exit_other", "exception", "wrong", "timeout")},
        "failed_ops": sorted({ops[i]["input"] for row in checked
                              for i, (fail, _) in enumerate(row) if fail}),
        "input_shares": property_shares(items, ops),
        "in_bits": {"p50": statistics.median(inp["props"]["in_bits"] for inp in items
                                             if "in_bits" in inp["props"]),
                    "max": max(inp["props"]["in_bits"] for inp in items
                               if "in_bits" in inp["props"])},
        "ops": [{"id": op["id"], "input": op["input"],
                 "calls": [c[0] for c in op["calls"]],
                 "in_bits": by_name[op["input"]]["props"].get("in_bits"),
                 "out_bits": checked[0][i][1], "fail": checked[0][i][0],
                 "out_sha": hashlib.sha256("\n".join(
                     r[2] for r in results[0][i][1]).encode()).hexdigest()[:16],
                 "ms": [round(1000 * res[i][0], 3) for res in results]}
                for i, op in enumerate(ops)],
    }
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_results = []
            for op in ops:
                tracer.begin_op(op["id"])
                outcome = runner.run(op)
                tracer.end_op(keep=outcome[2] is None)
                traced_results.append(outcome)
        finally:
            tracer.uninstall()
        traced_checked = check_results(ops, by_name, [traced_results])
        report["traced_failures"] = sum(f is not None for f, _ in traced_checked[0])
        layer = per_layer(tracer, ops, by_name, metrics["throughput_ops_s"][0],
                          len(ops) / sum(lat for lat, _, _ in traced_results),
                          cli_p50(ops, results))
        tracer.write(os.path.join(OUT_DIR, "spans-%s.bin" % workload))
        report["per_layer"] = layer
        shown = {name: {"value": value, "unit": _layer_unit(name)} for name, value in layer.items()}
    else:
        shown = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                 if name != "fail_share"}
    report["end_to_end"] = {name: {"value": value, "unit": unit}
                            for name, (value, unit) in metrics.items()}
    result = {"correct": report["failures"]["wrong"] == 0, "attempted": len(fails),
              "failed": sum(f is not None for f in fails), "metrics": shown}
    return result, report


def _layer_unit(name):
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith(("ratio", "share", "yield", "overhead")) or ".route_share." in name:
        return "ratio"
    return "count"


def print_report(result, report, traced):
    print("# %s env %s" % (report["workload"], json.dumps(report["env"], sort_keys=True)))
    print("# %s inputs %s, input bits %s" % (
        report["workload"], json.dumps(report["input_shares"], sort_keys=True),
        json.dumps(report["in_bits"], sort_keys=True)))
    print("# %s rounds %d x %d ops, budget %.0f s/op, failures %s %s" % (
        report["workload"], report["rounds"], report["ops_per_round"], report["budget_s"],
        json.dumps(report["failures"], sort_keys=True), report["failed_ops"]))
    e2e = report["end_to_end"]
    print("# %s end-to-end " % report["workload"] + ", ".join(
        "%s=%.6g %s" % (name, e2e[name]["value"], e2e[name]["unit"]) for name in e2e)
        + " (n=%d ops per round, tail=p%g)" % (report["ops_per_round"], report["tail_percentile"]))
    if traced:
        layer = report["per_layer"]
        print("# %s per-layer " % report["workload"] + ", ".join(
            "%s=%.6g" % (name, value) for name, value in layer.items()))
        print("# %s tracing overhead %.1f%% of untraced throughput, %d spans" % (
            report["workload"], 100 * layer["trace.overhead"], layer["trace.spans"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result, report = run(name, args.seed, args.seconds, bool(args.trace))
        except FileNotFoundError as exc:
            print("perfbench: %s" % exc, file=sys.stderr)
            return 2
        os.makedirs(OUT_DIR, exist_ok=True)
        write_json(os.path.join(OUT_DIR, "result-%s-%d-trace%d.json"
                                % (name, args.seed, args.trace)), report)
        print_report(result, report, args.trace)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({"%s.%s" % (name, metric): value
                                    for metric, value in result["metrics"].items()})
    print(json.dumps(result if len(names) == 1 else combined, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
