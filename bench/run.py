"""Benchmark driver for abusivetext.

    python3 bench/run.py --workload encoder_synth --seed 1 --seconds 50 --trace 0

Run from the repository root. The driver writes the workload's inputs from
``--seed`` (the setup, repeated SETUP_REPEATS times, each in a fresh
process), then runs the workload in one more process: a single closed-loop
client that calls ``abusivetext.cli.main`` in-process for train -> predict
-> evaluate of each arm, one command after another: one warm-up pipeline,
then timed pipelines until ``--seconds`` is used up. Every command's outputs
are checked. With ``--trace 1`` untraced and traced pipelines alternate and
the per-layer metrics come from the traced ones.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with its
unit, plus the machine and the sha256 digests of inputs and outputs. The
working files go to ``.bench_work/<workload>/``.
"""
import time

_T0 = time.perf_counter()  # set-up time starts before abusivetext is imported

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
MIN_UNTRACED = 3  # timed pipelines per untraced run, even past --seconds
MIN_TRACED = 2  # traced pipelines per traced run, each after an untraced one
RUN_LIMIT_S = 170  # the whole run, set-up included, ends within this
PINNED_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# End-to-end metrics: name -> unit. A workload sums over the arms it runs.
E2E_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "predict_rows_per_s": "rows/s",
    "bundle_bytes": "B",
    "pipeline_s": "s",
    "peak_rss_mib": "MiB",
}
# Per-arm figures printed for information, not part of the result object.
ARM_UNITS = {
    "train_s": "s", "predict_s": "s", "evaluate_s": "s",
    "predict_rows_per_s": "rows/s", "bundle_bytes": "B", "macro_f1": "1",
}
OUTPUTS = ("bundle.json", "preds.tsv", "report.json")  # per arm, one per command
PROB_RE = re.compile(r"^[01]\.\d{6}$")


class BenchError(Exception):
    """The workload could not be run at all; no result is printed."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def import_package():
    """Import abusivetext.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import abusivetext.cli as cli
    except ImportError as exc:
        raise BenchError(f"cannot import abusivetext from {SRC}: {exc}") from exc
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"abusivetext was imported from {cli.__file__}, not {SRC}")
    return cli


# ---------------------------------------------------------------------------
# Set-up phase (child process)
# ---------------------------------------------------------------------------

def phase_setup(workload: workloads.Workload, seed: int, work: Path) -> None:
    import_package()
    workloads.write_inputs(workload, seed, work)
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))


# ---------------------------------------------------------------------------
# Measure phase (child process)
# ---------------------------------------------------------------------------

def read_tsv(path: Path) -> list[list[str]]:
    text = path.read_text(encoding="utf-8")
    return [line.split("\t") for line in text.split("\n") if line]


def check_predictions(preds: Path, test_rows: list[list[str]]) -> list[str]:
    """Problems with a predictions file: ids must follow the input rows in
    order, probabilities have 6 decimals strictly inside (0, 1), and each
    label agrees with its probability."""
    rows = read_tsv(preds)
    if not rows or rows[0] != ["id", "probability", "label"]:
        return [f"{preds.name}: bad header"]
    rows = rows[1:]
    problems = []
    if [r[0] for r in rows] != [r[0] for r in test_rows[1:]]:
        problems.append(f"{preds.name}: ids do not match the input rows in order")
    for row in rows:
        if len(row) != 3 or not PROB_RE.match(row[1]) or not 0.0 < float(row[1]) < 1.0:
            problems.append(f"{preds.name}: bad row {row!r}")
            break
        p = float(row[1])
        expected = {workloads.ABUSIVE} if p > 0.5 else {workloads.NON_ABUSIVE}
        if p == 0.5:
            expected = {workloads.ABUSIVE, workloads.NON_ABUSIVE}
        if row[2] not in expected:
            problems.append(f"{preds.name}: label {row[2]!r} disagrees with {row[1]}")
            break
    return problems


def check_report(
    report: Path, preds: Path, test_rows: list[list[str]], floor: float
) -> tuple[list[str], float]:
    """Problems with an evaluate report: its confusion counts and macro-F1
    must match a recount from gold and predicted labels, and macro-F1 must
    reach the arm's floor."""
    doc = json.loads(report.read_text(encoding="utf-8"))
    gold = {r[0]: r[2] for r in test_rows[1:]}
    counts = {"tp": 0, "fn": 0, "fp": 0, "tn": 0}
    for row in read_tsv(preds)[1:]:
        g, p = gold.get(row[0]) == workloads.ABUSIVE, row[2] == workloads.ABUSIVE
        counts[("t" if g == p else "f") + ("p" if p else "n")] += 1
    f1 = []
    for pos, neg_fp, neg_fn in (("tp", "fp", "fn"), ("tn", "fn", "fp")):
        tp, fp, fn = counts[pos], counts[neg_fp], counts[neg_fn]
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    expected_f1 = (f1[0] + f1[1]) / 2
    score = doc.get("macro_f1")
    problems = []
    if doc.get("confusion") != counts:
        problems.append(f"{report.name}: confusion {doc.get('confusion')} != recount {counts}")
    if not isinstance(score, float) or abs(score - expected_f1) > 1e-12:
        problems.append(f"{report.name}: macro_f1 {score!r} != recount {expected_f1}")
    elif score < floor:
        problems.append(f"{report.name}: macro_f1 {score:.4f} below floor {floor}")
    return problems, score if isinstance(score, float) else float("nan")


class Client:
    """The closed-loop client: runs one pipeline at a time and records its
    command times, output checks and output digests."""

    def __init__(self, cli, workload: workloads.Workload, work: Path):
        self.cli = cli
        self.workload = workload
        self.work = work
        self.test_rows = read_tsv(work / "test.tsv")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, set[str]] = {}

    def command(self, argv: list[str], run_id: str, trace) -> tuple[float, bool]:
        if trace is not None:
            trace.run_id = run_id
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if code != 0:
            self.problems.append(f"{run_id}: exit {code}: {err.getvalue().strip()}")
        return elapsed, code == 0

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)

    def pipeline(self, iteration: int, trace=None) -> dict:
        for arm in self.workload.arms:
            for suffix in OUTPUTS:
                (self.work / f"{arm.name}.{suffix}").unlink(missing_ok=True)
        arms = {}
        start = time.perf_counter()
        for arm in self.workload.arms:
            bundle, preds, report = (f"{arm.name}.{suffix}" for suffix in OUTPUTS)
            tag = f"it{iteration}.{arm.name}"
            times, ok = {}, {}
            times["train_s"], ok["train"] = self.command(
                ["train", *arm.train_args], f"{tag}.train", trace)
            times["predict_s"], ok["predict"] = self.command(
                ["predict", "--model", bundle, "--input", "test.tsv", "--out", preds],
                f"{tag}.predict", trace)
            times["evaluate_s"], ok["evaluate"] = self.command(
                ["evaluate", "--gold", "test.tsv", "--pred", preds, "--json-out", report],
                f"{tag}.evaluate", trace)
            arms[arm.name] = (arm, times, ok)
        pipeline_s = time.perf_counter() - start

        record = {"pipeline_s": pipeline_s, "arms": {}}
        for name, (arm, times, ok) in arms.items():
            paths = {k: self.work / f"{name}.{k}" for k in OUTPUTS}
            for cmd, path in zip(("train", "predict", "evaluate"), paths.values()):
                if not ok[cmd] or not path.is_file():
                    self.fail([f"it{iteration}.{name}.{cmd}: failed or wrote no {path.name}"])
                    ok[cmd] = False
            score = float("nan")
            if ok["predict"]:
                problems = check_predictions(paths["preds.tsv"], self.test_rows)
                if problems:
                    self.fail(problems)
            if ok["evaluate"] and ok["predict"]:
                problems, score = check_report(
                    paths["report.json"], paths["preds.tsv"], self.test_rows, arm.f1_floor)
                if problems:
                    self.fail(problems)
            for path in paths.values():
                if path.is_file():
                    self.digests.setdefault(path.name, set()).add(sha256(path))
            rows = len(self.test_rows) - 1
            record["arms"][name] = {
                **times,
                "predict_rows_per_s": rows / times["predict_s"],
                "bundle_bytes": paths["bundle.json"].stat().st_size if ok["train"] else 0,
                "macro_f1": score,
                "rows": rows,
            }
        return record


def median_of(records: list[dict], key) -> float:
    return statistics.median(key(r) for r in records)


def e2e_metrics(records: list[dict]) -> tuple[dict, dict]:
    metrics = {
        "train_s": median_of(records, lambda r: sum(a["train_s"] for a in r["arms"].values())),
        "predict_rows_per_s": median_of(
            records,
            lambda r: sum(a["rows"] for a in r["arms"].values())
            / sum(a["predict_s"] for a in r["arms"].values()),
        ),
        "bundle_bytes": median_of(records, lambda r: sum(a["bundle_bytes"] for a in r["arms"].values())),
        "pipeline_s": median_of(records, lambda r: r["pipeline_s"]),
    }
    per_arm = {
        f"{arm}.{key}": median_of(records, lambda r: r["arms"][arm][key])
        for arm in records[0]["arms"]
        for key in ARM_UNITS
    }
    return metrics, per_arm


def machine_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads_pinned": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
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


def phase_measure(
    workload: workloads.Workload, work: Path, seconds: float, traced: bool
) -> None:
    cli = import_package()
    os.chdir(work)
    client = Client(cli, workload, work)
    untraced: list[dict] = []
    traced_records: list[dict] = []
    layer_iterations: list[dict] = []
    trace = tracer.Tracer() if traced else None
    start = time.perf_counter()
    # Checked but not timed: it pays the first-call costs (lazy imports,
    # first page faults of the large arrays) that later pipelines do not.
    client.pipeline(0)
    next_traced = False
    while True:
        iteration = 1 + len(untraced) + len(traced_records)
        if next_traced:
            first = len(trace.spans)
            with trace:
                traced_records.append(client.pipeline(iteration, trace))
            layer_iterations.append(trace.take_iteration(first))
        else:
            untraced.append(client.pipeline(iteration))
        # A traced run alternates, starting untraced.
        next_traced = traced and len(traced_records) < len(untraced)
        if traced:
            enough = len(traced_records) >= MIN_TRACED
        else:
            enough = len(untraced) >= MIN_UNTRACED
        pool = traced_records if next_traced and traced_records else untraced
        expected = statistics.median(r["pipeline_s"] for r in pool)
        if enough and time.perf_counter() - start + expected > seconds:
            break

    result = {
        "attempted": client.attempted,
        "failed": client.failed,
        "problems": client.problems[:20],
        "iterations": len(untraced),
        "pipelines": untraced,
        "output_digests": {k: sorted(v) for k, v in client.digests.items()},
        "machine": machine_info(),
    }
    result["metrics"], result["per_arm"] = e2e_metrics(untraced)
    result["metrics"]["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if traced:
        layers = tracer.layer_metrics(layer_iterations)
        untraced_s = median_of(untraced, lambda r: r["pipeline_s"])
        traced_s = median_of(traced_records, lambda r: r["pipeline_s"])
        layers["trace.iterations"] = len(traced_records)
        layers["trace.pipeline_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - untraced_s
        result["layers"] = layers
        trace.write_spans(work / "spans.jsonl")
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Driver (parent process)
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(PINNED_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("ABUSIVETEXT_SEED", None)
    return env


def run_child(args: argparse.Namespace, phase: str, deadline: float) -> str:
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--phase", phase,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {phase} phase")
    try:
        done = subprocess.run(
            argv, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{phase} phase did not finish within {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{phase} phase exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout


def drive(args: argparse.Namespace, work: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_times = [
        json.loads(run_child(args, "setup", deadline).splitlines()[-1])["setup_s"]
        for _ in range(SETUP_REPEATS)
    ]
    input_digests = {p.name: sha256(p) for p in sorted(work.iterdir())}
    run_child(args, "measure", deadline)
    result = json.loads((work / "result.json").read_text())
    result["metrics"]["setup_s"] = statistics.median(setup_times)
    result["input_digests"] = input_digests
    return result


def report(args: argparse.Namespace, result: dict) -> None:
    metrics = result["metrics"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['iterations']} untraced pipelines, "
          f"{result['attempted']} commands, {result['failed']} failed")
    for problem in result["problems"]:
        print(f"problem {problem}")
    for name, unit in E2E_UNITS.items():
        print(f"metric {name} {metrics[name]:.6g} {unit}")
    for name, value in result["per_arm"].items():
        print(f"arm {name} {value:.6g} {ARM_UNITS[name.split('.', 1)[1]]}")
    if args.trace:
        specs = tracer.metric_specs()
        out = {name: {"value": result["layers"][name], "unit": specs[name][0]} for name in specs}
        for name, value in out.items():
            print(f"layer {name} {value['value']:.6g} {value['unit']}")
    else:
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print("input_digests " + json.dumps(result["input_digests"], sort_keys=True))
    print("output_digests " + json.dumps(result["output_digests"], sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out,
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("drive", "setup", "measure"), default="drive",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    work = WORK_ROOT / workload.name
    try:
        if args.phase == "setup":
            phase_setup(workload, args.seed, work)
        elif args.phase == "measure":
            phase_measure(workload, work, args.seconds, bool(args.trace))
        else:
            report(args, drive(args, work))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
