"""Write every output of the benchmark workloads' CLI pipelines into one tree.

    python3 tools/dump_outputs.py --seeds 1-4 --out DIR

For each workload in bench/workloads.py and seed, it writes the inputs into
DIR/<workload>/seed<n>/ and runs each arm's train, predict and evaluate there
through ``cli.main``, BLAS at one thread, keeping each command's stdout,
stderr and exit code as <arm>.<command>.out, .err and .code. ``diff -r`` of
two trees made from two checkouts lists every output that changed.

On the ``wide_codemixed`` inputs it also runs two LR arms the benchmark's
does not: ``lr3``, at ``ngram_max`` 3 cut to 4,000 tokens by ``max_vocab``,
and ``lr_mindf``, at ``ngram_max`` 3 keeping the tokens of df >= 2 by
``min_df``. The benchmark's LR arm keeps every bigram, so its vocabulary has
no inner words, two n-gram position rows and no token dropped for its df;
``lr3`` has inner words and a third row, and ``lr_mindf`` a third row with
every token of df 1 dropped."""
import argparse
import contextlib
import dataclasses
import io
import os
import sys
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from abusivetext import cli  # noqa: E402
from workloads import WORKLOADS, Arm, write_inputs  # noqa: E402

def lr_arm(name: str, tfidf: dict) -> Arm:
    """An LR arm with the given TF-IDF settings, trained from <name>.json."""
    return Arm(
        name=name,
        train_args=("--config", f"{name}.json"),
        f1_floor=0.0,
        run_config={
            "train_path": "train.tsv",
            "dev_path": "dev.tsv",
            "model_path": f"{name}.bundle.json",
            "model_kind": "tfidf_lr",
            "seed": 7,
            "tfidf": tfidf,
            "lr": {"epochs": 20},
        },
    )


EXTRA_ARMS = {
    "wide_codemixed": (
        lr_arm("lr3", {"ngram_max": 3, "max_vocab": 4000}),
        lr_arm("lr_mindf", {"ngram_max": 3, "min_df": 2}),
    ),
}


def commands(arm) -> dict[str, list[str]]:
    bundle, preds = f"{arm.name}.bundle.json", f"{arm.name}.preds.tsv"
    return {
        "train": ["train", *arm.train_args],
        "predict": ["predict", "--model", bundle, "--input", "test.tsv", "--out", preds],
        "evaluate": ["evaluate", "--gold", "test.tsv", "--pred", preds,
                     "--json-out", f"{arm.name}.report.json"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-4", help="one seed or an inclusive range a-b")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    root = args.out.resolve()
    for name, workload in WORKLOADS.items():
        # Extra arms change the arms alone, never the generated inputs.
        workload = dataclasses.replace(workload, arms=workload.arms + EXTRA_ARMS.get(name, ()))
        for seed in range(int(first), int(last or first) + 1):
            work = root / name / f"seed{seed}"
            write_inputs(workload, seed, work)
            os.chdir(work)
            for arm in workload.arms:
                for command, argv in commands(arm).items():
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv)
                    for suffix, text in (("out", out.getvalue()), ("err", err.getvalue()),
                                         ("code", f"{code}\n")):
                        Path(f"{arm.name}.{command}.{suffix}").write_text(text, "utf-8")


if __name__ == "__main__":
    main()
