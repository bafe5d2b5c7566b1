"""Self-test of the benchmark at smoke size; finishes in well under a minute.

    python3 perfbench/selftest.py

Checks that every workload runs traced and untraced, prints exactly the
metric names and units BENCHMARK.json declares, answers correctly and
fires every span it expects; that a wrong stored answer is counted as a
failed operation; and that without src/ the benchmark exits non-zero
and prints no result.
"""

from __future__ import annotations

import copy
import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import corpus
import run

problems: list[str] = []


def check(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def run_once(argv: list) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run.main(argv)
    check(rc == 0, f"{argv}: exit {rc}")
    return json.loads(out.getvalue().splitlines()[-1])


def check_metrics(bench: dict) -> None:
    check({w["name"] for w in bench["workloads"]} == set(corpus.WORKLOADS),
          "BENCHMARK.json workloads differ from corpus.WORKLOADS")
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run_once(["--workload", name, "--seed", "7", "--seconds", "0.5",
                               "--trace", str(trace), "--size", "smoke"])
            where = f"{name} --trace {trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {set(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{where}: correct={result['correct']} failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{where}: metric names/units differ: "
                  f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
            check(all(math.isfinite(v["value"]) for v in result["metrics"].values()),
                  f"{where}: a metric is not a finite number")
            if trace:
                check(result["metrics"]["trace.spans_missing"]["value"] == 0,
                      f"{where}: an expected span never fired")


def check_wrong_answers_fail() -> None:
    knotdist = run.load_program()
    answers = corpus.load_answers()
    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload, field in (("compact_compute", "delta"), ("heatmap_report", "heatmap")):
            wrong = copy.deepcopy(answers)
            entry = wrong["knots"]["rect-6-6"]
            if field == "delta":
                entry["delta"][0] += 1
            else:
                entry["heatmap"][3][0] += 1
            ops, _ = run.build_corpus(workload, 7, "smoke", wrong, knotdist.generators, workdir)
            with redirect_stderr(io.StringIO()) as err:
                results, _ = run.run_pass(ops, knotdist.cli)
            failed = sum(not s.ok for s in results)
            check(failed == 1 and "rect-6-6" in err.getvalue(),
                  f"{workload}: a wrong {field} answer gave {failed} failed ops, not 1")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_fails_without_program() -> None:
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(corpus.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "compact_compute",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              f"without src/: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics(bench)
    check_wrong_answers_fail()
    check_fails_without_program()
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
