"""knotdist benchmark: whole corpus passes through the CLI, answers checked.

    python3 perfbench/run.py --workload compact_compute --seed 1 --seconds 25 --trace 0

One client in one thread calls knotdist.cli.main([...]) in-process as a
closed loop: the next operation starts when the previous one returned.
Set-up imports knotdist from ./src, generates the workload's corpus,
writes it as knot files and makes one warm-up pass; it is repeated and
its median reported.  The measured region then runs whole corpus passes
for --seconds and compares every operation's stdout with the answer the
stored base-knot answers predict, outside the timed region.

Every file does the same work in every pass, and interference from the
host only ever adds time, so each file's latency is its fastest sample
of the run.  knots_per_s is corpus files over the sum of those latencies,
op_p50_ms and op_p90_ms their percentiles over the files.  Medians of
whole samples spread several times more on a shared two-core host.

With --trace 0 the last stdout line carries the end-to-end metrics.
With --trace 1 passes alternate untraced and traced, the public functions
of every layer are wrapped from outside (see spans.py), all spans go to
perfbench/_out/trace-<workload>-seed<seed>.json and the last line carries
the per-layer metrics: per operation, from each file's fastest traced
sample, unless the name says otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import corpus
import spans

ROOT = corpus.HERE.parent
SRC = ROOT / "src"
OUT = corpus.HERE / "_out"
SETUP_REPEATS = 3

_COMPUTE = ("cli.main", "knotfile.parse_knot", "lattice.validate", "lattice.scale",
            "engine.gromov1_distortion", "engine.gromov1_distortion.vertex_distortion",
            "midpoint_analysis.certify_unknot", "report.build_report", "report.render_json")
EXPECTED_SPANS = {
    "compact_compute": _COMPUTE + ("engine.vertex_distortion",),
    "hairpin_certify": ("cli.main", "knotfile.parse_knot", "lattice.validate",
                        "engine.vertex_distortion", "midpoint_analysis.certify_unknot"),
    "heatmap_report": _COMPUTE + ("engine.vertex_distortion_with_heatmap",),
}
SPAN_KEYS = ("cli.main", "knotfile.parse_knot", "lattice.validate", "lattice.scale",
             "engine.vertex_distortion", "engine.vertex_distortion_with_heatmap",
             "engine.gromov1_distortion", "engine.gromov1_distortion.vertex_distortion",
             "midpoint_analysis.certify_unknot", "report.build_report", "report.render_json")
SWEEP_KEYS = ("engine.vertex_distortion", "engine.vertex_distortion_with_heatmap",
              "engine.gromov1_distortion")
MICROSECOND_KEYS = ("midpoint_analysis.certify_unknot",)
LAYERS = ("cli", "knotfile", "lattice", "engine", "midpoint_analysis", "report")


class ProgramMissing(RuntimeError):
    pass


@dataclass
class Op:
    argv: list
    expected: Optional[str]  # None when the stored answers do not apply


class Sample(NamedTuple):
    seconds: float
    ok: bool
    spans: tuple  # (first, end) indices of the op's spans in the tracer


def load_program():
    """Import knotdist from the checkout's src/, never from elsewhere."""
    if not (SRC / "knotdist" / "__init__.py").is_file():
        raise ProgramMissing(f"no knotdist package under {SRC}")
    sys.path.insert(0, str(SRC))
    import knotdist
    import knotdist.cli
    import knotdist.generators

    if Path(knotdist.__file__).resolve().parent != SRC / "knotdist":
        raise ProgramMissing(f"knotdist imported from {knotdist.__file__}, not {SRC}")
    return knotdist


def build_corpus(name: str, seed: int, size: str, answers: dict, generators,
                 directory: Path) -> tuple[list, float]:
    """Write the workload's knot files; return the ops and the seconds
    spent generating and writing (expected outputs are built untimed)."""
    workload = corpus.WORKLOADS[name]
    rng = random.Random(f"perfbench:{name}:{seed}")
    start = time.perf_counter()
    files = []
    for i, base in enumerate(getattr(workload, size)):
        vertices = corpus.generate(base, generators)
        sym = corpus.Symmetry.draw(rng, len(vertices), base.far)
        path = directory / f"{i:02d}-{base.name}{'-far' if base.far else ''}.knot"
        path.write_text(corpus.knot_text(vertices, sym), encoding="utf-8")
        files.append((base, vertices, sym, path))
    elapsed = time.perf_counter() - start
    ops = []
    for base, vertices, sym, path in files:
        ans = answers["knots"].get(base.name)
        expected = None
        if ans is not None and ans["sha256"] == corpus.fingerprint(vertices):
            expected = corpus.expected_output(workload, answers, base.name, vertices, sym)
        ops.append(Op([*workload.argv, str(path)], expected))
    return ops, elapsed


def run_pass(ops: list, cli, references: Optional[list] = None,
             tracer: Optional[spans.Tracer] = None) -> tuple[list, list]:
    """One closed-loop pass over the corpus; returns its Samples and outputs.

    An op is ok when main returned 0 and stdout equals the expected text
    and, when given, the reference output.  Checks run untimed.
    """
    samples, outputs = [], []
    failures = 0
    for k, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        first = len(tracer.spans) if tracer else 0
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(op.argv)
            except Exception as exc:  # a crash is a failed op, not a dead run
                rc = exc
            elapsed = time.perf_counter() - start
        text = out.getvalue()
        ok = rc == 0 and text == op.expected and (references is None or text == references[k])
        if not ok:
            failures += 1
            if failures <= 3:
                print(f"perfbench: FAILED {' '.join(op.argv)}: exit {rc!r}, "
                      f"stderr {err.getvalue()[:200]!r}", file=sys.stderr)
        samples.append(Sample(elapsed, ok, (first, len(tracer.spans) if tracer else 0)))
        outputs.append(text)
    return samples, outputs


def fastest(passes: list) -> list:
    """Each file's fastest Sample over the given passes."""
    return [min(per_file, key=lambda s: s.seconds) for per_file in zip(*passes)]


def rate(best: list) -> float:
    return len(best) / sum(s.seconds for s in best)


def environment(knotdist) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "knotdist").glob("*.py")):
        digest.update(path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref_path = ROOT / ".git" / commit[5:]
            if ref_path.is_file():
                commit = ref_path.read_text().strip()
    import numpy

    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_s: float, best: list) -> dict:
    deciles = statistics.quantiles([s.seconds for s in best], n=10, method="inclusive")
    return {
        "setup_s": metric(setup_s, "s"),
        "knots_per_s": metric(rate(best), "1/s"),
        "op_p50_ms": metric(deciles[4] * 1e3, "ms"),
        "op_p90_ms": metric(deciles[8] * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(name: str, tracer: spans.Tracer, setup: dict, best_traced: list,
              best_untraced: list) -> dict:
    ops = len(best_traced)
    summary = spans.summarize(tracer.spans, [s.spans for s in best_traced])
    cli_s = summary.get("cli.main", {}).get("s", 0.0)
    out = {}
    for key in SPAN_KEYS:
        agg = summary.get(key, {})
        unit, scale = ("us", 1e6) if key in MICROSECOND_KEYS else ("ms", 1e3)
        out[f"{key}.calls"] = metric(agg.get("calls", 0) / ops, "count")
        out[f"{key}.{unit}"] = metric(agg.get("s", 0.0) * scale / ops, unit)
        out[f"{key}.self_{unit}"] = metric(agg.get("self_s", 0.0) * scale / ops, unit)
        out[f"{key}.errors"] = metric(int(agg.get("errors", 0)), "count")
    for key in SWEEP_KEYS:
        agg = summary.get(key, {})
        bands, max_bands = agg.get("bands", 0), agg.get("max_bands", 0)
        out[f"{key}.bands"] = metric(bands / ops, "count")
        out[f"{key}.us_per_band"] = metric(agg.get("layer_s", 0.0) * 1e6 / bands if bands else 0.0, "us")
        out[f"{key}.pruned_frac"] = metric(1 - bands / max_bands if max_bands else 0.0, "frac")
    witnesses = sum(summary.get(k, {}).get("witnesses", 0)
                    for k in ("engine.vertex_distortion", "engine.vertex_distortion_with_heatmap"))
    out["engine.witnesses"] = metric(witnesses / ops, "count")
    out["report.json_bytes"] = metric(summary.get("report.render_json", {}).get("json_bytes", 0) / ops, "B")
    for layer in LAYERS:
        self_s = sum(agg["self_s"] for key, agg in summary.items() if key.split(".")[0] == layer)
        out[f"{layer}.self_share"] = metric(self_s / cli_s if cli_s else 0.0, "frac")
    for fname in spans.TARGETS["generators"]:
        agg = setup.get(f"generators.{fname}", {})
        out[f"generators.{fname}.ms"] = metric(agg.get("s", 0.0) * 1e3 / SETUP_REPEATS, "ms")
    out["metrics.calls"] = metric(
        sum(agg["calls"] for key, agg in summary.items() if key.startswith("metrics.")) / ops, "count")
    out["trace_overhead_frac"] = metric(1 - rate(best_traced) / rate(best_untraced), "frac")
    missing = [key for key in EXPECTED_SPANS[name] if key not in summary] + tracer.missing
    if missing:
        print(f"perfbench: expected spans never fired: {', '.join(missing)}", file=sys.stderr)
    out["trace.spans_missing"] = metric(len(missing), "count")
    return out


def measure(args, knotdist) -> dict:
    answers = corpus.load_answers()
    workdir = OUT / f"corpus-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            if tracer:
                tracer.enabled = True
            ops, gen_s = build_corpus(args.workload, args.seed, args.size, answers,
                                      knotdist.generators, workdir)
            if tracer:
                tracer.enabled = False
            warm, warm_outputs = run_pass(ops, knotdist.cli)
            setup_times.append(gen_s + sum(s.seconds for s in warm))
        setup_s = args.import_s + statistics.median(setup_times)
        first_op_span = len(tracer.spans) if tracer else 0

        untraced, traced = [], []
        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds or not untraced
               or (tracer and not traced)):
            trace_this = bool(tracer) and len(untraced) > len(traced)
            if trace_this:
                tracer.enabled = True
                samples, _ = run_pass(ops, knotdist.cli, warm_outputs, tracer)
                tracer.enabled = False
                traced.append(samples)
            else:
                samples, _ = run_pass(ops, knotdist.cli)
                untraced.append(samples)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    everything = [s for samples in untraced + traced for s in samples]
    attempted = len(everything)
    failed = sum(not s.ok for s in everything)
    env = environment(knotdist)
    if tracer:
        setup_summary = spans.summarize(tracer.spans, [(0, first_op_span)])
        metrics = per_layer(args.workload, tracer, setup_summary, fastest(traced), fastest(untraced))
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": env,
            "first_op_span": first_op_span, "spans": tracer.dump(),
        }), encoding="utf-8")
    else:
        metrics = end_to_end(setup_s, fastest(untraced))
    print("perfbench env " + json.dumps(env))
    print(f"perfbench workload={args.workload} seed={args.seed} size={args.size} "
          f"files={len(ops)} passes={len(untraced)}+{len(traced)} traced "
          f"samples={attempted} failed_frac={failed / attempted:.6f} "
          f"files_without_answers={sum(op.expected is None for op in ops)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny corpus for the self-test")
    args = parser.parse_args(argv)
    os.environ.pop("KNOTDIST_THREADS", None)
    start = time.perf_counter()
    try:
        knotdist = load_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    args.import_s = time.perf_counter() - start
    print(json.dumps(measure(args, knotdist)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
