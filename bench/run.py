"""stackparse benchmark: one workload per process, driven in-process
through `stackparse.cli.main`.

    python3 bench/run.py --workload train|infer|select --seed N \
        --seconds S --trace 0|1 [--size full|smoke]

Run from the repository root; the program is imported from `src/`.  Set
up the workload's inputs (several times, reporting the median), then run
iterations of the workload's commands in a closed loop with one client
until S seconds of command wall time have passed.  Outputs are checked
outside the timed regions.  With --trace 1 the first iteration runs
untraced as the overhead reference and the rest run with layer spans.
The last stdout line is the JSON result; a run record goes to
`.bench_work/records/`.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import os

# BLAS threads must be fixed before numpy loads; one thread keeps the
# per-token GEMVs steady on a shared machine (recorded in the run record).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = {"train": 5, "infer": 1, "select": 5}


def digest(path: Path) -> str:
    """Content digest; for zip archives, of member names and bytes only,
    since zip headers carry the write time."""
    h = hashlib.sha256()
    if zipfile.is_zipfile(path):
        with zipfile.ZipFile(path) as archive:
            for name in sorted(archive.namelist()):
                h.update(name.encode() + b"\0" + archive.read(name))
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def percentile_summary(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    text = f"median {statistics.median(values):.4g} (n={n})"
    tails = [p for p in (90, 95, 99, 99.9) if n * (100 - p) / 100 >= 10]
    if tails:
        pct = max(tails)
        text += f", p{pct:g} {values[min(n - 1, int(n * pct / 100))]:.4g}"
    return text


def machine_record() -> dict:
    import numpy
    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # older numpy has no dict mode; the record says unknown
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "blas_threads": int(BLAS_THREADS),
            "platform": platform.platform()}


def source_record() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {"commit": commit, "src_sha256": h.hexdigest(), "src_lines": lines}


class Runner:
    def __init__(self, workload, work: Path, tracer=None):
        self.workload = workload
        self.work = work
        self.tracer = tracer
        self.commands = workload.commands(work)
        self.reference: dict[str, str] | None = None
        self.reference_check = None
        self.iterations: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def run_iteration(self, traced: bool) -> dict:
        from stackparse import cli
        walls, codes = {}, {}
        for command in self.commands:
            if traced:
                self.tracer.command = command.label
                self.tracer.recording = True
            sink = io.StringIO()
            gc.collect()  # every command starts from the same collector state
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    codes[command.label] = cli.main(command.argv)
            except (Exception, SystemExit) as exc:  # a crash fails the command's ops
                codes[command.label] = f"{type(exc).__name__}: {exc}"
            walls[command.label] = time.perf_counter() - start
            if traced:
                self.tracer.recording = False
        self._account(codes)
        record = {"walls": walls, "codes": codes, "traced": traced}
        self.iterations.append(record)
        return record

    def _account(self, codes: dict) -> None:
        """Digest every output; full checks when the digests are new."""
        digests = {}
        for command in self.commands:
            for name in command.outputs:
                path = self.work / name
                digests[name] = digest(path) if path.exists() else "missing"
        self.attempted += sum(c.ops for c in self.commands)
        if self.reference is not None and digests == self.reference:
            self.failed += self.reference_check.failed
            return
        try:
            check = self.workload.check(self.work, codes)
        except Exception as exc:  # an unreadable output fails every op of the iteration
            from workloads import CheckResult
            check = CheckResult(sum(c.ops for c in self.commands),
                                [f"check raised {type(exc).__name__}: {exc}"])
        self.failed += check.failed
        self.notes += check.notes
        if self.reference is None:
            self.reference, self.reference_check = digests, check
        else:
            changed = [k for k in digests if digests[k] != self.reference.get(k)]
            self.failed += len(changed)
            self.notes.append(f"same-seed outputs differ between iterations: {changed}")

    def compare_stored(self, store: Path, key: str) -> None:
        """Same-seed determinism across runs in this checkout."""
        stored = json.loads(store.read_text()) if store.is_file() else {}
        if key in stored:
            changed = [k for k in self.reference if self.reference[k] != stored[key].get(k)]
            if changed:
                self.failed += len(changed)
                self.notes.append(f"outputs differ from an earlier run of this seed: {changed}")
        else:
            stored[key] = self.reference
            tmp = store.with_suffix(".tmp")
            tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
            tmp.replace(store)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "infer", "select"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stackparse" / "__init__.py").is_file():
        print(f"error: no stackparse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.size, args.seed)
    base = ROOT / ".bench_work"
    work = base / f"{args.workload}-{args.size}-{args.seed}-{os.getpid()}"
    setup_times = []
    for _ in range(SETUP_REPEATS[args.workload] if args.size == "full" else 1):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = time.perf_counter()
        workload.setup(work)
        setup_times.append(time.perf_counter() - start)
    inputs_digest = hashlib.sha256("".join(
        digest(p) for p in sorted(work.iterdir())).encode()).hexdigest()

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    runner = Runner(workload, work, tracer)
    try:
        measured = 0.0
        if tracer is not None:
            runner.run_iteration(traced=False)
            tracer.install()
        while True:
            record = runner.run_iteration(traced=tracer is not None)
            measured += sum(record["walls"].values())
            if measured >= args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    # Keyed by inputs and sources too, so that only the same program on the
    # same inputs is held to the same outputs.
    runner.compare_stored(base / "digests.json", "/".join(
        [args.workload, args.size, str(args.seed), inputs_digest[:16],
         source_record()["src_sha256"][:16]]))

    timed = [r for r in runner.iterations if r["traced"] == bool(args.trace)]
    tokens = sum(c.tokens for c in runner.commands)
    sentences = sum(c.sentences for c in runner.commands)
    iteration_walls = [sum(r["walls"].values()) for r in timed]
    per_command = {c.label: [c.tokens / r["walls"][c.label] for r in timed]
                   for c in runner.commands}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts = runner.reference_check.counts
    # A digest mismatch can add to an iteration whose ops all failed already.
    failed = min(runner.failed, runner.attempted)

    if args.trace:
        untraced = sum(runner.iterations[0]["walls"].values())
        summary = tracer.summary(len(timed))
        traced_wall = statistics.median(iteration_walls)
        metrics = per_layer_metrics(summary, counts, runner.commands, tokens, sentences,
                                    untraced, traced_wall, sum(iteration_walls) / len(timed))
        units = {name: unit for name, unit in PER_LAYER}
    else:
        metrics = {
            "tok_per_s": statistics.median(tokens / w for w in iteration_walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "ops_ok_frac": 1.0 - failed / runner.attempted,
        }
        units = {"tok_per_s": "tok/s", "setup_s": "s", "peak_rss_mb": "MB",
                 "ops_ok_frac": "fraction"}

    record = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine_record(),
        "source": source_record(), "setup_s": setup_times,
        "iterations": runner.iterations, "tokens_per_iteration": tokens,
        "sentences_per_iteration": sentences, "digests": runner.reference,
        "counts": counts, "attempted": runner.attempted, "failed": failed,
        "notes": runner.notes, "metrics": metrics,
    }
    records = base / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = records / f"{args.workload}-{args.size}-{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:  # (name, command, id, parent id, start, end, self s)
        stem.with_suffix(".spans.json").write_text(json.dumps(tracer.spans))
    shutil.rmtree(work, ignore_errors=True)

    print(f"# {args.workload} seed={args.seed} size={args.size} "
          f"iterations={len(timed)} tokens/iteration={tokens} sentences/iteration={sentences}")
    print(f"# machine {record['machine']}")
    print(f"# source {record['source']}")
    print(f"# setup_s {percentile_summary(setup_times)}")
    for label, values in per_command.items():
        print(f"# {label}: tok/s {percentile_summary(values)}")
    for note in runner.notes:
        print(f"# FAILED {note}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    if args.trace:
        coverage = metrics["trace.coverage_frac"]
        print(f"# span self times cover {coverage:.2%} of the traced command wall "
              f"({'within' if abs(1 - coverage) <= 0.02 else 'NOT within'} 2%); "
              f"tracing cost {metrics['trace.wall_s'] - metrics['trace.untraced_wall_s']:+.3f} s "
              f"per iteration")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


# Per-layer metrics of a traced run, per iteration of the workload.
PER_LAYER = [
    ("numcore.backward_s", "s"), ("numcore.backward_calls", "count"),
    ("numcore.adagrad_s", "s"), ("numcore.bilstm_s", "s"), ("numcore.bilstm_calls", "count"),
    ("tagger.train_s", "s"), ("tagger.tag_s", "s"), ("tagger.loss_s", "s"),
    ("tagger.char_attention_s", "s"), ("tagger.crf_s", "s"), ("tagger.viterbi_s", "s"),
    ("parser.train_s", "s"), ("parser.parse_s", "s"), ("parser.forward_s", "s"),
    ("parser.forward_calls", "count"), ("parser.forward_useful_frac", "fraction"),
    ("parser.loss_s", "s"), ("parser.label_s", "s"), ("parser.decode_greedy_s", "s"),
    ("parser.decode_mst_s", "s"), ("parser.decode_mst_calls", "count"),
    ("parser.greedy_nontree_frac", "fraction"), ("parser.mst_multiroot_frac", "fraction"),
    ("stacking.train_s", "s"), ("stacking.forward_s", "s"), ("stacking.tagger_loss_s", "s"),
    ("stacking.tag_s", "s"), ("stacking.label_s", "s"),
    ("modelio.save_s", "s"), ("modelio.load_s", "s"), ("modelio.write_text_s", "s"),
    ("modelio.archive_mb", "MB"),
    ("langmodel.train_s", "s"), ("langmodel.to_json_s", "s"), ("langmodel.json_mb", "MB"),
    ("langmodel.from_json_s", "s"), ("langmodel.logprob_s", "s"),
    ("langmodel.match_lexicon_s", "s"), ("langmodel.rank_s", "s"),
    ("treebank.parse_conllu_s", "s"), ("treebank.write_conllu_s", "s"),
    ("embeddings.load_s", "s"), ("cli.self_s", "s"),
    ("numcore.self_s", "s"), ("tagger.self_s", "s"), ("parser.self_s", "s"),
    ("stacking.self_s", "s"), ("langmodel.self_s", "s"), ("modelio.self_s", "s"),
    ("treebank.self_s", "s"), ("embeddings.self_s", "s"),
    ("work.tokens", "count"), ("work.sentences", "count"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "fraction"), ("trace.coverage_frac", "fraction"),
]


def per_layer_metrics(summary: dict, counts: dict, commands, tokens: int, sentences: int,
                      untraced_wall: float, traced_wall: float, mean_wall: float) -> dict:
    """Every PER_LAYER metric, 0 where the workload does not reach the layer."""
    parsed = sum(c.sentences for c in commands if c.label.startswith("parse"))
    parse_forwards = sum(v for k, v in summary["_outer_forward_by_command"].items()
                         if k.startswith("parse"))
    base = counts.get("parser.base_sentences", 0)
    span_total = sum(summary.get(f"{layer}.self_s", 0.0) for layer in
                     ("numcore", "tagger", "parser", "stacking", "langmodel", "modelio",
                      "treebank", "embeddings", "cli"))
    derived = {
        "parser.forward_useful_frac": parsed / parse_forwards if parse_forwards else 0.0,
        "parser.greedy_nontree_frac": counts.get("parser.greedy_nontree", 0) / base if base else 0.0,
        "parser.mst_multiroot_frac": counts.get("parser.mst_multiroot", 0) / base if base else 0.0,
        "modelio.archive_mb": counts.get("modelio.archive_mb", 0.0),
        "langmodel.json_mb": counts.get("langmodel.json_mb", 0.0),
        "work.tokens": tokens, "work.sentences": sentences,
        "trace.wall_s": traced_wall, "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
        "trace.coverage_frac": span_total / mean_wall,
    }
    return {name: float(derived.get(name, summary.get(name, 0.0))) for name, _ in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
