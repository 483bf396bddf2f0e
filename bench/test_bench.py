"""Smoke tests of the benchmark itself (seconds each):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
from stackparse import cli  # noqa: E402
from stackparse.langmodel import match_lexicon  # noqa: E402
from run import digest  # noqa: E402
from workloads import WORKLOADS, reference_hits  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.1",
                     "--trace", trace, "--size", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "select", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_same_seed_same_inputs(tmp_path):
    for name, workload_cls in WORKLOADS.items():
        texts = []
        for sub in ("a", "b"):
            work = tmp_path / name / sub
            work.mkdir(parents=True)
            workload_cls("smoke", 9).setup(work)
            texts.append({p.name: digest(p) for p in sorted(work.iterdir())})
        assert texts[0] == texts[1]


def test_tree_sentences_have_exact_length_and_one_root():
    rng = np.random.default_rng(0)
    lexicon = gen.make_lexicon(rng)
    for n in (3, 7, 16, 50, 80):
        rows = gen.tree_sentence(rng, lexicon, n, target=bool(n % 2))
        assert len(rows) == n
        assert sum(head == 0 for _, _, head, _ in rows) == 1


def test_reference_hits_agree_with_match_lexicon():
    rng = np.random.default_rng(1)
    vocab = gen.pseudo_words(rng, 30)
    sentences = gen.zipf_sentences(rng, vocab, [2 + i % 12 for i in range(200)])
    terms = gen.lexicon_terms(rng, vocab, sentences, 60)
    assert [reference_hits(s, terms) for s in sentences] == match_lexicon(sentences, terms)


def _run_iteration(workload, work: Path) -> dict[str, int]:
    return {c.label: cli.main(c.argv) for c in workload.commands(work)}


def test_checks_catch_wrong_lexicon_hits(tmp_path):
    workload = WORKLOADS["select"]("smoke", 2)
    workload.setup(tmp_path)
    codes = _run_iteration(workload, tmp_path)
    assert workload.check(tmp_path, codes).failed == 0
    hits = tmp_path / "hits.tsv"
    lines = hits.read_text().splitlines()
    lines[0] = "bogus" + lines[0]
    hits.write_text("\n".join(lines) + "\n")
    assert workload.check(tmp_path, codes).failed == 1


def test_checks_catch_a_non_tree_parse(tmp_path):
    workload = WORKLOADS["infer"]("smoke", 2)
    workload.setup(tmp_path)
    codes = _run_iteration(workload, tmp_path)
    assert workload.check(tmp_path, codes).failed == 0
    parsed = tmp_path / "parsed-mst.conllu"
    rows = parsed.read_text().split("\n")
    for i, row in enumerate(rows[:2]):
        cols = row.split("\t")
        cols[6], cols[7] = "0", "root"  # two roots in the first sentence
        rows[i] = "\t".join(cols)
    parsed.write_text("\n".join(rows))
    assert workload.check(tmp_path, codes).failed >= 1
    rows[0] = rows[0].replace("\t0\troot", "\t1\troot")  # token 1 heads itself
    parsed.write_text("\n".join(rows))
    assert workload.check(tmp_path, codes).failed >= len(workload.lengths)
