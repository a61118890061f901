"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import checks
import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace, seed=1):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace), "--tiny"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    report, result = _run(capsys, workload, trace)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and unit in line.split() and "samples=" in line
                   for line in report), name


def test_metric_lists_match_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracer.metric_units()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_full_workloads_have_100_operations(tmp_path, workload):
    assert len(workloads.build(workload, 1, str(tmp_path))) >= 100


def test_spec_names_only_what_the_benchmark_has():
    spec = json.loads((BENCH / "spec.json").read_text())
    kinds = {
        "sparse-sweep": workloads.SPARSE_KINDS,
        "block-trees": workloads.BLOCK_KINDS,
        "dihedral-long": ("dihedral-nf", "dihedral-eq") + workloads.LABEL_KINDS,
    }
    assert {w: tuple(s["operations"]) for w, s in spec["workloads"].items()} == kinds
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS) == list(kinds)
    assert list(spec["end_to_end"]) == list(run.END_TO_END)
    layers = set()
    for row in spec["layer_to_end_to_end"]:
        layers.update(row["layer"])
        assert set(row["moves"]) <= set(run.END_TO_END) and set(row["on"]) <= set(kinds)
    assert layers == set(tracer.metric_units())


def _corrupt_result(capsys, monkeypatch, workload, name, fake):
    cli, _ = run.locate_artin()
    monkeypatch.setattr(cli, name, fake)
    report, result = _run(capsys, workload, 0, seed=3)
    assert result["correct"] is False and result["failed"] > 0
    return report


def test_wrong_dihedral_equality_is_caught(capsys, monkeypatch):
    report = _corrupt_result(capsys, monkeypatch, "dihedral-long", "words_equal",
                             lambda n, u, v: False)
    assert any("failed dihedral-eq" in line and "wrong output" in line for line in report)


def test_missing_chunk_is_caught(capsys, monkeypatch):
    cli, _ = run.locate_artin()
    real = cli.big_chunks

    def drop_one(g):
        d = real(g)
        return type(d)(d.graph, d.chunks[:-1], d.separating, d.incidence)

    report = _corrupt_result(capsys, monkeypatch, "sparse-sweep", "big_chunks", drop_one)
    assert any("failed chunks" in line and "chunk vertex sets" in line for line in report)


def test_corrupted_outputs_fail_their_checks():
    facts = checks.GraphFacts(["a", "b", "c", "d"], [("a", "b", 3), ("b", "c", 2), ("c", "a", 4),
                                                     ("c", "d", 2)])
    good = {"chunks": [["a", "b", "c"], ["c", "d"]], "separating": ["c"],
            "classes": ["BigBig", "ToralLeaf(2, tip=d)"]}
    assert checks.chunks(facts, 0, json.dumps(good), "") == checks.OK
    for bad in ({**good, "separating": []}, {**good, "chunks": [["a", "b", "c", "d"]]},
                {**good, "classes": ["BigBig", "BraidedLeaf(2, tip=d)"]}):
        with pytest.raises(checks.CheckFailed):
            checks.chunks(facts, 0, json.dumps(bad), "")
    with pytest.raises(checks.CheckFailed):
        checks.abelianize(facts, 0, json.dumps({"abelianization": {"free_rank": 2, "torsion": []}}), "")
    with pytest.raises(checks.CheckFailed):
        checks.dihedral_nf(3, [("a", 1)], 0, json.dumps({"label": 3, "central": 0,
                                                         "syllables": [["y", 1]]}), "")


def test_block_finder_matches_networkx():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 14)
        g = nx.gnp_random_graph(n, rng.uniform(0.1, 0.6), seed=rng.randrange(10**6))
        names = {v: f"v{v}" for v in g}
        adj = {names[v]: [names[w] for w in g[v]] for v in g}
        ours = sorted(sorted(b) for b in checks.find_blocks(sorted(adj), adj))
        theirs = [sorted(names[v] for v in b) for b in nx.biconnected_components(g)]
        theirs += [[names[v]] for v in g if g.degree(v) == 0]
        assert ours == sorted(theirs)


def test_refuses_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "sparse-sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
