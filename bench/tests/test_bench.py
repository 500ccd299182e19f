"""Self-tests of the benchmark, every workload at q = 3 so that they take seconds.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _q3(monkeypatch):
    for workload in run.WORKLOADS.values():
        monkeypatch.setattr(workload, "default_q", 3)


def _main(capsys, *argv):
    code = run.main(["--seconds", "0", *argv])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_metric_with_its_unit(capsys, trace, kind):
    code, lines, result = _main(capsys, "--workload", "all", "--trace", str(trace))
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 9
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert [line.split()[:3] for line in lines if "failed_ratio" in line] == [
        ["failed_ratio", "0", "ratio"]] * len(run.WORKLOADS)
    for workload in run.WORKLOADS:
        reported = {name.split(".", 1)[1]: metric["unit"]
                    for name, metric in result["metrics"].items()
                    if name.startswith(f"{workload}.")}
        assert reported == expected
        for name, unit in expected.items():
            assert any(line.split()[:1] == [name] and f" {unit}" in line for line in lines)


def test_flipped_cell_in_a_check_document_fails_the_run(capsys, monkeypatch):
    made = run.Check.__init__

    def corrupted(self, seed, tmp):
        made(self, seed, tmp)
        path = Path(self.files[0])
        doc = json.loads(path.read_text())
        doc["grid"][0][0] = (doc["grid"][0][0] + 1) % (self.q * self.q)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        child = run.spawn(self.args(), tmp / "corrupted.out")
        assert child.code == 1
        assert not self.passed(child)

    monkeypatch.setattr(run.Check, "__init__", corrupted)
    code, _, result = _main(capsys, "--workload", "check")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == run.MIN_RUNS
    assert result["metrics"] == {}


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_spans_nest_inside_their_parents(tmp_path, name):
    workload = run.WORKLOADS[name](0, tmp_path)
    workload.prepare()
    path = tmp_path / "spans.jsonl"
    child = run.spawn(["--spans", str(path), name, "0", *workload.args()], tmp_path / "run.out")
    assert child.code == 0 and workload.passed(child)
    records = spans.read(path)
    assert records and all(r["workload"] == name and r["run"] == "0" for r in records)
    by_id = {r["id"]: r for r in records}
    nested = 0
    for r in records:
        assert r["start_ns"] <= r["end_ns"]
        if r["parent"] >= 0:
            parent = by_id[r["parent"]]
            assert parent["start_ns"] <= r["start_ns"] and r["end_ns"] <= parent["end_ns"]
            nested += 1
    assert nested
    for entry in spans.summarize(records).values():
        assert entry["self_ns"] >= 0 and entry["busy_ns"] >= entry["self_ns"]


def test_tracer_restores_the_originals():
    import moss.cli
    import moss.serialize

    def bindings():
        return {(module.__name__, key): value
                for module in (moss.cli, moss.serialize, moss.serialize.SquareDocument)
                for key, value in vars(module).items()}

    before = bindings()
    tracer = spans.Tracer("test", "0")
    tracer.install()
    try:
        assert moss.serialize.build_from_canonical is not before[
            ("moss.serialize", "build_from_canonical")]
        assert moss.cli.verify_orthogonal_bruteforce is not before[
            ("moss.cli", "verify_orthogonal_bruteforce")]
        assert moss.cli.main(["alpha", "--q", "3"]) == 0
    finally:
        tracer.uninstall()
    assert bindings() == before
    assert [r["name"] for r in tracer.records()][:2] == ["cli.main", "gf.GF"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(SPEC["command"] + ["--workload", "emit", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
