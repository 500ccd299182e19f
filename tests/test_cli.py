"""CLI behavior: outputs, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import moss.serialize
from moss.cli import main
from moss.family import build_family
from moss.gf import Field
from moss.serialize import SquareDocument
from oracles import get_field

REPO_ROOT = Path(__file__).resolve().parents[1]

GOLDEN_TEXT = "\n".join([
    "0 1 2 | 4 5 3 | 8 6 7",
    "3 4 5 | 7 8 6 | 2 0 1",
    "6 7 8 | 1 2 0 | 5 3 4",
    "------+-------+------",
    "1 2 0 | 5 3 4 | 6 7 8",
    "4 5 3 | 8 6 7 | 0 1 2",
    "7 8 6 | 2 0 1 | 3 4 5",
    "------+-------+------",
    "2 0 1 | 3 4 5 | 7 8 6",
    "5 3 4 | 6 7 8 | 1 2 0",
    "8 6 7 | 0 1 2 | 4 5 3",
]) + "\n"


def test_field_table(capsys):
    assert main(["field", "--q", "9"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:5] == ["q: 9", "p: 3", "k: 2", "modulus: 1,0,1", "index\tcoeffs"]
    assert len(out) == 5 + 9
    assert out[5 + 3] == "3\t1,0"


def test_field_rejects_bad_orders(capsys):
    assert main(["field", "--q", "4"]) == 2
    assert "odd" in capsys.readouterr().err
    assert main(["field", "--q", "12"]) == 2
    capsys.readouterr()
    assert main(["field", "--q", "169"]) == 2
    assert "cap" in capsys.readouterr().err
    start = time.perf_counter()
    assert main(["field", "--q", "1000000000000000003"]) == 2
    assert time.perf_counter() - start < 0.5
    assert "cap" in capsys.readouterr().err


def test_alpha_census(capsys):
    assert main(["alpha", "--q", "13", "--all"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "alpha: 1"
    assert out[1] == "lambda: 2"
    assert out[2] == "census: 1,4,10"
    assert out[3].startswith("count: 3")


def test_generate_then_render_golden(tmp_path, capsys):
    doc_path = tmp_path / "golden.json"
    assert main(["generate", "--q", "3", "--c", "0,2;2,1", "--out", str(doc_path)]) == 0
    capsys.readouterr()
    assert main(["render", "--file", str(doc_path)]) == 0
    assert capsys.readouterr().out == GOLDEN_TEXT


def test_generate_stdout_is_canonical(capsys):
    assert main(["generate", "--q", "3", "--c", "0,1;1,1"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "--q", "3", "--c", "0,1;1,1"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = SquareDocument.from_json(first)
    assert doc.to_json() == first


def test_generate_errors(capsys):
    assert main(["generate", "--q", "3", "--c", "0,2;2"]) == 2
    assert main(["generate", "--q", "3", "--c", "1,0;0,1"]) == 2  # lower triangular
    assert main(["generate", "--q", "3", "--c", "1,2;2,1"]) == 2  # singular
    assert main(["generate", "--q", "4", "--c", "0,1;1,1"]) == 2
    capsys.readouterr()


def test_generate_out_to_directory_is_io_error(tmp_path, capsys):
    assert main(["generate", "--q", "3", "--c", "0,2;2,1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_family_out_below_regular_file_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["family", "--q", "3", "--out", str(blocker / "fam")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_errors_and_help(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["generate", "--q", "3"]) == 2  # --c is required
    capsys.readouterr()
    assert main(["--help"]) == 0
    assert "moss" in capsys.readouterr().out


def test_family_emits_documents(tmp_path, capsys):
    outdir = tmp_path / "fam"
    assert main(["family", "--q", "3", "--out", str(outdir)]) == 0
    capsys.readouterr()
    files = sorted(outdir.iterdir())
    assert [f.name for f in files] == [f"square_{i:02d}.json" for i in range(6)]
    docs = [SquareDocument.from_json(f.read_text()) for f in files]
    expected = [m.indices() for m in build_family(get_field(3)).matrices]
    assert [doc.c for doc in docs] == expected


def test_family_emission_is_deterministic(tmp_path, capsys):
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["family", "--q", "3", "--out", str(first)]) == 0
    assert main(["family", "--q", "3", "--out", str(second)]) == 0
    capsys.readouterr()
    for f, s in zip(sorted(first.iterdir()), sorted(second.iterdir())):
        assert f.read_bytes() == s.read_bytes()


def test_family_stdout_jsonl(capsys):
    assert main(["family", "--q", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    for line in lines:
        assert json.loads(line)["q"] == 3


def test_family_verify_report(capsys):
    assert main(["family", "--q", "3", "--verify", "bruteforce"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "6 squares, 15 orthogonal pairs"
    assert main(["family", "--q", "5", "--verify", "fast"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "20 squares, 190 orthogonal pairs"


def test_family_bruteforce_capped(tmp_path, capsys):
    assert main(["family", "--q", "11", "--verify", "bruteforce"]) == 2
    assert "capped" in capsys.readouterr().err
    outdir = tmp_path / "fam"
    assert main(["family", "--q", "11", "--out", str(outdir), "--verify", "bruteforce"]) == 2
    captured = capsys.readouterr()
    assert "capped" in captured.err
    assert captured.out == ""
    assert not outdir.exists() or not any(outdir.iterdir())


@pytest.mark.parametrize("args, digest", [
    ([], "7a829b6ead26e07d3ad263d32fdb7b930dc8988ac7bcf1aeef41ec4b9b7709b9"),
    (["--format", "grid"], "24781021df4c70bf704b6ba56df68c82b8a1bdae62a25e830c0035eed0349e32"),
])
def test_family_q9_stdout_golden_bytes(args, digest, capsys):
    assert main(["family", "--q", "9", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_family_grid_and_csv_formats(tmp_path, capsys):
    grid_dir, csv_dir = tmp_path / "grid", tmp_path / "csv"
    assert main(["family", "--q", "3", "--format", "grid", "--out", str(grid_dir)]) == 0
    assert main(["family", "--q", "3", "--format", "csv", "--out", str(csv_dir)]) == 0
    capsys.readouterr()
    txts = sorted(grid_dir.iterdir())
    assert [f.suffix for f in txts] == [".txt"] * 6
    assert " | " in txts[0].read_text()
    csvs = sorted(csv_dir.iterdir())
    first_rows = csvs[0].read_text().splitlines()
    assert len(first_rows) == 9
    assert all(len(row.split(",")) == 9 for row in first_rows)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux VmHWM")
def test_family_emission_memory_does_not_hold_the_family(tmp_path):
    """A fresh process writing the 156 q = 13 squares stays small.

    Rendering every document before the first write peaked near 69 MB.  The
    child reports VmHWM, the peak of its own address space: ru_maxrss would
    carry over the RSS of this test process across fork and exec.
    """
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    code = (
        "import sys\n"
        "import moss.cli\n"
        "assert moss.cli.main(['family', '--q', '13', '--out', sys.argv[1]]) == 0\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')),\n"
        "          file=sys.stderr)\n"
    )
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "fam")],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert len(list((tmp_path / "fam").iterdir())) == 156
    peak_mb = int(run.stderr.split()[-1]) / 1024  # VmHWM is in kB
    assert peak_mb < 40


def _write_family(tmp_path, q=3):
    outdir = tmp_path / f"family{q}"
    assert main(["family", "--q", str(q), "--out", str(outdir)]) == 0
    return sorted(str(f) for f in outdir.iterdir())


def test_verify_accepts_clean_family(tmp_path, capsys):
    files = _write_family(tmp_path)
    assert main(["verify", "--files", *files]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "6 squares ok, 15 pairs checked, 0 failures"


def test_verify_builds_each_field_once(tmp_path, monkeypatch, capsys):
    files = _write_family(tmp_path)
    capsys.readouterr()
    moss.serialize._field.cache_clear()
    calls = []
    original = Field.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Field, "__init__", counting_init)
    assert main(["verify", "--files", *files]) == 0
    assert len(calls) <= 1


def test_verify_detects_corrupted_grid(tmp_path, capsys):
    files = _write_family(tmp_path)
    data = json.loads(Path(files[0]).read_text())
    data["grid"][0][0], data["grid"][0][1] = data["grid"][0][1], data["grid"][0][0]
    Path(files[0]).write_text(json.dumps(data))
    assert main(["verify", "--files", *files]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "grid" in out


def test_verify_detects_non_orthogonal_pair(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--q", "3", "--c", "0,1;1,1", "--out", str(a)]) == 0
    assert main(["generate", "--q", "3", "--c", "1,2;2,2", "--out", str(b)]) == 0
    capsys.readouterr()
    assert main(["verify", "--files", str(a), str(b)]) == 1
    assert "not orthogonal" in capsys.readouterr().out


def test_verify_rejects_mixed_orders(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--q", "3", "--c", "0,1;1,1", "--out", str(a)]) == 0
    assert main(["generate", "--q", "5", "--c", "0,1;1,1", "--out", str(b)]) == 0
    capsys.readouterr()
    assert main(["verify", "--files", str(a), str(b)]) == 2
    assert "mix" in capsys.readouterr().err


def test_verify_unparseable_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--files", str(bad)]) == 2
    assert main(["render", "--file", str(bad)]) == 2
    assert main(["verify", "--files", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_oversized_integer_literal_is_a_schema_failure(tmp_path, capsys):
    path = tmp_path / "big.json"
    assert main(["generate", "--q", "3", "--c", "0,2;2,1", "--out", str(path)]) == 0
    text = path.read_text()
    path.write_text(text.replace('"q":3', '"q":' + "9" * 5000, 1))
    capsys.readouterr()
    assert main(["verify", "--files", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert main(["render", "--file", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_undecodable_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"q": "\xe9"}')
    assert main(["verify", "--files", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert main(["render", "--file", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_module_entrypoint_runs_in_subprocess(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    cmd = [sys.executable, "-m", "moss", "generate", "--q", "3", "--c", "0,2;2,1"]
    runs = [
        subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=tmp_path)
        for _ in range(2)
    ]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    bad = subprocess.run(
        [sys.executable, "-m", "moss", "field", "--q", "4"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert bad.returncode == 2
