"""CLI behavior: outputs, exit codes, determinism."""

import hashlib
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest

import moss.cli
import moss.serialize
import moss.sudoku
from moss.cli import main
from moss.family import build_family
from moss.gf import Field
from moss.serialize import SquareDocument
from conftest import needs_vmhwm, run_python
from oracles import get_field, orthogonal_by_pair_census

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


# sha256 of the stdout of `moss field --q Q` and `moss alpha --q Q --all`
# for every odd prime power Q up to the order cap.
FIELD_ALPHA_SHA256 = {
    ("field", 3): "691a132efdc16ad7083b06b2b313f162299ea6c902a51ff4cd10f19f4f82db1d",
    ("alpha", 3): "ce709d70e6cd091069ea9b749e4623f2e29e02d9ea5f2dba048e149b6000550e",
    ("field", 5): "f688330886a88adf2a8de0cf918f42eba2735a9c60e85652494c944733ad7404",
    ("alpha", 5): "7a0b1d6ca7d7fd81c3bb4a7fc098cc27eb1ed16d6fba31617a4b5558461dfe6c",
    ("field", 7): "bfa7ca3a7e9c3c095d01c10d0e022d73cf25eb0e3dd9d1eaf17e11b69d4b10fe",
    ("alpha", 7): "0b2dbb59f3beadae5314c02a7c677783df978c8a1f0bb0ffadd605b9704de377",
    ("field", 9): "1a9dfa3991964f0a9763184a289906baa46be4664305a25425dc14a3d24a63b0",
    ("alpha", 9): "616314fe48b84497e09441b228208e8a1f5025932c8ce830043e4c5c192447b4",
    ("field", 11): "b04e6f2824be10b2ba87e88b6c6fcf0c1f787f695bfbdda827e2a8684212275a",
    ("alpha", 11): "f1af4b9457ba5ecd91722bb81a21371a98aba205fa62745ad55a6c489e589ccf",
    ("field", 13): "5427a7078b4eece24d73a1e1dbeaa90047468e82df9ac9607b4f52d987b4d961",
    ("alpha", 13): "cd4af11d6a4ba83c2bd790b40768f9d6f8f5056390e0485fc7b8a97f8f4d4ecb",
    ("field", 17): "0069831438923cbb81fe46ff094da528e2c8af658c384746fc375517a2e80b2e",
    ("alpha", 17): "dff85a3a78e3d4535d0a92092dd66bba30148f33441877e41bd88ecda1598a76",
    ("field", 19): "f07ab9ed36c46133aa7913944322628e22e5d60d7fafdf481960f812118e60cf",
    ("alpha", 19): "120ebcea65276ad036522e203a7f1854e5f52a5aa5a65b7bbab4e5666f783b36",
    ("field", 23): "2d244a540869b71801f3bc0d55ea7bede5ba687131fefb4d7e1871979dd220dd",
    ("alpha", 23): "412318f469e7e255fdad5740ffcd2c21b9fdde9abf3d4601621078f992b32a26",
    ("field", 25): "e2804454d7ce9ede8715d7b45ca6f12ea5fa4c0230cb5a364ae6ff2ad527aa1b",
    ("alpha", 25): "9c1da70154faf11ae2804242b22512bf85d2387117819835f823033ffa10a70b",
    ("field", 27): "983acaa8c978f415407fe42a149d252e7b5e084180e0b9ff949c11e604629460",
    ("alpha", 27): "aefb5c3ba48bbb074d9791a2e80b2df877178dedba3fe20aac71a5425d85891a",
    ("field", 29): "866454bcb85cd6efd08dc9b2fa5af6b5d73d4df0eff4a60e9c42133ce661ba86",
    ("alpha", 29): "83344c2c143ccce0ac091eed6636ceae5e429179193e3eb9568cfc66b3f7a391",
    ("field", 31): "1179915ff6f1bb34179c939047ae18c467d8757a7d6b703739cc9ab57b04ff8f",
    ("alpha", 31): "c7dc2c3f21f1ed62c1003252c1f0e6d2dd0673db24123e57ba266accf79cbda6",
    ("field", 37): "1c934f8bda4e9c8e19e82dde7607e379059013a25df66eb808268e83afec2ebb",
    ("alpha", 37): "97c8bb1f855780d2d84318a748f7b6e012c2ff805c8f255d0c3772b97ee7fc4b",
    ("field", 41): "806cbde4194dfb1729b2962eda96f4012ed5fd2a41aec07a391459e490b5dc8d",
    ("alpha", 41): "4602ed3eb21c35ba96e399ad8433cf6194901d90253656486fdeb6a8d1f42db7",
    ("field", 43): "7fd4c70a4c8047b3e91f3a2562c4618b528778dc04318dd8b681479a8df47ddc",
    ("alpha", 43): "190c2f971393bf93fecfe13fac8183207e28ca41062f6ecd50e467510d932579",
    ("field", 47): "e20c191456979ec14ed40e2217c505d95bbbd85189349f96b6ece093ae356a3d",
    ("alpha", 47): "c0adbe603e85541fcd23bfc451cd14013ac7432ea82ec0ea232e6c6941e04208",
    ("field", 49): "e598e968d74be4851cff8fe064ca1fc4c653045cdd77fd9f4b941f8f99f17b7e",
    ("alpha", 49): "e3d9ce80f2cc1f36f7830589d7fdd336a19d441e8b997ddf0536d13ff87b459e",
    ("field", 53): "e8062cbc365865ac5293e4788b65485e717a22f90ff0569e3e4a0c66f02ddf91",
    ("alpha", 53): "bd863784d0038c3df9d1fad80e2b997d91c96c165dd2d182da35527984a07dde",
    ("field", 59): "5fb0115d094e538dcc56fa8bfd5da6b4b4c2a5c63355819be1ebfe3aa8b9e8f0",
    ("alpha", 59): "7feb17b0decf3cc4b98420d999ce2c229b88046306c7dd6fc175effc3944a282",
    ("field", 61): "df1735093149583df7122102f422a9e154e38ba06336927b3cb68fcffdd4f59c",
    ("alpha", 61): "8504b4db4fdaa54fb9d35957c1055c2bfa7a357d9b9d6411a92487c1990e4260",
    ("field", 67): "9e2d85728744af1fe5460b186caab0074d698488ca6f7c719768094a7adcf246",
    ("alpha", 67): "44ea648bc24a9bf37c284fb0f09451d1ecd38981e2e6efd0e997b7f997aabdec",
    ("field", 71): "83abb36d6d112a2f94daa08f751b270e9cc1c3228bed86c56557bf540aa11b2a",
    ("alpha", 71): "600fb6ba7ae1eb48aade187fbb00e80a37578879b5678fba922ae6da0de0ea07",
    ("field", 73): "3fbd658ea77dbc7ed55015b5babf54e59d2350361f304cbe1f59d51fcd4d5637",
    ("alpha", 73): "cf34614745a8b263d4d195a4ea787621e1a5800f02869f42ea748d2664e9a3a6",
    ("field", 79): "9bd0babe19051be490c2188731b49a663c0168b02f8cf43f1b7deed2c5e40b4d",
    ("alpha", 79): "df566393196926d8f07617977d6b078f4e4bd7658e368a8bdd41ed79b6e01138",
    ("field", 81): "daed6cb9c3764afad1ad4c4a87dcc6aa7f93997be73e0f7f833ff81dd70af597",
    ("alpha", 81): "7f0d280eaca6268457ff2f6a0fdd9efd4858a81ad4654fcc6de78f9d535da9ef",
    ("field", 83): "540ef9cff16e0268e300865dba7108a5d47f4c3e30cf0dd56fa21f8d929c586a",
    ("alpha", 83): "7232e518db7bbfa84581d7f7ec3009b42f6d488022595a23838838c601484b44",
    ("field", 89): "af36a82060363b09eae408101221d7b679a4273a209e3c9536d716d2c45445c1",
    ("alpha", 89): "f9fc466cb23c0ddea1da120056be2897ea11763a019f7e390c73596361902edd",
    ("field", 97): "5497a5aeb3a2cb1e9b725d7147065201352be90ba7a9dfe9031421c2f5c1b876",
    ("alpha", 97): "5758e558a27924370010ee54a6b05dfe129a9fd6bbae1ccc0b9cd9b83c5c1a66",
    ("field", 101): "fb1aa905f6f461bb7224e0943e7a29c01603f5210b41dc8ef3adf6d6db1c5418",
    ("alpha", 101): "aec9091ff3020653f27eaa29bb8dfac4680489499aea8e0fc27e9cf22e7e1339",
    ("field", 103): "f3e2548550e15661967c14c53c25d65ee82d123d68de8b14e894c005ceb9a388",
    ("alpha", 103): "3d659c0d1d65d04843ff7aa13d0b26875529a32c4f4f309628c118c7c503c9dd",
    ("field", 107): "00ee5a3461b9ac318c00aacfc3d42af640557a1da05f6768e6803244434db1c4",
    ("alpha", 107): "4d226294ad9aa7800b00d3f2b8c82289b6b4fa407f54102f577eb91e8f919c77",
    ("field", 109): "04ded276d3eba1af00d883b3ee85352ce80c1ea414cb23acdddbf44da3129ab9",
    ("alpha", 109): "e381277fe60bf0c29ca728fcc434973e1b9b25ddd17b356fa214bf4b7edc6fcb",
    ("field", 113): "8f410de330a859576a62ef96243f649904e570d524aae441fa0c756acd53647e",
    ("alpha", 113): "99fadd3bfafe5906460241071bb8dbf8b6a293bd2f519d8fc5f784391d438c1b",
    ("field", 121): "5ee88683a110d486a957822ce5726c245b7f7de08935e250905fed1846cd155f",
    ("alpha", 121): "644ac1178806e5f5b70d9d51c3541940181880c11182765c5463b65a1a0cab1f",
    ("field", 125): "8636ba4e2d7d2fcf1e0b49582baba6fe125a5d1855bcb0284f89dfb82e4a2f5e",
    ("alpha", 125): "ac7dc6b7d077b42dfb11391365c03a7cda1e2ef4e7ae87d9c186a032d72df607",
    ("field", 127): "6142ea678dd616968131879c8e793df6a76d03c504bca46f1f79d4bc2bf38cda",
    ("alpha", 127): "02ccd38bb5f08f63072a1e8544af31b711961f0db4b046eb4d2a37c76665b1da",
}


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


@pytest.mark.parametrize("command, q", sorted(FIELD_ALPHA_SHA256))
def test_field_and_alpha_golden_bytes(command, q, capsys):
    args = [command, "--q", str(q)] + (["--all"] if command == "alpha" else [])
    assert main(args) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == FIELD_ALPHA_SHA256[command, q]


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


def test_usage_errors_and_help(tmp_path, monkeypatch, capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["generate", "--q", "3"]) == 2  # --c is required
    capsys.readouterr()
    assert main(["--help"]) == 0
    assert "moss" in capsys.readouterr().out
    # an empty --out, as from an unset shell variable, writes nowhere
    monkeypatch.chdir(tmp_path)
    for argv in (["family", "--q", "3"], ["generate", "--q", "3", "--c", "0,1;1,1"]):
        assert main([*argv, "--out", ""]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        # only the last line: argparse wraps the usage text to the terminal width
        assert err.splitlines()[-1] == f"moss {argv[0]}: error: argument --out: must name a path"
        assert list(tmp_path.iterdir()) == []


def test_family_emits_documents(tmp_path, capsys):
    outdir = tmp_path / "fam"
    assert main(["family", "--q", "3", "--out", str(outdir)]) == 0
    capsys.readouterr()
    files = sorted(outdir.iterdir())
    assert [f.name for f in files] == [f"square_{i:02d}.json" for i in range(6)]
    docs = [SquareDocument.from_json(f.read_text()) for f in files]
    expected = [m.indices() for m in build_family(get_field(3)).matrices]
    assert [doc.matrix.indices() for doc in docs] == expected


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
    for q, mode, last in [(3, "bruteforce", "6 squares, 15 orthogonal pairs"),
                          (5, "fast", "20 squares, 190 orthogonal pairs"),
                          (7, "bruteforce", "42 squares, 861 orthogonal pairs"),
                          (13, "bruteforce", "156 squares, 12090 orthogonal pairs")]:
        assert main(["family", "--q", str(q), "--verify", mode]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == last


@pytest.mark.parametrize("mode, violations", [
    ("fast", ["violation: not_orthogonal 7,20"]),
    ("bruteforce", ["violation: not_orthogonal 7,20", "violation: not_orthogonal_bruteforce 7,20"]),
])
@pytest.mark.parametrize("out", [False, True])
def test_family_verify_failure_still_writes_every_square(mode, violations, out, tmp_path,
                                                         monkeypatch, capsys):
    """A family that fails --verify is still written whole, then gets one
    violation line per violation and no summary line, and exits 1: here the
    q = 5 family with member 7 appended again, 21 squares."""
    def with_member_7_again(field):
        family = build_family(field)
        family.matrices.append(family.matrices[7])
        return family

    monkeypatch.setattr(moss.cli, "build_family", with_member_7_again)
    outdir = tmp_path / "fam"
    assert main(["family", "--q", "5", "--verify", mode, *(["--out", str(outdir)] if out else [])]) == 1
    lines = capsys.readouterr().out.splitlines()
    texts = [SquareDocument.from_matrix(m).to_json() for m in with_member_7_again(get_field(5))]
    assert len(texts) == 21
    if out:
        assert lines == [f"wrote 21 squares to {outdir}", *violations]
        assert sorted(path.name for path in outdir.iterdir()) == [
            f"square_{i:02d}.json" for i in range(21)]
        assert [(outdir / f"square_{i:02d}.json").read_text() for i in range(21)] == texts
    else:
        assert lines == [text.rstrip("\n") for text in texts] + violations


@pytest.mark.skipif(not hasattr(__import__("resource"), "RLIMIT_AS"),
                    reason="needs resource.RLIMIT_AS")
def test_out_of_memory_is_exit_2(tmp_path):
    """A child that caps its own address space at 300 MB cannot render the
    q = 81 grid: main reports it on one line, exits 2, and leaves no file.
    Unmapped, the MemoryError escaped as a traceback with exit 1."""
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))\n"
        "import moss.cli\n"
        "sys.exit(moss.cli.main(sys.argv[1:]))\n"
    )
    out = tmp_path / "out"
    out.mkdir()
    run = run_python("-c", code, "generate", "--q", "81", "--c", "0,1;1,2",
                     "--out", str(out / "square.json"), cwd=tmp_path)
    assert (run.returncode, run.stdout, run.stderr) == (2, "", "error: out of memory\n")
    assert not any(out.iterdir())


def test_family_bruteforce_capped(tmp_path, capsys):
    assert main(["family", "--q", "29", "--verify", "bruteforce"]) == 2
    assert "capped" in capsys.readouterr().err
    outdir = tmp_path / "fam"
    assert main(["family", "--q", "29", "--out", str(outdir), "--verify", "bruteforce"]) == 2
    captured = capsys.readouterr()
    assert "capped" in captured.err
    assert captured.out == ""
    assert not outdir.exists() or not any(outdir.iterdir())


@pytest.mark.parametrize("args, digest", [
    ([], "7a829b6ead26e07d3ad263d32fdb7b930dc8988ac7bcf1aeef41ec4b9b7709b9"),
    (["--format", "grid"], "24781021df4c70bf704b6ba56df68c82b8a1bdae62a25e830c0035eed0349e32"),
    (["--format", "csv"], "54831a6f49544add7e18f7d1e403601c2bfcbabd22439e8a31ad0883159ee935"),
])
def test_family_q9_stdout_golden_bytes(args, digest, capsys):
    assert main(["family", "--q", "9", *args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# Recorded with the per-cell renderer, before grid and csv text came from
# the block plan.
@pytest.mark.parametrize("fmt, digest", [
    ("grid", "8232be11f79a3a8cd4ef83ef5b5c1575d3bf4dc05b21d6d809420eb7b359390c"),
    ("csv", "297e7c17b57c09ef7560c7f42441c257799b63e565175e82d5656170acf39339"),
])
def test_family_q13_stdout_golden_bytes(fmt, digest, capsys):
    assert main(["family", "--q", "13", "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_render_q37_golden_bytes(tmp_path, capsys):
    """Symbols up to 1368 are four digits wide; recorded with the per-cell renderer."""
    doc_path = tmp_path / "q37.json"
    assert main(["generate", "--q", "37", "--c", "3,5;7,11", "--out", str(doc_path)]) == 0
    assert main(["render", "--file", str(doc_path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "1af06244eed2d8cc1918a68897d1819eedf7fd96ef6c5421289dde8fdce06304"


def _tree_digest(directory):
    """sha256 over the bytes of the files, in sorted name order."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.read_bytes())
    return h.hexdigest()


# sha256 of the `family --out` trees, recorded before the block-plan
# renderer; the q = 13 json digest is the one bench/baseline.json holds.
@pytest.mark.parametrize("q, fmt, digest", [
    (13, "json", "8fb670d83789dd33254e9eef598c875059a1fc47316701edb711668f0fd74765"),
    (11, "json", "711d86475d41c948d58bee38b8d2978058b4176ffa00fb7e0838fd400af70df9"),
    (11, "grid", "a8fccd7dc3211f1b1820222e59c8153d7b87b254322125de0764f82d86746d4b"),
    (11, "csv", "5b638938d004adb46f8e5f4138ce3db4543418d4a0bdc7bf0744590fe49a3852"),
], ids=["q13-json", "q11-json", "q11-grid", "q11-csv"])
def test_family_out_tree_golden_bytes(q, fmt, digest, tmp_path, capsys):
    outdir = tmp_path / "fam"
    assert main(["family", "--q", str(q), "--format", fmt, "--out", str(outdir)]) == 0
    capsys.readouterr()
    assert len(list(outdir.iterdir())) == q * (q - 1)
    assert _tree_digest(outdir) == digest


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
    # render prints a JSON document's grid as the grid format writes it
    json_dir = tmp_path / "json"
    assert main(["family", "--q", "3", "--out", str(json_dir)]) == 0
    capsys.readouterr()
    assert main(["render", "--file", str(json_dir / "square_00.json")]) == 0
    assert capsys.readouterr().out == txts[0].read_text()


def _child_peak_mb(argv, cwd):
    """Run main(argv) in a fresh process; return its VmHWM in MB and its stdout.

    VmHWM is the peak of the child's own address space: ru_maxrss would
    carry over the RSS of this test process across fork and exec.
    """
    code = (
        "import sys\n"
        "import moss.cli\n"
        "assert moss.cli.main(sys.argv[1:]) == 0\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')),\n"
        "          file=sys.stderr)\n"
    )
    run = run_python("-c", code, *argv, cwd=cwd)
    assert run.returncode == 0, run.stderr
    return int(run.stderr.split()[-1]) / 1024, run.stdout  # VmHWM is in kB


@needs_vmhwm
def test_family_emission_memory_does_not_hold_the_family(tmp_path):
    """A fresh process writing the 156 q = 13 squares stays small.

    Rendering every document before the first write peaked near 69 MB.
    """
    peak_mb, _ = _child_peak_mb(["family", "--q", "13", "--out", str(tmp_path / "fam")], tmp_path)
    assert len(list((tmp_path / "fam").iterdir())) == 156
    assert peak_mb < 40


@needs_vmhwm
def test_verify_memory_holds_no_key_tuples(tmp_path, capsys):
    """A fresh process verifying the 110 q = 11 documents stays small.

    With a cached tuple of n*s keys per grid (0.12 MB each at q = 11) it
    peaked near 42 MB.  verify now keeps a document and the 120 cells of its
    grid's coset kernel, not the grid's row lists (about 0.12 MB each).
    """
    files = _write_family(tmp_path, q=11)
    capsys.readouterr()
    assert len(files) == 110
    assert _child_peak_mb(["verify", "--files", *files], tmp_path)[0] < 36


@needs_vmhwm
def test_verify_memory_does_not_grow_with_the_documents(tmp_path, capsys):
    """A fresh process verifying the 156 q = 13 documents stays near the
    interpreter's own size: about 19 MB, against 59 MB when every grid's
    row lists were kept for the pair census."""
    files = _write_family(tmp_path, q=13)
    capsys.readouterr()
    assert len(files) == 156
    peak_mb, out = _child_peak_mb(["verify", "--files", *files], tmp_path)
    assert peak_mb < 30
    assert out.splitlines()[-1] == "156 squares ok, 12090 pairs checked, 0 failures"


def _bar_cell_checks(rebind):
    """Make verify_sudoku, the cell census and the per-cell walks raise
    wherever moss binds them: the certifier must decide every grid and pair
    by coset kernels, and a canonical document is accepted by comparing its
    text, so no walk reads a grid's cells (the 2x2 c is still walked)."""
    for check in (moss.sudoku.verify_sudoku, moss.sudoku.verify_orthogonal_bruteforce,
                  moss.sudoku._check_rows):
        def barred(*args, name=check.__name__):
            raise AssertionError(f"{name} was called")

        rebind(check, barred)

    require_int_matrix = moss.serialize._require_int_matrix

    def barred_grid(value, path, *bounds):
        if path == "grid":
            raise AssertionError("_require_int_matrix walked a grid")
        return require_int_matrix(value, path, *bounds)

    rebind(require_int_matrix, barred_grid)


@pytest.mark.parametrize("field", [Field(5, 2), Field(3, 3)], ids=["q25", "q27"])
def test_verify_q25_takes_the_kernel_path(field, tmp_path, rebind, capsys):
    """Documents of order 625 and 729 are decided by their coset kernels:
    the cell census, about 0.1 s a pair there, and verify_sudoku are never
    called.  At k = 3 each row map is checked at 6 generators."""
    paths = []
    for i, m in enumerate(build_family(field).matrices[:8]):
        paths.append(tmp_path / f"square_{i}.json")
        paths[-1].write_text(SquareDocument.from_matrix(m).to_json())
    _bar_cell_checks(rebind)
    assert main(["verify", "--files", *map(str, paths)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "8 squares ok, 28 pairs checked, 0 failures"
    twin = tmp_path / "twin.json"
    twin.write_bytes(paths[3].read_bytes())
    assert main(["verify", "--files", str(paths[3]), str(twin)]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"FAIL {paths[3]} vs {twin}: not orthogonal", "2 squares ok, 1 pairs checked, 1 failures"]


def _write_family(tmp_path, q=3):
    outdir = tmp_path / f"family{q}"
    assert main(["family", "--q", str(q), "--out", str(outdir)]) == 0
    return sorted(str(f) for f in outdir.iterdir())


def test_verify_accepts_clean_family(tmp_path, capsys):
    """A family verifies, also with one document respelled by json.dumps
    (spaces, no final newline): from_json reads that text by its full path."""
    for q, last in [(3, "6 squares ok, 15 pairs checked, 0 failures"),
                    (5, "20 squares ok, 190 pairs checked, 0 failures")]:
        files = _write_family(tmp_path, q)
        assert main(["verify", "--files", *files]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == last
        text = Path(files[0]).read_text()
        Path(files[0]).write_text(json.dumps(json.loads(text)))
        assert Path(files[0]).read_text() != text
        assert main(["verify", "--files", *files]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == last


def test_verify_builds_each_field_once(tmp_path, spy, capsys):
    files = _write_family(tmp_path)
    capsys.readouterr()
    moss.serialize._field.cache_clear()
    calls = spy(Field.__init__)
    assert main(["verify", "--files", *files]) == 0
    assert len(calls) <= 1


@pytest.mark.parametrize("argv", [
    ["family", "--q", "5"],
    ["generate", "--q", "5", "--c", "0,1;1,1"],
])
def test_emitting_json_builds_one_field(argv, spy, capsys):
    """The document keeps the matrix it was made from, so to_json reuses its field."""
    moss.serialize._field.cache_clear()
    calls = spy(Field.__init__)
    assert main(argv) == 0
    assert len(calls) == 1


def test_verify_range_checks_every_grid(tmp_path, spy, capsys):
    """verify range-checks each document's grid on its own call and keeps
    nothing from an earlier run: after the family passes, its fourth grid
    is built with True (equal to 1) in row 5, and verify stops there with
    the range check's message, which names True's type, exit 2."""
    files = _write_family(tmp_path)
    assert main(["verify", "--files", *files]) == 0
    original = SquareDocument.to_grid

    def changed(doc):
        grid = original(doc)
        if len(built) == 4:
            row = grid.rows[5]
            row[row.index(1)] = True
        return grid

    built = spy(original, then=changed)
    capsys.readouterr()
    assert main(["verify", "--files", *files]) == 2
    out, err = capsys.readouterr()
    assert out == "".join(f"OK {path}\n" for path in files[:3])
    assert err == "error: symbol True is a bool, not an int\n"


def test_verify_runs_no_census_on_a_clean_family(tmp_path, rebind, capsys):
    """Every square of a clean family has a coset kernel, so verify decides
    every square and every pair by kernels and never calls the cell census
    or verify_sudoku."""
    files = _write_family(tmp_path)
    _bar_cell_checks(rebind)
    assert main(["verify", "--files", *files]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "6 squares ok, 15 pairs checked, 0 failures"


def test_q9_verify_and_bruteforce_mode_walk_no_grid(tmp_path, rebind, capsys):
    """verify on the 72 documents of GF(9) and family --q 9 --verify
    bruteforce read no grid cell by cell."""
    files = _write_family(tmp_path, q=9)
    _bar_cell_checks(rebind)
    capsys.readouterr()
    assert main(["verify", "--files", *files]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "72 squares ok, 2556 pairs checked, 0 failures"
    assert main(["family", "--q", "9", "--verify", "bruteforce", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "72 squares, 2556 orthogonal pairs"


def test_verify_takes_the_sudoku_verdict_from_the_kernel(tmp_path, rebind, capsys):
    """A document's kernel decides that it is a sudoku square, so verify runs
    verify_sudoku on none of a family's documents; when no kernel is found,
    each document is a FAIL line, still without verify_sudoku, and no pair
    is checked."""
    files = _write_family(tmp_path)
    _bar_cell_checks(rebind)
    capsys.readouterr()
    assert main(["verify", "--files", *files]) == 0
    assert capsys.readouterr().out == "".join(f"OK {path}\n" for path in files) + \
        "6 squares ok, 15 pairs checked, 0 failures\n"
    rebind(moss.cli.coset_kernel, lambda grid: None)
    assert main(["verify", "--files", *files]) == 1
    assert capsys.readouterr().out == "".join(f"FAIL {path}: no coset kernel\n" for path in files) + \
        "0 squares ok, 0 pairs checked, 6 failures\n"


def test_verify_builds_each_grid_once(tmp_path, spy, capsys):
    """from_json accepts canonical text without building its grid; verify
    builds it once, for the kernel."""
    files = _write_family(tmp_path)
    calls = spy(moss.sudoku.build_from_canonical)
    assert main(["verify", "--files", *files]) == 0
    assert len(calls) == len(files) == 6


def test_family_json_builds_no_grid(tmp_path, spy, capsys):
    calls = spy(moss.sudoku.build_from_canonical)
    assert main(["family", "--q", "5", "--out", str(tmp_path / "fam")]) == 0
    assert len(list((tmp_path / "fam").iterdir())) == 20
    assert calls == []


class _FailingWrite:
    """open() for moss.cli whose nth file takes half its text, then raises."""

    def __init__(self, nth, exc):
        self.nth, self.exc, self.opened = nth, exc, 0

    def __call__(self, path, mode):
        out = open(path, mode)
        self.opened += 1
        if self.opened == self.nth:
            write, exc = out.write, self.exc

            def half_then_fail(text):
                write(text[:len(text) // 2])
                out.flush()
                raise exc

            out.write = half_then_fail
        return out


@pytest.mark.parametrize("exc", [OSError(28, "No space left on device"), KeyboardInterrupt()],
                         ids=["no-space", "interrupt"])
def test_family_write_failure_leaves_no_partial_file(exc, tmp_path, monkeypatch, capsys):
    """A failed write removes its temp file and leaves whole files only; a
    successful run removes nothing, as every temp file was replaced."""
    clean, outdir = tmp_path / "clean", tmp_path / "fam"
    unlinked, unlink = [], Path.unlink

    def recording_unlink(path, *args, **kwargs):
        unlinked.append(path.name)
        return unlink(path, *args, **kwargs)

    monkeypatch.setattr(Path, "unlink", recording_unlink)
    assert main(["family", "--q", "3", "--out", str(clean)]) == 0
    assert unlinked == []
    expected = {f.name: f.read_bytes() for f in clean.iterdir()}

    def failing_run():
        monkeypatch.setattr(moss.cli, "open", _FailingWrite(3, exc), raising=False)
        try:
            if isinstance(exc, OSError):
                assert main(["family", "--q", "3", "--out", str(outdir)]) == 2
                err = capsys.readouterr().err
                assert err == f"error: [Errno 28] No space left on device: '{outdir / 'square_02.json'}'\n"
            else:
                with pytest.raises(KeyboardInterrupt):
                    main(["family", "--q", "3", "--out", str(outdir)])
        finally:
            monkeypatch.delattr(moss.cli, "open")

    # into a new directory: the two files before the failure are whole
    failing_run()
    assert len(unlinked) == 1 and unlinked[0].startswith(".square_02.json.")
    assert {f.name: f.read_bytes() for f in outdir.iterdir()} == {
        name: expected[name] for name in ("square_00.json", "square_01.json")}

    # over a complete tree: the file being replaced keeps its old bytes
    assert main(["family", "--q", "3", "--out", str(outdir)]) == 0
    (outdir / "square_02.json").write_text("old")
    failing_run()
    assert {f.name: f.read_bytes() for f in outdir.iterdir()} == dict(expected, **{
        "square_02.json": b"old"})

    # a rerun replaces the tree
    assert main(["family", "--q", "3", "--out", str(outdir)]) == 0
    assert {f.name: f.read_bytes() for f in outdir.iterdir()} == expected


def test_generate_out_is_written_atomically(tmp_path, monkeypatch, capsys):
    path = tmp_path / "square.json"
    path.write_text("old")
    monkeypatch.setattr(moss.cli, "open", _FailingWrite(1, OSError(28, "No space left on device")),
                        raising=False)
    assert main(["generate", "--q", "3", "--c", "0,2;2,1", "--out", str(path)]) == 2
    assert [f.name for f in tmp_path.iterdir()] == ["square.json"]
    assert path.read_text() == "old"
    monkeypatch.delattr(moss.cli, "open")
    assert main(["generate", "--q", "3", "--c", "0,2;2,1", "--out", str(path)]) == 0
    assert [f.name for f in tmp_path.iterdir()] == ["square.json"]
    assert SquareDocument.from_json(path.read_text()).matrix.indices() == ((0, 2), (2, 1))


MIXED_Q9_LIST = (1, "70aac611c6a724fe0926216470acd77e8775329a144a0c02d841f74b76b8f003")


def _verify_mixed_q9_list(tmp_path, monkeypatch, capsys):
    """verify's exit code and stdout on the 72 q = 9 documents with a twin
    of square_05, a document with one changed cell and one without its c."""
    monkeypatch.chdir(tmp_path)
    assert main(["family", "--q", "9", "--out", "fam"]) == 0
    files = sorted(f"fam/{path.name}" for path in Path("fam").iterdir())
    Path("twin.json").write_text(Path(files[5]).read_text())
    data = json.loads(Path(files[10]).read_text())
    data["grid"][3][4] = (data["grid"][3][4] + 1) % 81
    Path("corrupt.json").write_text(json.dumps(data))
    data = json.loads(Path(files[20]).read_text())
    del data["c"]
    Path("broken.json").write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["verify", "--files", *files[:36], "twin.json", "corrupt.json", *files[36:],
                 "broken.json"])
    return code, capsys.readouterr().out


def test_verify_mixed_q9_list_golden_bytes(tmp_path, monkeypatch, capsys):
    """verify prints, on the mixed q = 9 list, the bytes and exit code that
    the cell-by-cell census printed."""
    code, out = _verify_mixed_q9_list(tmp_path, monkeypatch, capsys)
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL corrupt.json: grid: grid disagrees with the square rebuilt from c",
        "FAIL broken.json: c: missing",
        "FAIL fam/square_05.json vs twin.json: not orthogonal",
    ]
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == MIXED_Q9_LIST


def test_verify_fails_the_squares_without_a_kernel(tmp_path, monkeypatch, rebind, spy, capsys):
    """With every other square's kernel withheld, from the first, verify
    prints "no coset kernel" for each square without one, never OK, and
    leaves it out of the pair phase, which builds no grid: twin.json keeps
    its kernel, square_05 does not, so their pair is not checked.  The
    two schema breaks stay FAIL lines of their own."""
    builds = spy(moss.sudoku.build_from_canonical)
    kernels, builds_at_kernel = [], []

    def every_other(grid):
        kernels.append(original_kernel(grid))
        builds_at_kernel.append(len(builds))
        return kernels[-1] if len(kernels) % 2 else None

    original_kernel = rebind(moss.cli.coset_kernel, every_other)
    code, out = _verify_mixed_q9_list(tmp_path, monkeypatch, capsys)
    files = sorted(f"fam/{path.name}" for path in Path("fam").iterdir())
    loaded = files[:36] + ["twin.json"] + files[36:]
    assert len(kernels) == len(loaded) == 73 and all(kernels)
    expected = [f"OK {path}" if i % 2 == 0 else f"FAIL {path}: no coset kernel"
                for i, path in enumerate(loaded)]
    expected.insert(37, "FAIL corrupt.json: grid: grid disagrees with the square rebuilt from c")
    expected += ["FAIL broken.json: c: missing", "37 squares ok, 666 pairs checked, 38 failures"]
    assert (code, out) == (1, "".join(line + "\n" for line in expected))
    # one grid per loaded square and corrupt.json's rebuild, none after the last kernel
    assert len(builds) == builds_at_kernel[-1] == 74


@pytest.mark.parametrize("withheld", [None, 0, 1])
def test_verify_prints_failing_pairs_in_pair_order(withheld, tmp_path, spy, capsys):
    """The row scan finds the failing pairs row by row, but verify prints
    them in the order of itertools.combinations, and they are exactly the
    pairs that the oracle's census rejects: 12 q = 9 squares with member 0
    at positions 0, 5 and 9 and member 3 at 3 and 7 fail (0, 5), (0, 9),
    (3, 7) and (5, 9).  When the kernel of every other grid, the even or
    the odd positions, is withheld, those squares fail on their own and the
    failing pairs are the oracle's among the rest: (3, 7) and (5, 9) for
    the odd positions, none for the even ones."""
    members = build_family(get_field(9)).matrices[:12]
    members[5] = members[9] = members[0]
    members[7] = members[3]
    files = []
    for i, m in enumerate(members):
        files.append(str(tmp_path / f"square_{i:02d}.json"))
        Path(files[-1]).write_text(SquareDocument.from_matrix(m).to_json())
    grids = [moss.sudoku.build_from_canonical(m) for m in members]
    kept = [i for i in range(12) if withheld is None or i % 2 != withheld]
    expected = [f"FAIL {files[i]}: no coset kernel" for i in range(12) if i not in kept]
    expected += [f"FAIL {files[i]} vs {files[j]}: not orthogonal"
                 for i, j in combinations(kept, 2)
                 if not orthogonal_by_pair_census(grids[i], grids[j])]
    assert len(expected) == {None: 4, 0: 8, 1: 6}[withheld]
    if withheld is not None:
        original = moss.cli.coset_kernel
        calls = spy(original, then=lambda grid: None if len(calls) % 2 != withheld else original(grid))
    capsys.readouterr()
    assert main(["verify", "--files", *files]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("FAIL")] == expected
    pairs = len(kept) * (len(kept) - 1) // 2
    assert out[-1] == f"{len(kept)} squares ok, {pairs} pairs checked, {len(expected)} failures"


def test_verify_fails_one_square_without_a_kernel(tmp_path, spy, capsys):
    """A q = 5 tree with one document's kernel withheld: that document is
    "FAIL <path>: no coset kernel", never OK, exit 1, and the summary counts
    the other 19 squares and their 171 pairs."""
    files = _write_family(tmp_path, q=5)
    original = moss.cli.coset_kernel
    calls = spy(original, then=lambda grid: None if len(calls) == 8 else original(grid))
    capsys.readouterr()
    assert main(["verify", "--files", *files]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"OK {path}" for path in files[:7]] + [f"FAIL {files[7]}: no coset kernel"] + \
        [f"OK {path}" for path in files[8:]] + ["19 squares ok, 171 pairs checked, 1 failures"]


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


def test_verify_rejects_mixed_orders(tmp_path, monkeypatch, capsys):
    """verify stops at the first document of another order than the first
    one's: no OK line for it, and no later file is loaded."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--q", "3", "--c", "0,1;1,1", "--out", str(a)]) == 0
    assert main(["generate", "--q", "5", "--c", "0,1;1,1", "--out", str(b)]) == 0
    capsys.readouterr()
    assert main(["verify", "--files", str(a), str(b)]) == 2
    assert "mix" in capsys.readouterr().err

    loads = []
    original = SquareDocument.from_json

    def counted(text):
        loads.append(text)
        return original(text)

    monkeypatch.setattr(SquareDocument, "from_json", counted)
    assert main(["verify", "--files", str(a), str(b), str(a)]) == 2
    out, err = capsys.readouterr()
    assert out == f"OK {a}\n"
    assert err == "error: files mix different orders: 3, 5\n"
    assert len(loads) == 2


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


# Exit code, stdout and stderr of failing invocations, with the temporary
# directory written as <tmp>; the files they read are made by
# _write_error_fixtures.
CLI_ERROR_GOLDEN = {
    "field-even": (
        ["field", "--q", "4"],
        2, "",
        "error: characteristic must be an odd prime, got 2\n"),
    "field-over-cap": (
        ["field", "--q", "169"],
        2, "",
        "error: order 169 exceeds cap 128\n"),
    "field-negative": (
        ["field", "--q", "-3"],
        2, "",
        "error: -3 is not an odd prime power\n"),
    "alpha-composite": (
        ["alpha", "--q", "12"],
        2, "",
        "error: 12 is not an odd prime power\n"),
    "generate-malformed": (
        ["generate", "--q", "3", "--c", "0,2;2"],
        2, "",
        "error: expected two ','-separated entries in '2'\n"),
    "generate-singular": (
        ["generate", "--q", "3", "--c", "1,2;2,1"],
        2, "",
        "error: Mat2(GF(3), [[1,2],[2,1]]) is singular or lower triangular\n"),
    "generate-lower-triangular": (
        ["generate", "--q", "3", "--c", "1,0;0,1"],
        2, "",
        "error: Mat2(GF(3), [[1,0],[0,1]]) is singular or lower triangular\n"),
    "generate-non-integer": (
        ["generate", "--q", "3", "--c", "0,x;2,1"],
        2, "",
        "error: bad matrix entry 'x': invalid literal for int() with base 10: 'x'\n"),
    "generate-out-directory": (
        ["generate", "--q", "3", "--c", "0,2;2,1", "--out", "{tmp}"],
        2, "",
        "error: [Errno 21] Is a directory: '<tmp>'\n"),
    "family-bruteforce-capped": (
        ["family", "--q", "29", "--verify", "bruteforce"],
        2, "",
        "error: bruteforce verification capped at q <= 27, got q = 29\n"),
    "family-out-below-file": (
        ["family", "--q", "3", "--out", "{tmp}/file/fam"],
        2, "",
        "error: [Errno 20] Not a directory: '<tmp>/file/fam'\n"),
    "verify-not-json": (
        ["verify", "--files", "{tmp}/bad.json"],
        2, "",
        "error: <tmp>/bad.json: not valid JSON (Expecting property name enclosed in double quotes: line 1 column 2 (char 1))\n"),
    "verify-latin1": (
        ["verify", "--files", "{tmp}/latin1.json"],
        2, "",
        "error: <tmp>/latin1.json: not valid JSON ('utf-8' codec can't decode byte 0xe9 in position 7: invalid continuation byte)\n"),
    "verify-missing": (
        ["verify", "--files", "{tmp}/missing.json"],
        2, "",
        "error: [Errno 2] No such file or directory: '<tmp>/missing.json'\n"),
    "verify-mixed": (
        ["verify", "--files", "{tmp}/fam/square_00.json", "{tmp}/singular.json",
         "{tmp}/fam/square_01.json", "{tmp}/fam/square_02.json", "{tmp}/range.json",
         "{tmp}/fam/square_03.json"],
        1, "".join([
            "OK <tmp>/fam/square_00.json\n",
            "FAIL <tmp>/singular.json: c: not a valid generator (singular or lower triangular)\n",
            "OK <tmp>/fam/square_01.json\n",
            "OK <tmp>/fam/square_02.json\n",
            "FAIL <tmp>/range.json: grid[0][0]: value 9 out of range [0, 9)\n",
            "OK <tmp>/fam/square_03.json\n",
            "4 squares ok, 6 pairs checked, 2 failures\n",
        ]), ""),
    "verify-duplicate-c": (
        ["verify", "--files", "{tmp}/duplicate.json"],
        1, "FAIL <tmp>/duplicate.json: c: duplicate key\n0 squares ok, 0 pairs checked, 1 failures\n", ""),
    "render-not-json": (
        ["render", "--file", "{tmp}/bad.json"],
        2, "",
        "error: <tmp>/bad.json: not valid JSON (Expecting property name enclosed in double quotes: line 1 column 2 (char 1))\n"),
    "render-latin1": (
        ["render", "--file", "{tmp}/latin1.json"],
        2, "",
        "error: <tmp>/latin1.json: not valid JSON ('utf-8' codec can't decode byte 0xe9 in position 7: invalid continuation byte)\n"),
    "render-missing": (
        ["render", "--file", "{tmp}/missing.json"],
        2, "",
        "error: [Errno 2] No such file or directory: '<tmp>/missing.json'\n"),
    "render-singular": (
        ["render", "--file", "{tmp}/singular.json"],
        2, "",
        "error: <tmp>/singular.json: c: not a valid generator (singular or lower triangular)\n"),
    "render-out-of-range": (
        ["render", "--file", "{tmp}/range.json"],
        2, "",
        "error: <tmp>/range.json: grid[0][0]: value 9 out of range [0, 9)\n"),
}


def _write_error_fixtures(tmp):
    """A q = 3 family in tmp/fam, bad documents beside it and a regular file."""
    with redirect_stdout(io.StringIO()):
        assert main(["family", "--q", "3", "--out", str(tmp / "fam")]) == 0
    doc = json.loads((tmp / "fam" / "square_00.json").read_text())
    (tmp / "singular.json").write_text(json.dumps(dict(doc, c=[[1, 2], [2, 1]])))
    doc["grid"][0][0] = 9
    (tmp / "range.json").write_text(json.dumps(doc))
    # square_00's text with a second "c", square_01's, before its grid
    text, other = ((tmp / "fam" / f"square_0{i}.json").read_text() for i in (0, 1))
    (tmp / "duplicate.json").write_text(text.replace(
        ',"grid":', ',"c":' + json.dumps(json.loads(other)["c"], separators=(",", ":")) + ',"grid":'))
    (tmp / "bad.json").write_text("{not json")
    (tmp / "latin1.json").write_bytes(b'{"q": "\xe9"}')
    (tmp / "file").write_text("")


@pytest.mark.parametrize("name", list(CLI_ERROR_GOLDEN))
def test_cli_error_golden_bytes(name, tmp_path):
    args, code, stdout, stderr = CLI_ERROR_GOLDEN[name]
    _write_error_fixtures(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        got = main([arg.format(tmp=tmp_path) for arg in args])
    tmp = str(tmp_path)
    assert (got, out.getvalue().replace(tmp, "<tmp>"), err.getvalue().replace(tmp, "<tmp>")) \
        == (code, stdout, stderr)


def test_family_and_verify_are_clean_under_dev_mode_and_warnings_as_errors(tmp_path):
    """Under -X dev -W error, a DeprecationWarning or ResourceWarning from
    moss is an error: family --verify bruteforce and verify of its 72
    documents exit 0 with nothing on stderr."""
    moss_cmd = ["-X", "dev", "-W", "error", "-m", "moss"]
    out = tmp_path / "D"
    family = run_python(*moss_cmd, "family", "--q", "9", "--out", str(out),
                        "--verify", "bruteforce", cwd=tmp_path)
    assert (family.returncode, family.stderr) == (0, "")
    files = sorted(map(str, out.glob("*.json")))
    assert len(files) == 72
    verify = run_python(*moss_cmd, "verify", "--files", *files, cwd=tmp_path)
    assert (verify.returncode, verify.stderr) == (0, "")


def test_module_entrypoint_runs_in_subprocess(tmp_path):
    """python -m moss runs cli.entry: its output is deterministic, and a moss
    error, an argparse usage error and --help leave through entry's
    sys.exit with exit codes 2, 2 and 0 and no traceback."""
    def moss_run(*args):
        return run_python("-m", "moss", *args, cwd=tmp_path)

    runs = [moss_run("generate", "--q", "3", "--c", "0,2;2,1") for _ in range(2)]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    bad = moss_run("field", "--q", "4")
    assert bad.returncode == 2
    assert bad.stderr.startswith("error:") and "Traceback" not in bad.stderr
    usage = moss_run("family")  # --q is missing
    assert usage.returncode == 2 and usage.stdout == ""
    assert usage.stderr.startswith("usage: moss") and "Traceback" not in usage.stderr
    help_run = moss_run("--help")
    assert help_run.returncode == 0 and help_run.stderr == ""
    assert help_run.stdout.startswith("usage: moss")
