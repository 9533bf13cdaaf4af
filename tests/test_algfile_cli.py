import json
import subprocess
import sys

import pytest

from lieshift.algfile import (
    AlgebraFileError,
    decode_scalar,
    dump_algebra,
    encode_scalar,
    load_algebra,
    read_algebra,
    write_algebra,
)
from lieshift.fields import QQ
from lieshift.liealg import classify_nilradical, darboux_split, nilradical_of, validate
from lieshift.presets import preset, preset_names

ALL_PRESETS = ["abelian1", "abelian3", "heisenberg1", "heisenberg2"] + [
    n for n in preset_names() if not n.endswith("N")
]


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "lieshift.cli", *argv],
        capture_output=True,
        text=True,
    )


def test_scalar_codec_level0():
    assert encode_scalar(QQ.rational(-3, 7)) == "-3/7"
    assert encode_scalar(QQ.from_int(5)) == "5"
    assert decode_scalar(QQ, "-3/7") == QQ.rational(-3, 7)
    assert decode_scalar(QQ, 4) == QQ.from_int(4)
    for bad in ("0.5", "1e3", "3/-7", "2/0", " 1", "1/1.5", "a"):
        with pytest.raises(AlgebraFileError):
            decode_scalar(QQ, bad)


def test_scalar_codec_tower():
    F = QQ.extend("t", "u")
    t, u = F.var("t"), F.var("u")
    c = (t * u + F.rational(1, 2)) / (t - u)
    data = encode_scalar(c)
    assert set(data) == {"num", "den"}
    back = decode_scalar(F, data)
    assert back == c
    with pytest.raises(AlgebraFileError):
        decode_scalar(F, {"num": [[[0, 0], "1"]], "den": [[[0, 0], "0"]]})


def test_roundtrip_all_presets():
    for name in ALL_PRESETS:
        L = preset(name).algebra
        data = dump_algebra(L)
        M = load_algebra(data)
        assert M.labels == L.labels
        assert M.table == L.table, name
        assert M.annotations == L.annotations, name
        assert dump_algebra(M) == data, name


def test_roundtrip_split_annotation():
    H = preset("heisenberg2").algebra
    split = darboux_split(H, nilradical_of(H))
    from lieshift.liealg import LieAlgebra

    L = LieAlgebra(QQ, H.labels, H.table, dict(H.annotations, heisenberg_split=split))
    data = dump_algebra(L)
    M = load_algebra(data)
    assert M.annotations["heisenberg_split"] == split
    assert dump_algebra(M) == data


def test_roundtrip_tower_coefficients():
    # structure constants over a rational function field survive the trip
    from lieshift.construct import abelian_qhat

    L = preset("heisenberg2").algebra
    hat = abelian_qhat(L, L.span_of_indices([4]))
    data = dump_algebra(hat.algebra)
    assert data["field"] == {"tower": [["w1"]]}
    M = load_algebra(data)
    assert M.table == hat.algebra.table
    assert dump_algebra(M) == data


def test_load_rejects_malformed(tmp_path):
    good = dump_algebra(preset("sl2").algebra)
    for mutate in (
        lambda d: d.update(format="other/9"),
        lambda d: d.update(dim=7),
        lambda d: d.update(basis=["a", "a", "b"]),
        lambda d: d["brackets"].append({"i": 0, "j": 99, "coeffs": {"h": "1"}}),
        lambda d: d["brackets"].append(dict(d["brackets"][0])),
        lambda d: d["brackets"][0].update(coeffs={"nope": "1"}),
    ):
        data = json.loads(json.dumps(good))
        mutate(data)
        with pytest.raises(AlgebraFileError):
            load_algebra(data)


def test_load_check_flag_validates():
    data = {
        "format": "lieshift/1",
        "dim": 3,
        "basis": ["x", "y", "z"],
        "brackets": [
            {"i": 0, "j": 1, "coeffs": {"z": "1"}},
            {"i": 0, "j": 2, "coeffs": {"x": "1"}},
            {"i": 1, "j": 2, "coeffs": {"y": "1"}},
        ],
    }
    with pytest.raises(AlgebraFileError):
        load_algebra(data)
    M = load_algebra(data, check=False)
    assert not validate(M).ok


def test_file_roundtrip(tmp_path):
    L = preset("so4").algebra
    p = tmp_path / "so4.json"
    write_algebra(L, p)
    M = read_algebra(p)
    assert M.table == L.table
    text = p.read_text()
    assert json.loads(text)["format"] == "lieshift/1"


# -- command line ---------------------------------------------------------------


def test_cli_info_and_exit_codes(tmp_path):
    out = run_cli("info", "--preset", "sl2")
    assert out.returncode == 0
    assert "dim: 3" in out.stdout
    bad = run_cli("info", "--preset", "nope")
    assert bad.returncode == 2
    assert "input error" in bad.stderr


def test_cli_validate_failure(tmp_path):
    data = {
        "format": "lieshift/1",
        "dim": 3,
        "basis": ["x", "y", "z"],
        "brackets": [
            {"i": 0, "j": 1, "coeffs": {"z": "1"}},
            {"i": 0, "j": 2, "coeffs": {"x": "1"}},
            {"i": 1, "j": 2, "coeffs": {"y": "1"}},
        ],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    out = run_cli("validate", "--file", str(p), "--json")
    assert out.returncode == 1
    rep = json.loads(out.stdout)
    assert rep["results"]["ok"] is False
    assert rep["results"]["jacobi_failures"] == [[0, 1, 2]]
    ok = run_cli("validate", "--preset", "sl2")
    assert ok.returncode == 0


def test_cli_rejects_decimals(tmp_path):
    data = {
        "format": "lieshift/1",
        "dim": 2,
        "basis": ["a", "b"],
        "brackets": [{"i": 0, "j": 1, "coeffs": {"b": "0.5"}}],
    }
    p = tmp_path / "dec.json"
    p.write_text(json.dumps(data))
    out = run_cli("index", "--file", str(p))
    assert out.returncode == 2
    assert "rational" in out.stderr


def test_cli_index_b_json():
    out = run_cli("index", "--preset", "sl3", "--json")
    rep = json.loads(out.stdout)
    assert rep["results"]["index"]["value"] == 2
    assert rep["results"]["index"]["seed"] == 2020
    assert rep["seed"] == 2020
    assert rep["timing"] is None
    b = json.loads(run_cli("b", "--preset", "gl4", "--json").stdout)
    assert b["results"]["b"] == 10
    assert b["digest"]


def test_cli_json_byte_identical():
    a = run_cli("construct", "--preset", "borel-sl3", "--json").stdout
    b = run_cli("construct", "--preset", "borel-sl3", "--json").stdout
    assert a == b
    assert json.loads(a)["results"]["trdeg"]["value"] == 3


def test_cli_b_rel():
    out = run_cli("b-rel", "0", "--preset", "sl2", "--json")
    rep = json.loads(out.stdout)
    assert rep["results"]["b_rel"] == 2


def test_cli_invariants_and_mf():
    out = run_cli("invariants", "--preset", "sl2", "--max-deg", "2", "--json")
    rep = json.loads(out.stdout)
    assert rep["results"]["invariants"] == ["h^2 + 4*e*f"]
    mf = json.loads(run_cli("mf", "--preset", "sl2", "--json").stdout)
    gens = mf["results"]["set"]["generators"]
    assert len(gens) == 2 and gens[0] == "h^2 + 4*e*f"
    qmf = json.loads(run_cli("quantum-mf", "--preset", "sl2", "--json").stdout)
    assert qmf["results"]["trdeg"]["value"] == 2


def test_cli_hat_check():
    out = run_cli("hat-check", "--preset", "sl2-semidirect-h3", "--json")
    rep = json.loads(out.stdout)
    assert out.returncode == 0
    assert rep["results"]["ok"] is True
    assert rep["results"]["pairs_checked"] == 18


def test_cli_reduce_abelian():
    out = run_cli("reduce-abelian", "1", "--preset", "aff1", "--json")
    rep = json.loads(out.stdout)
    assert rep["results"]["reduced_dim"] == 1
    assert rep["results"]["reduced_basis"] == ["delta"]
    assert rep["results"]["function_field_vars"] == ["w1"]


def test_cli_construct_and_trdeg():
    out = run_cli("construct", "--preset", "heisenberg1", "--json")
    rep = json.loads(out.stdout)
    assert out.returncode == 0
    assert rep["results"]["set"]["generators"] == ["z", "x1"]
    assert rep["results"]["b"] == 2
    td = json.loads(run_cli("trdeg", "--preset", "sl2", "--json").stdout)
    assert td["results"]["trdeg"]["value"] == 2


def test_cli_maximality():
    out = run_cli("maximality", "--preset", "heisenberg1", "--json")
    rep = json.loads(out.stdout)
    assert out.returncode == 0
    assert rep["results"]["new_elements"] == []


def test_cli_reproduce_paper_example():
    out = run_cli("reproduce-paper-example", "--json")
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["results"]["ok"] is True
    checks = rep["results"]["checks"]
    assert all(c["pass"] for c in checks)
    assert len(checks) >= 8


def test_cli_text_mode_prints_timing():
    out = run_cli("b", "--preset", "sl2")
    assert out.returncode == 0
    assert "elapsed:" in out.stdout
    assert "b: 2" in out.stdout


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("index", "--preset", "sl2", "--bound", "0"), "--bound"),
        (("index", "--preset", "sl2", "--samples", "0"), "--samples"),
        (("index", "--preset", "sl2", "--bound", "-5"), "--bound"),
        (("b", "--preset", "sl2", "--samples", "0", "--json"), "--samples"),
        (("maximality", "--preset", "heisenberg1", "--max-deg", "0"), "--max-deg"),
        (("invariants", "--preset", "sl2", "--max-deg", "two"), "--max-deg"),
    ],
)
def test_cli_rejects_nonpositive_sampling_args(argv, flag, capsys):
    from lieshift.cli import main

    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument %s: expected an integer >= 1" % flag in captured.err


def test_cli_accepts_smallest_sampling_args(capsys):
    from lieshift.cli import main

    assert main(["index", "--preset", "sl2", "--samples", "1", "--bound", "1", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["index"]["samples"] == 1
