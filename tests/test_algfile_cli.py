import hashlib
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
from lieshift.liealg import classify_nilradical, validate
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


def test_scalar_codec_tower_rational_coefficients():
    # level-0 coefficients with signs and non-unit denominators go up into
    # Q(t) and Q(t)(s) and come back down as the same strings
    Qt = QQ.extend("t")
    Qts = Qt.extend("s")
    t, s = Qt.var("t"), Qts.var("s")
    c = (t * Qt.rational(-3, 7) + Qt.rational(1, 2)) / (t - Qt.rational(5, 4))
    c_data = {"num": [[[0], "1/2"], [[1], "-3/7"]], "den": [[[0], "-5/4"], [[1], "1"]]}
    assert encode_scalar(c) == c_data
    assert decode_scalar(Qt, c_data) == c
    c2 = (Qts.lift(c) * s + Qts.rational(-1, 3)) / (s + Qts.rational(2, 9))

    def const(q):
        return {"num": [[[0], q]], "den": [[[0], "1"]]}

    c2_data = {
        "num": [[[0], const("-1/3")], [[1], c_data]],
        "den": [[[0], const("2/9")], [[1], const("1")]],
    }
    assert encode_scalar(c2) == c2_data
    assert decode_scalar(Qts, c2_data) == c2
    assert encode_scalar(Qts.rational(-7, 4)) == {
        "num": [[[0], const("-7/4")]], "den": [[[0], const("1")]]
    }
    # the same scalars as structure constants of a loaded algebra
    from lieshift.liealg import LieAlgebra

    for F, x in ((Qt, c), (Qts, c2)):
        L = LieAlgebra(F, ["a", "b", "z"], {(0, 1): {2: x}}, {"central": [2]})
        data = dump_algebra(L)
        assert data == json.loads(json.dumps(data))
        M = load_algebra(data)
        assert M.field == F and M.table == L.table
        assert dump_algebra(M) == data


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
    split = classify_nilradical(H).split
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


def test_cli_validate_reports_an_unstable_split_once(tmp_path, capsys):
    from lieshift.cli import main
    from lieshift.liealg import HeisenbergSplit, LieAlgebra

    P = preset("sl2-semidirect-h3").algebra
    split = P.annotations["heisenberg_split"]
    whole = HeisenbergSplit(
        l_basis=P.span_of_indices(range(P.dim)), x=split.x, y=split.y, z=split.z
    )
    L = LieAlgebra(QQ, P.labels, P.table, dict(P.annotations, heisenberg_split=whole))
    p = tmp_path / "whole_split.json"
    p.write_text(json.dumps(dump_algebra(L)))
    assert main(["validate", "--file", str(p), "--json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["annotation_failures"] == ["span{x, y} is not stable under l_basis"]


def test_cli_scans_jacobi_once_per_algebra(tmp_path, monkeypatch, capsys):
    # validate scans its unchecked load once; construct reuses the report of
    # the checked load and scans only the stabilizer level it builds
    import lieshift.liealg as liealg_mod
    from lieshift.cli import main

    scanned = []
    real = liealg_mod._jacobi_failures

    def counted(L):
        scanned.append(L.dim)
        return real(L)

    monkeypatch.setattr(liealg_mod, "_jacobi_failures", counted)
    p = tmp_path / "heisenberg4.json"
    write_algebra(preset("heisenberg4").algebra, p)
    assert main(["validate", "--file", str(p), "--json"]) == 0
    assert scanned == [9]
    scanned.clear()
    assert main(["construct", "--file", str(p), "--json"]) == 0
    assert scanned == [9, 1]
    capsys.readouterr()


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


@pytest.mark.parametrize(
    "name, digest",
    [
        ("borel-sl3", "9e0a454f2b94bdc16171cb9d3db34f238693785dc97cd3d930cff1ecc209dec0"),
        ("sl2-semidirect-h3", "f5a8890bd9bbfe69dd8c03256a005b59d0c8e9c48d6899087ff7754525d59588"),
        ("heisenberg4", "4546163e5837ca4ee69dd2a8d812e5e0fadbe66a2a93f656040dae4bfea6c33b"),
    ],
)
def test_cli_construct_json_golden(name, digest):
    # sha256 of the --json stdout, recorded before the cleared-value format
    # was shared by every tower level; sl2-semidirect-h3 re-pinned when the
    # regular form of its sl2 Levi level came to vanish off the weight-zero
    # vectors
    out = run_cli("construct", "--preset", name, "--json")
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("cmd", ["mf", "quantum-mf"])
def test_cli_no_invariants_is_a_verification_failure(cmd):
    # aff1 has no symmetric invariants: a failed check, exit 1
    out = run_cli(cmd, "--preset", "aff1", "--json")
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == (
        "verification failure: no symmetric invariants up to degree 3\n"
    )


IMPORT_PROBE = """
import sys
import lieshift.cli
print("sympy" in sys.modules)
lieshift.cli.main(%r)
print("sympy" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv, loads_after_main",
    [
        (["index", "--preset", "sl3", "--json"], False),
        (["reduce-abelian", "--preset", "borel-sl3", "--json"], True),
        # sampled ranks at level 0 are taken mod p without sympy
        (["b", "--preset", "heisenberg10", "--json"], False),
        (["mf", "--preset", "so4", "--json"], False),
    ],
)
def test_sympy_is_imported_only_for_tower_fields(argv, loads_after_main):
    # a fresh interpreter: level 0 runs on fractions.Fraction, and sympy
    # comes in with the first function field
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE % (argv,)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[-1] == str(loads_after_main)


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


@pytest.mark.parametrize(
    "name, ideal, message",
    [
        ("borel-sl3", "0", "the subspace is not an ideal"),
        ("aff1", "0", "the subspace is not an ideal"),
        ("sl2", "0,1", "the subspace is not abelian"),
    ],
)
def test_cli_reduce_abelian_rejects_a_bad_explicit_ideal(name, ideal, message, capsys):
    # a named subspace that is not an abelian ideal is bad input, as in b-rel
    from lieshift.cli import main

    assert main(["reduce-abelian", ideal, "--preset", name, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: %s\n" % message


def test_cli_reduce_abelian_bad_classifier_ideal_is_a_verification_failure(
    monkeypatch, capsys
):
    # the same check on the ideal the classifier chose is a fault of the
    # program, not of the input
    from types import SimpleNamespace

    from lieshift import cli

    monkeypatch.setattr(
        cli,
        "classify_nilradical",
        lambda L: SimpleNamespace(kind="abelian_ideal", h=L.span_of_indices([0])),
    )
    assert cli.main(["reduce-abelian", "--preset", "aff1", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verification failure: the subspace is not an ideal\n"


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


def test_cli_rejects_a_bound_at_half_the_prime(capsys):
    # the sampled ranks are taken mod p = 2^61 - 1, where coordinates in
    # [-bound, bound] must stay distinct
    from lieshift.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["index", "--preset", "sl2", "--bound", str(2**60 - 1)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "lieshift index: error: argument --bound: bound must be below (p - 1)/2"
        " = 1152921504606846975 for the prime p = 2^61 - 1, got 1152921504606846975\n"
    )
    assert main(["index", "--preset", "sl2", "--bound", str(2**60 - 2), "--json"]) == 0


@pytest.mark.parametrize("value", ["-1", "two"])
def test_cli_rejects_a_negative_depth(value, capsys):
    # --depth -1 used to reach construct_theorem and exit 1 with "reduction
    # recursion exceeded -1 levels"
    from lieshift.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["construct", "--preset", "sl2", "--depth", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --depth: expected an integer >= 0" in captured.err


def test_cli_accepts_depth_zero(capsys):
    from lieshift.cli import main

    assert main(["construct", "--preset", "sl2", "--depth", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["trdeg"]["value"] == 2


def test_cli_accepts_smallest_sampling_args(capsys):
    from lieshift.cli import main

    assert main(["index", "--preset", "sl2", "--samples", "1", "--bound", "1", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["index"]["samples"] == 1


# -- malformed documents: AlgebraFileError, and exit 2 from the CLI -----------


def _with_tower_exponent(exp):
    def mutate(d):
        d["field"] = {"tower": [["t"]]}
        d["brackets"][0]["coeffs"]["e"] = {"num": [[[exp], "2"]], "den": [[[0], "1"]]}

    return mutate


MALFORMED_SL2 = {
    "central not an index": lambda d: d.update(annotations={"central": ["a"]}),
    "central out of range": lambda d: d.update(annotations={"central": [99]}),
    "coeffs a list": lambda d: d["brackets"][0].update(coeffs=["h"]),
    "brackets a number": lambda d: d.update(brackets=5),
    "annotations a list": lambda d: d.update(annotations=[1]),
    "field a list": lambda d: d.update(field=[1]),
    "exponent a string": _with_tower_exponent("x"),
    "exponent a fraction": _with_tower_exponent(1.5),
    "dim a fraction": lambda d: d.update(dim=3.0),
    "levi out of range": lambda d: d.update(annotations={"levi": [99]}),
    "levi negative": lambda d: d.update(annotations={"levi": [-1]}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SL2))
def test_malformed_file_is_an_input_error(case, tmp_path, capsys):
    from lieshift.cli import main

    data = dump_algebra(preset("sl2").algebra)
    MALFORMED_SL2[case](data)
    with pytest.raises(AlgebraFileError):
        load_algebra(data, check=False)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert main(["validate", "--file", str(p), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")


@pytest.mark.parametrize(
    "content",
    [b'{"format": "lieshift/1", "basis": ["\xff"]}', b"[" * 100000 + b"]" * 100000],
    ids=["invalid utf-8", "nested too deeply"],
)
def test_unreadable_file_is_an_input_error(content, tmp_path, capsys):
    from lieshift.cli import main

    p = tmp_path / "bad.json"
    p.write_bytes(content)
    with pytest.raises(AlgebraFileError):
        read_algebra(str(p))
    assert main(["validate", "--file", str(p), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")


def test_cli_info_shows_an_unknown_annotation_as_loaded(tmp_path, capsys):
    from lieshift.cli import main

    data = dump_algebra(preset("sl2").algebra)
    data["annotations"] = {"note": ["from a notebook", 2]}
    p = tmp_path / "noted.json"
    p.write_text(json.dumps(data))
    assert main(["info", "--file", str(p), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["annotations"] == {"note": ["from a notebook", 2]}


def test_cli_internal_error_exit_3(monkeypatch, capsys):
    from lieshift import cli

    def broken(L, P, args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "info", broken)
    assert cli.main(["info", "--preset", "sl2"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: boom\n"
    assert captured.out == ""


def _documents():
    from lieshift.construct import abelian_qhat
    from lieshift.liealg import LieAlgebra

    H = preset("heisenberg2").algebra
    split = classify_nilradical(H).split
    ann = dict(H.annotations, heisenberg_split=split)
    return [
        dump_algebra(preset("sl2").algebra),
        dump_algebra(preset("sl2-semidirect-h3").algebra),
        dump_algebra(LieAlgebra(QQ, H.labels, H.table, ann)),
        dump_algebra(abelian_qhat(H, H.span_of_indices([4])).algebra),
    ]


DOCUMENTS = _documents()
_KEYS = ["format", "dim", "basis", "field", "tower", "brackets", "i", "j", "coeffs",
         "annotations", "central", "levi", "nilradical", "solvable_radical",
         "heisenberg_split", "l_basis", "x", "y", "z", "num", "den", "h", "e", "w1"]
_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.text(max_size=3)
    | st.sampled_from(["1", "-1/2", "0", "h", "e", "w1", "t", "lieshift/1"])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=8,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, prefix + (i,))


@st.composite
def mutated_documents(draw):
    """A valid document with one or two nodes replaced by JSON or deleted."""
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCUMENTS))))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        delete = draw(st.integers(0, 2)) == 0
        if not path:
            doc = doc if delete else draw(_JSON_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if delete:
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_JSON_VALUES)
    return doc


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_documents(), st.booleans())
def test_load_raises_only_algebra_file_errors(doc, check):
    try:
        load_algebra(doc, check=check)
    except AlgebraFileError:
        pass


# -- the CLI argument space: exit 0, 1 or 2, never 3 or a traceback ----------

_FLAG_VALUES = {
    "--seed": ["0", "7", "-3", "x", "1.5", ""],
    "--samples": ["1", "2", "0", "-1", "two", "1e3"],
    "--bound": ["1", "50", str(2**60 - 2), str(2**60 - 1), "0", "-5", "ten"],
    "--max-deg": ["1", "2", "0", "-1", "x"],
    "--depth": ["0", "3", "-1", "two"],
}
_CLI_PRESETS = ["sl2", "aff1", "heisenberg1", "borel-sl2", "abelian2", "nope", "heisenberg0"]


@st.composite
def cli_files(draw):
    """(kind, content): a document to write as JSON, raw bytes, or a path
    that is missing or a directory."""
    kind = draw(st.sampled_from(["valid", "mutated", "jacobi", "bytes", "missing", "dir"]))
    if kind == "valid":
        return kind, draw(st.sampled_from(DOCUMENTS))
    if kind == "mutated":
        return kind, draw(mutated_documents())
    if kind == "jacobi":
        return kind, {
            "format": "lieshift/1", "dim": 3, "basis": ["x", "y", "z"],
            "brackets": [{"i": 0, "j": 1, "coeffs": {"z": "1"}},
                         {"i": 0, "j": 2, "coeffs": {"x": "1"}},
                         {"i": 1, "j": 2, "coeffs": {"y": "1"}}],
        }
    if kind == "bytes":
        return kind, draw(st.sampled_from([b"", b"{", b"\xff\xfe", b"[]", b"null", b"[[[[[]]]]]"]))
    return kind, None


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_argument_space_exits_0_1_or_2(data, tmp_path_factory):
    import contextlib
    import io

    from lieshift.cli import main

    command = data.draw(st.sampled_from(["info", "validate", "index", "b"]))
    argv = [command]
    source = data.draw(st.sampled_from(["neither", "preset", "file", "both"]))
    if source in ("preset", "both"):
        argv += ["--preset", data.draw(st.sampled_from(_CLI_PRESETS))]
    if source in ("file", "both"):
        root = tmp_path_factory.getbasetemp() / "cli-fuzz"
        root.mkdir(exist_ok=True)
        kind, content = data.draw(cli_files())
        path = root / ("missing.json" if kind == "missing" else "doc.json")
        if kind == "dir":
            path = root
        elif kind == "bytes":
            path.write_bytes(content)
        elif kind != "missing":
            path.write_text(json.dumps(content))
        argv += ["--file", str(path)]
    for flag, values in _FLAG_VALUES.items():
        if data.draw(st.booleans()):
            argv += [flag, data.draw(st.sampled_from(values))]
    if data.draw(st.booleans()):
        argv.append("--json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejects an argument with exit 2
            code = e.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code:  # a message on stderr, or the validate command's failing report
        assert err.getvalue() or command == "validate" and out.getvalue(), argv
    elif "--json" in argv:
        assert json.loads(out.getvalue())["command"] == command
