"""Pinned ``--json`` output of the CLI commands that the linear algebra decides.

Each case runs ``lieshift.cli.main([..., "--json"])`` in-process and
compares its exit code and the sha256 of its stdout with the table below:
validity, symmetric invariants, the argument-shift families, the
correction-map checks and the maximality probe at degrees 1 and 2 on every
listed preset, the worked paper example, the abelian reduction of aff1
and borel-sl3, whose output carries the minimal stabilizer dimension, and
the argument-shift families of aff1 + sl2 read from a file. No linear form
that vanishes on its nonzero-weight vectors x, e, f is regular there. Two
more files: the construction on gl2 with a basis label that clashes with a
derived basis's generic name, and the abelian reduction of a borel-sl3 over
Q(t), whose reduced brackets are scalars of Q(t)(w1).

``PYTHONPATH=src python tests/test_cli_goldens.py --print`` prints the
table for the current code. Regenerate it only in a commit that documents
an intended output change.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from lieshift.cli import main

PRESETS = (
    "sl2", "gl2", "gl3", "sl3", "so3", "so4", "aff1", "borel-sl2", "borel-sl3",
    "sl2-semidirect-h3", "heisenberg1", "heisenberg2", "heisenberg4", "abelian3",
)
COMMANDS = (
    ("validate",),
    ("invariants",),
    ("mf",),
    ("quantum-mf",),
    ("hat-check",),
    ("maximality", "--max-deg", "1"),
    ("maximality", "--max-deg", "2"),
)
CASES = [cmd + ("--preset", p) for p in PRESETS for cmd in COMMANDS]
CASES.append(("reproduce-paper-example",))
CASES += [("reduce-abelian", "--preset", p) for p in ("aff1", "borel-sl3")]

# aff1 + sl2: [t, x] = x, [h, e] = 2e, [h, f] = -2f, [e, f] = h
AFF1_SL2 = {
    "format": "lieshift/1",
    "dim": 5,
    "basis": ["t", "x", "h", "e", "f"],
    "brackets": [
        {"i": 0, "j": 1, "coeffs": {"x": "1"}},
        {"i": 2, "j": 3, "coeffs": {"e": "2"}},
        {"i": 2, "j": 4, "coeffs": {"f": "-2"}},
        {"i": 3, "j": 4, "coeffs": {"h": "1"}},
    ],
}
# gl2 with e12 named v0, the generic name of the first vector of [q, q]'s
# basis, which is not a coordinate vector: [q, q] falls back to generic names
GL2_V0 = {
    "format": "lieshift/1",
    "dim": 4,
    "basis": ["e11", "v0", "e21", "e22"],
    "brackets": [
        {"i": 0, "j": 1, "coeffs": {"v0": "1"}},
        {"i": 0, "j": 2, "coeffs": {"e21": "-1"}},
        {"i": 1, "j": 2, "coeffs": {"e11": "1", "e22": "-1"}},
        {"i": 1, "j": 3, "coeffs": {"v0": "1"}},
        {"i": 2, "j": 3, "coeffs": {"e21": "-1"}},
    ],
}


def _qt(*terms, den=(([0], "1"),)):
    """A scalar of Q(t) in the file format: sum of c t^k over terms (k, c),
    over den."""
    return {"num": [[[k], c] for k, c in terms], "den": [list(d) for d in den]}


# borel-sl3 over Q(t): h1 acts by t, -1 and t - 1, and [e12, e23] =
# ((t + 1)/t) e13, so the reduced algebra over Q(t)(w1) prints level-2 scalars
BOREL_SL3_QT = {
    "format": "lieshift/1",
    "dim": 5,
    "field": {"tower": [["t"]]},
    "basis": ["h1", "h2", "e12", "e23", "e13"],
    "brackets": [
        {"i": 0, "j": 2, "coeffs": {"e12": _qt((1, "1"))}},
        {"i": 0, "j": 3, "coeffs": {"e23": "-1"}},
        {"i": 0, "j": 4, "coeffs": {"e13": _qt((0, "-1"), (1, "1"))}},
        {"i": 1, "j": 2, "coeffs": {"e12": "-1"}},
        {"i": 1, "j": 3, "coeffs": {"e23": "2"}},
        {"i": 1, "j": 4, "coeffs": {"e13": "1"}},
        {"i": 2, "j": 3, "coeffs": {"e13": _qt((0, "1"), (1, "1"), den=(([1], "1"),))}},
    ],
    "annotations": {
        "nilradical": [
            ["0", "0", "1", "0", "0"], ["0", "0", "0", "1", "0"], ["0", "0", "0", "0", "1"],
        ],
    },
}
FILES = {"aff1-sl2.json": AFF1_SL2, "gl2-v0.json": GL2_V0, "borel-sl3-qt.json": BOREL_SL3_QT}
CASES += [(cmd, "--file", "aff1-sl2.json") for cmd in ("mf", "quantum-mf")]
CASES += [("construct", "--file", "gl2-v0.json"), ("reduce-abelian", "--file", "borel-sl3-qt.json")]


@contextlib.contextmanager
def input_files():
    """A fresh working directory holding FILES, so that the relative path
    the report echoes as its input is the same on every run."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        for name, data in FILES.items():
            with open(os.path.join(d, name), "w") as fh:
                json.dump(data, fh)
        os.chdir(d)
        try:
            yield
        finally:
            os.chdir(cwd)


def run(argv):
    """(exit code, sha256 of stdout) of one in-process ``--json`` call."""
    out = io.StringIO()
    with input_files(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv) + ["--json"])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


GOLDENS = {
    "validate --preset sl2": (0, "31de9511663580824d7038c46c1e960058bbdeb2292be0340af32779afa6b685"),
    "invariants --preset sl2": (0, "b88e1ffe4c1fcab3aa8268f73c40dc2ca0e9b83446711a9ce8942d1fd8f4e7ba"),
    "mf --preset sl2": (0, "50ecd347689981539ca425cd4a00450d8d14d5564e2e5b1b91358d9a3c61f4fc"),
    "quantum-mf --preset sl2": (0, "035ebcecf3f4947ab6cb6671891406170a706fe921875a0d8fac9832e2f24e3d"),
    "hat-check --preset sl2": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "maximality --max-deg 1 --preset sl2": (0, "c744d8530d2b8c41acbd4d412c3e37c5211f8b197b48936b5418ee48ef678aa9"),
    "maximality --max-deg 2 --preset sl2": (0, "47fb70086f887db819266657772487bd9a3dc312a32720345b80170dd943290f"),
    "validate --preset gl2": (0, "b11328a9c6e61f62f3584a0125198b56fb1811cca62e8a406cc4e866bf182e48"),
    "invariants --preset gl2": (0, "c89bce8e2bcb2e646f1a980a1b461aa161e50222313a2b13c5eb4b55057fdedf"),
    "mf --preset gl2": (0, "6b3d2ea55f1a49fa39bd3090de6299ea7bfb2f71199bb37d71ea4b7ee3290896"),
    "quantum-mf --preset gl2": (0, "51dc7de55f1cf163d41501b371d9f8f5f04dc388626150e9709a642c447343d4"),
    "hat-check --preset gl2": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "maximality --max-deg 1 --preset gl2": (0, "1af7d2e26d8ae0cf883b89d509a8645ae9ef970565a63cbd61d3197bb8ee523c"),
    "maximality --max-deg 2 --preset gl2": (0, "0a12637921695d307b53664534a605ca5924f69a60cc8daa97a09695ac8bd3ca"),
    "validate --preset gl3": (0, "808bcc1bdfcb1dc6c5de064c97155324f6c350d5a24961c37139c666dacfb24f"),
    "invariants --preset gl3": (0, "6b93babf3d407d13cad5c7656a4bd3763d613f02af5a437e8bc881447df43c15"),
    "mf --preset gl3": (0, "6f6ed80057da934613a6739ba72d0d1c890c9249a4c230f8bd584eca3ac68e7d"),
    "quantum-mf --preset gl3": (0, "bf12f603293abeff7fca0e9f38c0233c05808814a9ca2c29b824582768c0a0ee"),
    "hat-check --preset gl3": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "maximality --max-deg 1 --preset gl3": (0, "45f666b12aff0a17430269b607550a55f7ddf09c6dd9e67c73dc63ee64b3c87b"),
    "maximality --max-deg 2 --preset gl3": (0, "681155dd52c822f2bbf630fd4b9e882a4e40b94b8ebdedc80b25494a1524f30d"),
    "validate --preset sl3": (0, "91d69e1c8b36542b8a53869a78d2ccd6d4ca1323b341c59ac08f5e6f74e0110e"),
    "invariants --preset sl3": (0, "1b990413184ed97656f26789f7ed612f0df75b6dead103cfc2a36ac36a4939ef"),
    "mf --preset sl3": (0, "3921d8c2adf1a70fe75306a248934139f2796ad61880946aaedd10e1ed681f85"),
    "quantum-mf --preset sl3": (0, "fd1329d13d03dc899bc138c02e8e4c2d444ff448e98103c8e75f214d584eff35"),
    "hat-check --preset sl3": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "maximality --max-deg 1 --preset sl3": (0, "b0e6bfc6107cac5418a47a189a86bba11b6040110f6247996fd5e94c60157cd2"),
    "maximality --max-deg 2 --preset sl3": (0, "5b5da61f8ad1e99d49145a677daf1d865c205a54c40a24e4139c234f6d6f2946"),
    "validate --preset so3": (0, "f866b87c9e00b358b6fb3c00ed473bf54d8dfc9ca0212aaf9b06cddf1cf665a7"),
    "invariants --preset so3": (0, "815c6de3b4044a8b481c4d40666c1408fbb04c1588a46d090dfdd26d0da24be6"),
    "mf --preset so3": (0, "0338f4126ca32dac21eee07c395a54b3b1dee72ab4422a4aa1cfd68693d27201"),
    "quantum-mf --preset so3": (0, "1740c43301f2d573edff2463b6592fdedfe3a451f1f6e7014bc170d165bcd501"),
    "hat-check --preset so3": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "maximality --max-deg 1 --preset so3": (0, "fce9703a7f2ccc1ba7ab0fa959d39a635e849fa98fdeaf2f9921b0e3a694ee96"),
    "maximality --max-deg 2 --preset so3": (0, "412ac59511a0520f27c3783a77c5950ead0ed6008f74cf8a735f140882aced51"),
    "validate --preset so4": (0, "ceb1dadb123e0d25664e69ea070010651e5d83e27562720b70f12eb2434c2eee"),
    "invariants --preset so4": (0, "62ef3d8bf913d101ee2730dcff557dd0d77939af54b20c95957c2f2b6f3e6915"),
    "mf --preset so4": (0, "29da99d995132240a3160d508d085322d7654d7b30eb21d9929293eca8a32585"),
    "quantum-mf --preset so4": (0, "43d7f41b2e39aff375522c556ee2b1d699014beca73427387f3fd555a48a7bfa"),
    "hat-check --preset so4": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "maximality --max-deg 1 --preset so4": (0, "b7920dce7fae013d806ee445db1fde89ed182028c0eb9fbbc36b2a21bc0120f0"),
    "maximality --max-deg 2 --preset so4": (0, "db3d5a2119040518e7c334d16a7714d4440fdb109300bc314de0baa4f851c86e"),
    "validate --preset aff1": (0, "b37aa0c8352ba952728bfad9a8df11af0a7e0f8075ca9b85e374452601ae7a5b"),
    "invariants --preset aff1": (0, "0edf0deb918e8ce4334f613f1c4d80e3601f5ed7b3e4e294ab2630107563613f"),
    "mf --preset aff1": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "quantum-mf --preset aff1": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hat-check --preset aff1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "maximality --max-deg 1 --preset aff1": (0, "20cd4b1dc473d376889ced8ead143ea8412e1f73eeab267979eb1ed1bdb92faf"),
    "maximality --max-deg 2 --preset aff1": (0, "371e310cad0cb614f67711ccad3452d58debeeaebd07a279355959ffa6b22d7e"),
    "validate --preset borel-sl2": (0, "9b5f7a76a1ee46b8be382cabf6f9f8924b2b82a4f0e9ba5f8e4a7184e7be4000"),
    "invariants --preset borel-sl2": (0, "e5dbdc62dc6440b7a811b4f877679f60386f383db0ffd6ed1b2ce53e1e39bff4"),
    "mf --preset borel-sl2": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "quantum-mf --preset borel-sl2": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hat-check --preset borel-sl2": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "maximality --max-deg 1 --preset borel-sl2": (0, "dde0a60936660e633488a0b8fbb4f5001e24d937b7da0d7c665a9b7cb18de572"),
    "maximality --max-deg 2 --preset borel-sl2": (0, "6818b0af416b9a0ca6d53daa4f0486fa3ac0d75ee8607424d2cbc467a614c3e1"),
    "validate --preset borel-sl3": (0, "cca331df6b10dd27c8dc53578d0a248058d4e1b1cb8535ae54e2e9e520597650"),
    "invariants --preset borel-sl3": (0, "b3c68ed6560e48986048affb28ef5622e6b852b18609a762e1a09b8e74414c8e"),
    "mf --preset borel-sl3": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "quantum-mf --preset borel-sl3": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hat-check --preset borel-sl3": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "maximality --max-deg 1 --preset borel-sl3": (0, "5f7bbcd9d5eef2b231372f556a4de7ef2aef84b67045ffbac2177301aa6bed1c"),
    "maximality --max-deg 2 --preset borel-sl3": (0, "23295323db82fc74b1c0a32b2f61f13f6abb6847d00ca8193fbd7196bfc0451e"),
    "validate --preset sl2-semidirect-h3": (0, "e4cfbbe65ac0d4e862eee301c80fb947392b4681758acc9039736e3b218955f0"),
    "invariants --preset sl2-semidirect-h3": (0, "3e25ea94958ffebd0bb0b23d570038390528445aaef31fa4b2fb718676b6e576"),
    "mf --preset sl2-semidirect-h3": (0, "6e1e86b66b26144cc45e5b5d4f6b2d5465715a0ede859215e2070cb23025593e"),
    "quantum-mf --preset sl2-semidirect-h3": (0, "4f31a4c9a6f9adc920b28247ace70b9aff6ce7495d9ae0a691954969f933f864"),
    "hat-check --preset sl2-semidirect-h3": (0, "dac1cc72489e1952986fc1e5334b2127b5fff9b420ddc395a40b94b0154d19bf"),
    "maximality --max-deg 1 --preset sl2-semidirect-h3": (0, "38ec50e9cb7dd2192d9cb53805bae9bef14c30cfa658fd63d0013501379bab33"),
    "maximality --max-deg 2 --preset sl2-semidirect-h3": (0, "bae9954128e41547bedce37098f490de5e21e4f82dccf9bf5a9281bee4d407d9"),
    "validate --preset heisenberg1": (0, "1b2ea8f15a80ec33224c41fb23963f94adeb5d77e806519d2ff681c97f1a3bac"),
    "invariants --preset heisenberg1": (0, "74ba0f74a0d71d2e02d1ab50ea198ad9825aa10e68ec0d93772107a2a0b5e2c8"),
    "mf --preset heisenberg1": (0, "9ee8c933636d3c0ae4b6c2f85f5a072866a31c58355455d780f38cb36011ea6b"),
    "quantum-mf --preset heisenberg1": (0, "87aa44950155bef2e77e3306ef6b4494497a85020313088708eadf7f194691f2"),
    "hat-check --preset heisenberg1": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "maximality --max-deg 1 --preset heisenberg1": (0, "33d52a7c0c85b752edd3a44c6af0103466f59a9e62ed8d29d4fc75f269b4c7fe"),
    "maximality --max-deg 2 --preset heisenberg1": (0, "82dae2370ffaf7d3f2157ae09aea0acdd5a45e21a11d5b2ee276e1c5d5528da6"),
    "validate --preset heisenberg2": (0, "31466731771c40180fb8af8ef2798d6e463ad50e891d8699c932bec99d8f132a"),
    "invariants --preset heisenberg2": (0, "26c503831afc4e0785d367cfa5b8a281b23cc1ab12cf24d2bb2b2f433be519d2"),
    "mf --preset heisenberg2": (0, "52a7b0bac622227d57daa64aab0aec42bfe76c2fa7edb86de77afe3d5d962eeb"),
    "quantum-mf --preset heisenberg2": (0, "ba45ef43e411c0d22e2d67e7229497fac4ae57e297688f53482496de7cd6df36"),
    "hat-check --preset heisenberg2": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "maximality --max-deg 1 --preset heisenberg2": (0, "fffa94cc18c88904cb311ff8f5466e9aef0691dd246d685d3d912753c0ee7185"),
    "maximality --max-deg 2 --preset heisenberg2": (0, "4d935f40c05ed391a1b8998373551cb92379b812ba8ec8beb429523d3bd05fa8"),
    "validate --preset heisenberg4": (0, "c5cad49993c170411f60f431d1dee102fcb9a121cfbfd11c0b5a96d33b8e9b0e"),
    "invariants --preset heisenberg4": (0, "7353b9c6b11a39cfc60bbea7c827e1236392a68e6981bff7d723584b5a7173eb"),
    "mf --preset heisenberg4": (0, "cfa8dc313a75f017e7f681808c5bb79a1a89a164aff6738f90043acd5c299eff"),
    "quantum-mf --preset heisenberg4": (0, "a67b720f4663c9f7f308921c6f15e947c3414a5a04e162f4f68f03b6854395d7"),
    "hat-check --preset heisenberg4": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "maximality --max-deg 1 --preset heisenberg4": (0, "7f8efe890e3512f75de81ab5241965e37467597b4895ebd555444ebb180dac5b"),
    "maximality --max-deg 2 --preset heisenberg4": (0, "c6f427b6d95b30498a2c8bea15f9371893475ea2add3a483a6fff442a83a3f3e"),
    "validate --preset abelian3": (0, "22ad8c7ff2e84e3271b5bde054f372cffe1b30afa19bede9dfecdd75b830509f"),
    "invariants --preset abelian3": (0, "9e94adab2d2ac8ff759be1ec9dbd763e5b540ef672e2c9c2c35655e574d93381"),
    "mf --preset abelian3": (0, "380e5434b3446609f34341425c8daea0c4b8be89720076f5aae2c2a8f5201b52"),
    "quantum-mf --preset abelian3": (0, "a53bc53f0b5fa3f48c29e144a2a17da63220a6ffb16afa662b8988e295024664"),
    "hat-check --preset abelian3": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "maximality --max-deg 1 --preset abelian3": (0, "a57753a3e6bde81b8aead4fef1bb895a1311976a68b7fc7ec16989b8b20ebcb9"),
    "maximality --max-deg 2 --preset abelian3": (0, "96c11d59f0f0ea8385096d5e245ee2016dbed764a3046816071a1ea1e1025ae9"),
    "reproduce-paper-example": (0, "36cd6cc2598b912f865d2e5c5bd4e1d6c2bf101e98f14ca969825e3726e61a00"),
    "reduce-abelian --preset aff1": (0, "8371b18118ca8670fcbb1a8396ba6b7912f28d4965de21253aa7e5dd2d026e1a"),
    "reduce-abelian --preset borel-sl3": (0, "daf18c42cf0ca8539b94ae65c647a202fe8f95574423f0196249c9c539851a6a"),
    "mf --file aff1-sl2.json": (0, "257d91fdf4601df2925f734df4460a1129448797a6ec83ecbdca5bad1b3531b2"),
    "quantum-mf --file aff1-sl2.json": (0, "1ac1b9c5629877e04feef3cda5058d0f1c47780b7bf548c23094b78acd3ff53a"),
    "construct --file gl2-v0.json": (0, "43e778995e1854875a8a2ab3c4d00af99fefbc254083fb7c19fd7595a2497e87"),
    "reduce-abelian --file borel-sl3-qt.json": (0, "6f52adfa9ddcbed094d0c82ace42c0dbf115c5d9169fa4adecc5ed9e83419e83"),
}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_json_golden(argv):
    assert run(argv) == GOLDENS[" ".join(argv)]


def test_goldens_cover_exactly_the_cases():
    assert sorted(GOLDENS) == sorted(" ".join(argv) for argv in CASES)


if __name__ == "__main__" and sys.argv[1:] == ["--print"]:
    for argv in CASES:
        print('    "%s": (%d, "%s"),' % ((" ".join(argv),) + run(argv)))
