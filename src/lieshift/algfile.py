"""Versioned JSON serialization for structure-constant Lie algebras.

Format tag "lieshift/1".  Scalars are exact: level-0 rationals are
integer-fraction strings ("3", "-1/2"); elements of a rational function
field are {"num": [[exponents, scalar], ...], "den": ...} with the
coefficients one tower level down.  No floats anywhere.
"""

import json
import re
from fractions import Fraction

from .fields import QQ, FieldError
from .liealg import HeisenbergSplit, LieAlgebra, Subspace, validate

FORMAT = "lieshift/1"

# integer or integer fraction, nothing else (no decimals, no exponents)
_RATIONAL = re.compile(r"[+-]?\d+(/[1-9]\d*)?\Z")


class AlgebraFileError(Exception):
    pass


# -- scalars -------------------------------------------------------------


def encode_scalar(c):
    f = c.field
    if f.level == 0:
        p, q = c.as_rational()
        return str(p) if q == 1 else "%d/%d" % (p, q)

    num, den = [[[list(exps), encode_scalar(g)] for exps, g in p] for p in f.nested(c)]
    return {"num": num, "den": den}


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _expect_list(data, what):
    if not isinstance(data, list):
        raise AlgebraFileError("%s must be a list, got %r" % (what, data))
    return data


def decode_scalar(field, data):
    if isinstance(data, str):
        if not _RATIONAL.match(data):
            raise AlgebraFileError(
                "bad rational %r (want an integer-fraction string like -3/2)" % data
            )
        fr = Fraction(data)
        return field.rational(fr.numerator, fr.denominator)
    if _is_int(data):
        return field.from_int(data)
    if not isinstance(data, dict) or set(data) != {"num", "den"}:
        raise AlgebraFileError("bad scalar %r" % (data,))
    if field.level == 0:
        raise AlgebraFileError("function-field scalar but no tower declared")

    def poly(pairs):
        acc = field.zero
        for pair in _expect_list(pairs, "scalar polynomial"):
            if not isinstance(pair, list) or len(pair) != 2:
                raise AlgebraFileError("bad polynomial term %r" % (pair,))
            exps, cdata = pair
            if not isinstance(exps, list) or len(exps) != len(field.variables):
                raise AlgebraFileError("exponent tuple of wrong length")
            if not all(_is_int(e) for e in exps):
                raise AlgebraFileError("non-integer exponent in %r" % (exps,))
            term = field.lift(decode_scalar(field.base, cdata))
            for name, e in zip(field.variables, exps):
                term = term * field.var(name) ** e
            acc = acc + term
        return acc

    den = poly(data["den"])
    if den.is_zero:
        raise AlgebraFileError("zero denominator in scalar")
    return poly(data["num"]) / den


def _encode_vector(v):
    return [encode_scalar(c) for c in v]


def _decode_vector(field, data, dim):
    if not isinstance(data, list) or len(data) != dim:
        raise AlgebraFileError("vector of wrong length: %r" % (data,))
    return tuple([decode_scalar(field, c) for c in data])


# -- whole algebras -------------------------------------------------------


def _encode_field(f):
    levels = []
    g = f
    while g.level > 0:
        levels.append(list(g.variables))
        g = g.base
    return {"tower": list(reversed(levels))}


def _decode_field(data):
    if data is None:
        return QQ
    if not isinstance(data, dict):
        raise AlgebraFileError("field must be an object, got %r" % (data,))
    f = QQ
    try:
        for names in _expect_list(data.get("tower", []), "field tower"):
            if not isinstance(names, list) or not all(
                isinstance(n, str) and n.isidentifier() for n in names
            ):
                raise AlgebraFileError(
                    "tower level must list identifier names, got %r" % (names,)
                )
            f = f.extend(*names)
    except FieldError as e:
        raise AlgebraFileError("bad field tower: %s" % e)
    return f


def dump_algebra(L):
    """JSON-ready dict; inverse of load_algebra."""
    out = {"format": FORMAT, "dim": L.dim, "basis": list(L.labels)}
    if L.field.level > 0:
        out["field"] = _encode_field(L.field)
    brackets = []
    for (i, j) in sorted(L.table):
        coeffs = {
            L.labels[k]: encode_scalar(c) for k, c in sorted(L.table[(i, j)].items())
        }
        brackets.append({"i": i, "j": j, "coeffs": coeffs})
    out["brackets"] = brackets
    ann = {}
    for key, val in L.annotations.items():
        if key == "central":
            ann[key] = sorted(val)
        elif key == "heisenberg_split":
            ann[key] = {
                "l_basis": [_encode_vector(v) for v in val.l_basis.basis],
                "x": [_encode_vector(v) for v in val.x],
                "y": [_encode_vector(v) for v in val.y],
                "z": _encode_vector(val.z),
            }
        elif isinstance(val, Subspace):
            ann[key] = [_encode_vector(v) for v in val.basis]
        else:
            ann[key] = val
    if ann:
        out["annotations"] = ann
    return out


def load_algebra(data, check=True):
    """LieAlgebra from a dict in the lieshift/1 schema.

    check=True also runs the Jacobi/annotation validator and raises on
    failure; the validate command loads with check=False to report instead.
    """
    if not isinstance(data, dict):
        raise AlgebraFileError("top level must be an object")
    if data.get("format") != FORMAT:
        raise AlgebraFileError("unsupported format %r" % data.get("format"))
    labels = data.get("basis")
    dim = data.get("dim")
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise AlgebraFileError("basis must be a list of labels")
    if not _is_int(dim) or dim != len(labels):
        raise AlgebraFileError("dim %r does not match %d labels" % (dim, len(labels)))
    field = _decode_field(data.get("field"))
    index = {lab: k for k, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise AlgebraFileError("duplicate basis labels")
    table = {}
    for entry in _expect_list(data.get("brackets", []), "brackets"):
        if not isinstance(entry, dict) or not {"i", "j", "coeffs"} <= set(entry):
            raise AlgebraFileError("bad bracket entry %r" % (entry,))
        i, j, coeffs = entry["i"], entry["j"], entry["coeffs"]
        if not (_is_int(i) and _is_int(j) and isinstance(coeffs, dict)):
            raise AlgebraFileError("bad bracket entry %r" % (entry,))
        if not (0 <= i < j < dim):
            raise AlgebraFileError("bracket indices (%d, %d) out of range" % (i, j))
        if (i, j) in table:
            raise AlgebraFileError("duplicate bracket entry (%d, %d)" % (i, j))
        row = {}
        for lab, c in coeffs.items():
            if lab not in index:
                raise AlgebraFileError("unknown label %r in bracket coeffs" % lab)
            row[index[lab]] = decode_scalar(field, c)
        table[(i, j)] = row

    def vectors(data, what):
        return [_decode_vector(field, v, dim) for v in _expect_list(data, what)]

    def indices(data, what):
        if not all(_is_int(k) and 0 <= k < dim for k in data):
            raise AlgebraFileError(
                "%s must list basis indices in [0, %d), got %r" % (what, dim, data)
            )
        return list(data)

    annotations = data.get("annotations") or {}
    if not isinstance(annotations, dict):
        raise AlgebraFileError("annotations must be an object, got %r" % (annotations,))
    ann = {}
    for key, val in annotations.items():
        if key == "central":
            ann[key] = frozenset(indices(_expect_list(val, key), key))
        elif key == "heisenberg_split":
            if not isinstance(val, dict) or not {"l_basis", "x", "y", "z"} <= set(val):
                raise AlgebraFileError("bad heisenberg_split annotation")
            ann[key] = HeisenbergSplit(
                l_basis=Subspace(field, dim, vectors(val["l_basis"], "l_basis")),
                x=tuple(vectors(val["x"], "split x")),
                y=tuple(vectors(val["y"], "split y")),
                z=_decode_vector(field, val["z"], dim),
            )
        elif key in ("levi", "nilradical", "solvable_radical"):
            if any(_is_int(v) for v in _expect_list(val, key)):
                ann[key] = indices(val, key)
            else:
                ann[key] = Subspace(field, dim, vectors(val, key))
        else:
            ann[key] = val
    L = LieAlgebra(field, labels, table, ann)
    if check:
        rep = validate(L)
        if not rep.ok:
            msgs = ["jacobi fails on %s" % (t,) for t in rep.jacobi_failures]
            raise AlgebraFileError(
                "algebra fails validation: %s"
                % "; ".join(msgs + rep.annotation_failures)
            )
    return L


def read_algebra(path, check=True):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise AlgebraFileError("cannot read %s: %s" % (path, e))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise AlgebraFileError("malformed JSON in %s: %s" % (path, e))
    except RecursionError:
        raise AlgebraFileError("JSON in %s is nested too deeply" % (path,))
    return load_algebra(data, check=check)


def write_algebra(L, path):
    with open(path, "w") as fh:
        json.dump(dump_algebra(L), fh, indent=2, sort_keys=True)
        fh.write("\n")
