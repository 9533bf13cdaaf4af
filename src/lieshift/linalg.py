"""Exact linear algebra over the scalar tower.

A matrix is a list of rows of ``FieldElement``s: ``rank(field, rows)``,
``kernel_basis(field, rows, ncols)`` and ``echelon_basis(field, rows)``.
``rank_mod_prime(rows)`` is the one
elimination on other rows: residues mod ``fields.PRIME``, the sampled
ranks of ``invariants``. ``kernel_of_images(field, images)`` is the
kernel of a map given column by column as sparse images, the one solver of
the bracket kernels: the symmetric invariants, the centralizers in U(q) and
the center. ``_bareiss`` rejects ragged rows and
``Field.clear_row`` an entry that is not an element of ``field``, each with
``FieldError``.

All elimination is one fraction-free (Bareiss) forward pass, ``_bareiss``, on
rows cleared to the numerator ring by ``Field.clear_row``: integers at level
0, polynomials above.
It rescales lazily: a row whose entry in the pivot column is zero is not
rewritten at that step, but brought up to date by one exact division (the
skipped factors telescope) when it is next read, so the tall, sparse
systems of the invariant search rewrite each row only a few times.
``rank`` counts its pivots. ``kernel_basis`` adds back-substitution,
``_back_substitute``, also in the ring: the free variable is set to the
last pivot, so by Cramer's rule the whole kernel vector is a ring row.
A linear system A x = b is a kernel of [A | -b]: its solutions are the
kernel vectors whose last entry is nonzero, read over that entry.
``echelon_basis``, the basis of ``liealg.Subspace``, adds clearing above
each pivot in the ring. ``kernel_basis`` and ``echelon_basis`` normalize
each ring row with ``Field._primitive`` and wrap it over ``Field._lead`` of
its first nonzero entry, so every basis returned here is canonical: above
level 0 its rows are the ones whose first nonzero entry leads with 1.

``rank_mod_prime`` is Gaussian elimination over F_p on ints below p =
2^61 - 1, with one modular inverse per pivot, updating a row only where
the pivot row is nonzero. A matrix of residues of
numerator-ring values has a rank over F_p at most their rank over the
field, so a sampled rank stays a lower bound on the generic one.
"""

from __future__ import annotations

from .fields import PRIME, FieldError


def _bareiss(field, rows, ncols):
    """One-step Bareiss elimination of field rows cleared to the numerator
    ring; returns the eliminated nonzero ring rows and the pivot (row, col) list.

    Rescaling is lazy. With pivots d[0], d[1], ... and d[-1] = 1, the eager
    step k turns each row a under the pivot row b into
    (d[k] * a - head * b) / d[k-1], so a row with a zero head into
    d[k] * a / d[k-1]. Here a zero-head row is left alone and records the
    step t it is current to; the factors it skipped telescope to
    d[k-1] / d[t-1]. It is brought up to date when it is next read: as the
    pivot row of step k it is multiplied by d[k-1] and divided by d[t-1];
    under a nonzero head the factor cancels out of the step, which becomes
    (d[k] * a - head * b) / d[t-1]. Every quotient is the entry of the eager
    form, a minor of the input, so each division is exact, and ``ring_quo``
    still checks it. A zero dividend is not divided: its quotient is 0. In
    particular a column where both rows are zero is skipped. Pivot rows and pivots are the eager ones and the rows
    below the rank are zero; only pivot rows are read.
    """
    if any(len(row) != ncols for row in rows):
        raise FieldError("ragged rows: each row needs %d entries" % ncols)
    rows = [row for row in map(field.clear_row, rows) if any(row)]
    quo = field.ring_quo
    pivots = []
    dens = [field.clear(())[0]]  # dens[t] = d[t-1]; dens[0] is the ring's unit
    step = [0] * len(rows)  # the step each row is current to
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        step[r], step[p] = step[p], step[r]
        row_r = rows[r]
        if step[r] != r:  # catch up to pivot step r
            last, old = dens[r], dens[step[r]]
            row_r = rows[r] = [quo(last * a, old) if a else a for a in row_r]
        piv = row_r[c]
        for i in range(r + 1, nrows):
            row_i = rows[i]
            head = row_i[c]
            if not head:
                continue
            old = dens[step[i]]
            for j in range(c + 1, ncols):
                a, b = row_i[j], row_r[j]
                if not a and not b:
                    continue  # the quotient is 0, and row_i[j] already is
                a = piv * a - head * b
                row_i[j] = quo(a, old) if a else a
            row_i[c] = head - head
            step[i] = r + 1
        pivots.append((r, c))
        dens.append(piv)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(field, rows):
    """The rank of the matrix with these rows."""
    return len(_bareiss(field, rows, len(rows[0]) if rows else 0)[1])


def rank_mod_prime(rows):
    """The rank over F_p, p = ``PRIME``, of rows of ints in range(p), all
    of one length. Each pivot row is scaled to a unit pivot, and a row below
    it is rewritten only at the columns where the scaled pivot row is
    nonzero: the coadjoint forms and Jacobians ranked here are sparse."""
    rows = [list(row) for row in rows if any(row)]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        k = next((i for i in range(r, nrows) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        top = rows[r]
        inv = pow(top[c], -1, PRIME)
        piv = [(j, top[j] * inv % PRIME) for j in range(c + 1, ncols) if top[j]]
        for i in range(r + 1, nrows):
            row = rows[i]
            head = row[c]
            if head:
                for j, b in piv:
                    row[j] = (row[j] - head * b) % PRIME
        r += 1
        if r == nrows:
            break
    return r


def _back_substitute(field, rows, pivots, ncols, free):
    """The ring row v with v[free] = D, the last pivot (1 with none), 0 at the
    other non-pivot columns and row . v = 0 for each eliminated row. D is
    the minor on the pivot columns, so by Cramer's rule each v[c] is a ring
    value and each division is exact; ``ring_quo`` still checks it."""
    unit = field.clear(())[0]
    v = [unit - unit] * ncols
    v[free] = rows[pivots[-1][0]][pivots[-1][1]] if pivots else unit
    for r, c in reversed(pivots):
        row = rows[r]
        s = sum([v[j] * row[j] for j in range(c + 1, ncols) if v[j] and row[j]])
        if s:
            v[c] = field.ring_quo(-s, row[c])
    return v


def kernel_basis(field, rows, ncols):
    """Canonical right-kernel basis: one primitive vector per free column,
    on the line of the kernel vector with unit entry at that column."""
    ring, pivots = _bareiss(field, rows, ncols)
    pivot_cols = {c for _, c in pivots}
    primitive = field._primitive
    return [
        list(_from_ring_row(field, primitive(_back_substitute(field, ring, pivots, ncols, f))))
        for f in range(ncols)
        if f not in pivot_cols
    ]


def kernel_of_images(field, images):
    """``kernel_basis`` of the matrix whose column j is the sparse image
    images[j], a {row key: FieldElement} dict with absent keys 0. Rows are
    the keys in first-seen order; a kernel basis depends only on the row
    space and the column order, so that order is free. With no keys every
    unit vector is in the kernel."""
    index = {}
    for image in images:
        for key in image:
            index.setdefault(key, len(index))
    rows = [[field.zero] * len(images) for _ in index]
    for j, image in enumerate(images):
        for key, c in image.items():
            rows[index[key]][j] = c
    return kernel_basis(field, rows, len(images))


def echelon_basis(field, rows):
    """Reduced-echelon basis of the span of ``rows``, its pivot columns, and
    the basis as primitive numerator-ring rows, each over ``Field._lead``
    of its pivot entry.

    Basis row i is the only one nonzero at column ``pivots[i]``; each row is
    normalized, so a span has one basis. Zero entries share one element.
    """
    if not rows:
        return [], [], []
    ring, pivots = _bareiss(field, rows, len(rows[0]))
    for r, c in reversed(pivots):
        row = ring[r] = field._primitive(ring[r])
        for i in range(r):
            head = ring[i][c]
            if head:
                ring[i] = [row[c] * a - head * b for a, b in zip(ring[i], row)]
    ring = [ring[r] for r, _ in pivots]
    return [_from_ring_row(field, row) for row in ring], [c for _, c in pivots], ring


def _from_ring_row(field, row):
    """The basis row of the line of a primitive ring row: each entry over
    ``Field._lead`` of the first nonzero one."""
    lead = field._lead(next(a for a in row if a))
    zero = field.zero  # one shared element for the (many) zero entries
    return tuple([field.from_cleared(a, lead) if a else zero for a in row])
