"""Exact sparse linear algebra over Q and F_p.

``row_reduce_sparse`` is the one eliminator: rows are sparse dicts keyed by
arbitrary comparable coordinates, and it yields the rank and, on request,
a basis of the vanishing row combinations.
"""


def row_reduce_sparse(rows, field, want_kernel=False):
    """Incremental Gaussian elimination on sparse rows.

    ``rows`` is an iterable of dicts mapping comparable coordinate keys to
    scalars.  Returns ``(rank, kernel)`` where ``kernel`` is a list of dicts
    mapping row indices to coefficients of a vanishing combination (empty
    unless ``want_kernel``).  Deterministic: rows are consumed in order and
    the pivot of each row is its minimal coordinate.  Each kernel vector
    has coefficient 1 on its own row, which is its largest index; its other
    entries are rows that became pivots.
    """
    F = field
    pivots = {}  # coord -> (row dict, aug dict)
    kernel = []
    rank = 0
    for idx, row in enumerate(rows):
        row = {c: v for c, v in row.items() if not F.is_zero(v)}
        aug = {idx: F.one} if want_kernel else None
        while row:
            c = min(row)
            if c not in pivots:
                break
            prow, paug = pivots[c]
            factor = F.neg(row[c])
            F.add_into(row, ((pc, F.mul(factor, pv)) for pc, pv in prow.items()))
            if want_kernel:
                F.add_into(aug, ((pc, F.mul(factor, pv)) for pc, pv in paug.items()))
        if row:
            c = min(row)
            inv = F.inv(row[c])
            row = {k: F.mul(inv, v) for k, v in row.items()}
            if want_kernel:
                aug = {k: F.mul(inv, v) for k, v in aug.items()}
            pivots[c] = (row, aug)
            rank += 1
        elif want_kernel:
            kernel.append(aug)
    return rank, kernel
