"""Exact sparse linear algebra over Q and F_p.

``Echelon`` is the one eliminator: rows are sparse dicts keyed by
arbitrary comparable coordinates, added one at a time, and it keeps the
rank and, on request, a basis of the vanishing row combinations.
``row_reduce_sparse`` runs it over a list of rows.
"""


class Echelon:
    """Incremental Gaussian elimination on sparse rows.

    Deterministic: the pivot of each row is its minimal coordinate after
    reduction by the earlier pivots.  With ``want_kernel`` each row that
    reduces to zero adds to ``kernel`` a dict mapping row indices (in the
    order of ``add``) to the coefficients of a vanishing combination; it
    has coefficient 1 on its own row, which is its largest index, and its
    other entries are rows that became pivots.
    """

    def __init__(self, field, want_kernel=False):
        self.field = field
        self.want_kernel = want_kernel
        self.pivots = {}  # coord -> (row dict, aug dict)
        self.kernel = []
        self.rank = 0
        self.nrows = 0  # rows added so far

    def add(self, row):
        """Reduce one row against the pivots; True iff it adds to the rank."""
        F = self.field
        pivots = self.pivots
        row = {c: v for c, v in row.items() if not F.is_zero(v)}
        aug = {self.nrows: F.one} if self.want_kernel else None
        self.nrows += 1
        while row:
            c = min(row)
            if c not in pivots:
                break
            prow, paug = pivots[c]
            factor = F.neg(row[c])
            # add_into reduces the sums mod p, so the products need not be
            F.add_into(row, ((pc, factor * pv) for pc, pv in prow.items()))
            if aug is not None:
                F.add_into(aug, ((pc, factor * pv) for pc, pv in paug.items()))
        if not row:
            if aug is not None:
                self.kernel.append(aug)
            return False
        c = min(row)
        inv = F.inv(row[c])
        row = {k: F.mul(inv, v) for k, v in row.items()}
        if aug is not None:
            aug = {k: F.mul(inv, v) for k, v in aug.items()}
        pivots[c] = (row, aug)
        self.rank += 1
        return True


def row_reduce_sparse(rows, field, want_kernel=False):
    """Eliminate ``rows`` in order; returns ``(rank, kernel)``.

    ``rows`` is an iterable of dicts mapping comparable coordinate keys to
    scalars; ``kernel`` is as in ``Echelon`` (empty unless ``want_kernel``).
    """
    ech = Echelon(field, want_kernel)
    for row in rows:
        ech.add(row)
    return ech.rank, ech.kernel
