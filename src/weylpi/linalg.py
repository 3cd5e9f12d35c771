"""Exact sparse linear algebra over Q and F_p.

``Echelon`` is the one eliminator: rows are sparse dicts keyed by
arbitrary comparable coordinates, added one at a time, and it keeps the
rank and the pivot rows.  ``row_reduce_sparse`` runs it over a list of
rows, and for the kernel over their transpose.

A row enters through ``Field.integral``, which holds the only scaling:
over F_p a row may hold any ints, reduced mod p as it enters; the pivot
rows are monic, and a row is reduced by subtracting r_c times the pivot
of its leading coordinate c.  Over Q the elimination
is fraction free (Bareiss 1968) and runs on plain ints: a row enters
scaled by the lcm of its denominators, and is reduced by
row <- (l/g)*row - (r_c/g)*pivot, where l is the pivot's leading entry
and g = gcd(l, r_c).  After such a scaled step the row is divided by its
content, and a pivot row is stored primitive with a positive leading
entry, so the entries do not grow from step to step.

The kernel, the vanishing combinations of the input rows, is read from
the transposed matrix: one row per input coordinate, keyed by input row
index.  Any echelon form of it pivots on its first independent columns,
which are the input rows that elimination row by row would make pivots;
back-substitution by the same step leaves each pivot row R_q zero on the
other pivots' leads, so each other input row j gives the vector
{j: 1} + {q: -R_q[j]/R_q[q]}, entered with ``Field.of``: the unique
vanishing combination of row j, with coefficient 1, and the earlier pivot
rows, which are independent.  Scaling a transposed row, as
``Field.integral`` does, scales a column of the input, which leaves the
row dependencies unchanged.  Over Q the vector is the same as elimination
over fractions gives.

The row update row -= r * pivot is the innermost loop of every
elimination, so ``_reduced`` writes it out, once per field kind, instead
of feeding a generator to ``Field.add_into``.
"""

from collections import defaultdict
from math import gcd


class Echelon:
    """Incremental Gaussian elimination on sparse rows.

    Deterministic: the pivot of each row is its minimal coordinate after
    reduction by the earlier pivots.  ``pivots`` maps each pivot coordinate
    to its row, zero on the smaller pivot coordinates, stored monic over
    F_p and as a primitive integer row with a positive leading entry over
    Q (module docstring).
    """

    def __init__(self, field):
        self.field = field
        self.pivots = {}  # coord -> row dict
        self.rank = 0

    def add(self, row):
        """Reduce one row against the pivots; True iff it adds to the rank."""
        F = self.field
        p = F.p
        pivots = self.pivots
        _, row = F.integral(row)
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                break
            row = _reduced(row, c, prow, p)
        if not row:
            return False
        # the loop stopped at c = min(row), a coordinate with no pivot
        if p:
            inv = F.inv(row[c])
            row = {k: F.mul(inv, v) for k, v in row.items()}
        else:
            content = gcd(*row.values())
            if row[c] < 0:
                content = -content
            if content != 1:
                row = {k: v // content for k, v in row.items()}
        pivots[c] = row
        self.rank += 1
        return True


def _reduced(row, c, prow, p):
    """``row`` with its entry at c cleared by the pivot row ``prow``: over
    F_p (``p``, monic pivots) row - r*prow, over Q (p = 0) the fraction-free
    (l/g)*row - (r/g)*prow divided by its content (module docstring)."""
    r, lead = row[c], prow[c]
    if lead != 1:  # over Q only: the pivots over F_p are monic
        g = gcd(lead, r)
        r //= g
        lead //= g
    if lead != 1:
        row = {k: lead * v for k, v in row.items()}
    # row -= r * prow; a coordinate absent from row gets -r * pv,
    # which is nonzero (mod p too), so only a present one can vanish
    get = row.get
    if p:
        for pc, pv in prow.items():
            v = (get(pc, 0) - r * pv) % p
            if v:
                row[pc] = v
            else:
                del row[pc]
    else:
        for pc, pv in prow.items():
            v = get(pc, 0) - r * pv
            if v:
                row[pc] = v
            else:
                del row[pc]
    if lead != 1:
        content = gcd(*row.values())
        if content > 1:
            row = {k: v // content for k, v in row.items()}
    return row


def row_reduce_sparse(rows, field, want_kernel=False):
    """Eliminate ``rows`` in order; returns ``(rank, kernel)``.

    ``rows`` is an iterable of dicts mapping comparable coordinate keys to
    scalars.  ``kernel`` is empty unless ``want_kernel``.  Then it has one
    dict for each row j (by position in ``rows``) that is a combination of
    the rows before it, in increasing j: the nonzero coefficients, by row
    index, of the vanishing combination of row j, with coefficient 1, and
    the earlier rows that are no such combination.  Its keys are j first,
    then the others in increasing index.
    """
    ech = Echelon(field)
    if not want_kernel:
        for row in rows:
            ech.add(row)
        return ech.rank, []
    columns = defaultdict(dict)  # the transpose: coord -> {row index: value}
    nrows = 0
    for i, row in enumerate(rows):
        nrows += 1
        for c, v in row.items():
            columns[c][i] = v
    for c in sorted(columns):
        ech.add(columns[c])
    p = field.p
    pivots = ech.pivots
    leads = sorted(pivots)
    # back-substitute from the last lead up: a later pivot row is already
    # zero on the other leads, so clearing its lead adds none of them
    for t in range(len(leads) - 2, -1, -1):
        row = pivots[leads[t]]
        for s in leads[t + 1 :]:
            if s in row:
                row = _reduced(row, s, pivots[s], p)
        pivots[leads[t]] = row
    kernel = {j: {j: field.one} for j in range(nrows) if j not in pivots}
    for q in leads:
        row = pivots[q]
        lead = row[q]
        for j, v in row.items():
            if j != q:
                kernel[j][q] = field.of(-v, lead)
    return ech.rank, list(kernel.values())
