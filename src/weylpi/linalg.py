"""Exact sparse linear algebra over Q and F_p.

``row_reduce_sparse`` is the one eliminator, and it has one route.  It
takes a list of rows, sparse dicts keyed by comparable coordinates, and
eliminates their transpose: one row per input coordinate, keyed by input
row index, taken in sorted coordinate order.  Each transposed row is
reduced by the pivots so far until its least index has no pivot, and
then becomes the pivot there.  Row rank equals column rank, so the rank
is the number of pivots.

The pivots also give the kernel, the vanishing combinations of the input
rows.  Any echelon form of the transpose pivots on its first independent
columns, which are the input rows that are no combination of the rows
before them.  Back-substitution by the same step leaves each pivot row
R_q zero on the other pivots' leads, so each other input row j gives the
vector {j: 1} + {q: -R_q[j]/R_q[q]}: the unique vanishing combination
of row j, with coefficient 1, and the earlier independent rows.  Over Q
it is the vector that elimination over fractions gives.  The entries of
one pivot row repeat a few values, so each distinct value is entered
with ``Field.of`` once and the scalar, which is immutable, is shared.

The entries enter the transpose as they are.  Over F_p they may be any
ints, reduced mod p as they enter, and a zero residue is dropped.  Over Q
an int stays an int, and only a column that holds a zero or a value that
is no int, such as a ``Fraction``, goes through ``Field.integral``.  That
scales the column to ints over a common denominator, which leaves the
rank and the row dependencies unchanged.  The integer rows of the
package (the images, the ideal-span rows) never take that detour.  Over
F_p a pivot row is stored monic, and a row is reduced by subtracting r_c
times the pivot of its leading coordinate c.  Over Q the elimination is
fraction free (Bareiss 1968) and runs on plain ints: a row is reduced by
row <- (l/g)*row - (r_c/g)*pivot, where l is the pivot's leading entry
and g = gcd(l, r_c), and then divided by its content; a pivot row is
stored primitive with a positive leading entry.  So the entries do not
grow from step to step.

The row update row -= r * pivot is the innermost loop of every
elimination, so ``_reduced`` writes it out, once per field kind, instead
of feeding a generator to ``Field.add_into``.
"""

from collections import defaultdict
from math import gcd


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
    """Eliminate the list ``rows`` (module docstring); returns
    ``(rank, kernel)``.

    Each row is a dict mapping comparable coordinate keys to ints, or
    over Q also to ``Fraction`` values; it is not modified.
    ``kernel`` is empty unless ``want_kernel``.  Then it has one dict for
    each row j (by position in ``rows``) that is a combination of the rows
    before it, in increasing j: the nonzero coefficients, by row index, of
    the vanishing combination of row j, with coefficient 1, and the earlier
    rows that are no such combination.  Its keys are j first, then the
    others in increasing index.
    """
    columns = defaultdict(dict)  # the transpose: coord -> {row index: value}
    p = field.p
    scaled = set()  # over Q, the columns that hold a zero or a non-int
    if p:
        for i, row in enumerate(rows):
            for c, v in row.items():
                if v := v % p:
                    columns[c][i] = v
    else:
        for i, row in enumerate(rows):
            for c, v in row.items():
                columns[c][i] = v
                if not v or type(v) is not int:
                    scaled.add(c)
    pivots = {}  # lead index -> pivot row, zero on the smaller leads
    for c in sorted(columns):
        # the transpose is private, so _reduced may update a column in place
        row = field.integral(columns[c])[1] if c in scaled else columns[c]
        while row:
            q = min(row)
            prow = pivots.get(q)
            if prow is None:
                break
            row = _reduced(row, q, prow, p)
        if not row:
            continue
        # the loop stopped at q = min(row), an index with no pivot
        if p:
            inv = pow(row[q], -1, p)
            if inv != 1:
                row = {k: inv * v % p for k, v in row.items()}
        else:
            content = gcd(*row.values())
            if row[q] < 0:
                content = -content
            if content != 1:
                row = {k: v // content for k, v in row.items()}
        pivots[q] = row
    if not want_kernel:
        return len(pivots), []
    leads = sorted(pivots)
    # back-substitute from the last lead up: a later pivot row is already
    # zero on the other leads, so clearing its lead adds none of them
    for t in range(len(leads) - 2, -1, -1):
        row = pivots[leads[t]]
        for s in leads[t + 1 :]:
            if s in row:
                row = _reduced(row, s, pivots[s], p)
        pivots[leads[t]] = row
    kernel = {j: {j: field.one} for j in range(len(rows)) if j not in pivots}
    for q in leads:
        row = pivots[q]
        lead = row[q]
        values = {}  # one scalar per distinct entry: they are immutable
        for j, v in row.items():
            if j != q:
                e = values.get(v)
                if e is None:
                    e = values[v] = field.of(-v, lead)
                kernel[j][q] = e
    return len(pivots), list(kernel.values())
