"""Exact sparse linear algebra over Q and F_p.

``Echelon`` is the one eliminator: rows are sparse dicts keyed by
arbitrary comparable coordinates, added one at a time, and it keeps the
rank and, on request, a basis of the vanishing row combinations.
``row_reduce_sparse`` runs it over a list of rows.

A row enters through ``Field.integral``, which holds the only scaling:
over F_p a row may hold any ints, reduced mod p as it enters; the pivot
rows are monic, and a row is reduced by subtracting r_c times the pivot
of its leading coordinate c.  Over Q the elimination
is fraction free (Bareiss 1968) and runs on plain ints: a row enters
scaled by the lcm of its denominators, and is reduced by
row <- (l/g)*row - (r_c/g)*pivot, where l is the pivot's leading entry
and g = gcd(l, r_c).  After such a scaled step the row is divided by the
content it shares with its augmented part, and a pivot row is stored
primitive in the same sense with a positive leading entry, so the entries
do not grow from step to step.  The augmented part (the row's coefficients
over the input rows) starts at the entry scale and takes every multiplier
and division of the row, so a row always equals the combination its
augmented part names.  A row that reduces to zero gives the kernel vector
aug / aug[own row], entered with ``Field.of``: the unique vanishing
combination of its own row, with coefficient 1, and the earlier pivot rows,
which are independent.  Over Q it is the same as elimination over fractions
gives.

The row update row -= r * pivot is the innermost loop of every
elimination, so ``add`` writes it out, once per field kind, instead of
feeding a generator to ``Field.add_into``; the augmented part, which is
short, keeps ``add_into``.
"""

from math import gcd


class Echelon:
    """Incremental Gaussian elimination on sparse rows.

    Deterministic: the pivot of each row is its minimal coordinate after
    reduction by the earlier pivots.  With ``want_kernel`` each row that
    reduces to zero adds to ``kernel`` a dict mapping row indices (in the
    order of ``add``) to the coefficients of a vanishing combination; it
    has coefficient 1 on its own row, which is its largest index, and its
    other entries are rows that became pivots.  Pivot rows are stored
    monic over F_p and as integer rows over Q (module docstring).
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
        p = F.p
        pivots = self.pivots
        scale, row = F.integral(row)
        own = self.nrows
        aug = {own: scale} if self.want_kernel else None
        self.nrows += 1
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                break
            prow, paug = pivot
            r, lead = row[c], prow[c]
            if lead != 1:  # over Q only: the pivots over F_p are monic
                g = gcd(lead, r)
                r //= g
                lead //= g
            if lead != 1:
                row = {k: lead * v for k, v in row.items()}
                if aug is not None:
                    aug = {k: lead * v for k, v in aug.items()}
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
            if aug is not None:
                # add_into reduces the sums mod p, so the products need not be
                F.add_into(aug, ((pc, -r * pv) for pc, pv in paug.items()))
            if lead != 1:
                content = gcd(*row.values(), *(aug.values() if aug else ()))
                if content > 1:
                    row, aug = _divided(row, aug, content)
        if not row:
            if aug is not None:
                s = aug[own]
                self.kernel.append({k: F.of(v, s) for k, v in aug.items()})
            return False
        # the loop stopped at c = min(row), a coordinate with no pivot
        if p:
            inv = F.inv(row[c])
            row = {k: F.mul(inv, v) for k, v in row.items()}
            if aug is not None:
                aug = {k: F.mul(inv, v) for k, v in aug.items()}
        else:
            content = gcd(*row.values(), *(aug.values() if aug else ()))
            if row[c] < 0:
                content = -content
            if content != 1:
                row, aug = _divided(row, aug, content)
        pivots[c] = (row, aug)
        self.rank += 1
        return True


def _divided(row, aug, content):
    """A row and its augmented part (or None) divided exactly by content."""
    row = {k: v // content for k, v in row.items()}
    if aug is not None:
        aug = {k: v // content for k, v in aug.items()}
    return row, aug


def row_reduce_sparse(rows, field, want_kernel=False):
    """Eliminate ``rows`` in order; returns ``(rank, kernel)``.

    ``rows`` is an iterable of dicts mapping comparable coordinate keys to
    scalars; ``kernel`` is as in ``Echelon`` (empty unless ``want_kernel``).
    """
    ech = Echelon(field, want_kernel)
    for row in rows:
        ech.add(row)
    return ech.rank, ech.kernel
