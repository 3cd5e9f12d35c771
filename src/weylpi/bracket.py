"""Bracket-monomials, their reduction-status hierarchy and the enumeration
of completely reduced monomials per multidegree.

A bracket-monomial is x_{t1}...x_{tl} [x_{r1},x_{s1}]...[x_{rk},x_{sk}]
with l >= 0, k >= 1 and r_i < s_i throughout.  A canonical key is a
``BracketMonomial``, the tuple (prefix, brackets) with brackets sorted by
(s, r), as the rewriter and ``enumerate_completely_reduced`` return it; one
built by hand keeps the order it is given (x2 x1 [x1,x2] keeps x2 x1 and
has status NONE).  Bracket order is immaterial modulo the ideal of known
identities, so any fixed convention is sound.

The completely reduced monomials of a multidegree are built from their
multisets R of r's: R names the key, and exactly the R that pass a ballot
condition occur (the lemma proved in ``enumerate_completely_reduced``).
"""

import enum
from collections import namedtuple

from . import free_algebra


class Status(enum.IntEnum):
    NONE = 0
    SEMI_REDUCED = 1
    REDUCED = 2
    COMPLETELY_REDUCED = 3


def _first_descent(seq):
    """First position i with seq[i] > seq[i + 1], or None."""
    for i in range(len(seq) - 1):
        if seq[i] > seq[i + 1]:
            return i
    return None


def _first_nested(brackets):
    """First positions (u, v) with r_v < r_u < s_u < s_v (brackets s-sorted)."""
    for u in range(len(brackets)):
        ru, su = brackets[u]
        for v in range(u + 1, len(brackets)):
            rv, sv = brackets[v]
            if rv < ru and su < sv:
                return u, v
    return None


def term_order(key):
    """Sort key of a ``(prefix, brackets)`` key: (k, prefix, brackets)."""
    return (len(key[1]), key[0], key[1])


def format_key(prefix, brackets):
    """Text of x_{t1}...x_{tl} [x_{r1},x_{s1}]..., e.g. ``x1 x2 [x1,x3]``."""
    parts = [f"x{t}" for t in prefix]
    parts.extend(f"[x{r},x{s}]" for r, s in brackets)
    return " ".join(parts)


class BracketMonomial(namedtuple("BracketMonomial", "prefix brackets")):
    """The ``(prefix, brackets)`` tuple, checked when built by hand; the
    library wraps the keys it builds with ``_make``, which skips the check."""

    __slots__ = ()

    def __new__(cls, prefix, brackets):
        prefix = tuple(prefix)
        brackets = tuple(tuple(b) for b in brackets)
        if not brackets:
            raise ValueError("a bracket-monomial needs at least one bracket")
        for r, s in brackets:
            if not (1 <= r < s):
                raise ValueError(f"bracket ({r},{s}) needs 1 <= r < s")
        if any(t < 1 for t in prefix):
            raise ValueError("prefix letters are 1-based")
        return super().__new__(cls, prefix, brackets)

    # -- grading and status ------------------------------------------------

    def letters(self):
        out = list(self.prefix)
        for r, s in self.brackets:
            out.extend((r, s))
        return out

    def mdeg(self, nvars=None):
        letters = self.letters()
        return free_algebra.word_mdeg(letters, max(letters) if nvars is None else nvars)

    def status(self):
        t, br = self.prefix, self.brackets
        s_seq = [s for _, s in br]
        if _first_descent(t) is not None or _first_descent(s_seq) is not None:
            return Status.NONE
        if t and t[-1] > s_seq[0]:
            return Status.SEMI_REDUCED
        if _first_nested(br) is not None:
            return Status.REDUCED
        return Status.COMPLETELY_REDUCED

    # -- expansion ---------------------------------------------------------

    def expand(self, field):
        """The 2^k-term free-algebra polynomial with coefficients +-1."""
        words = [(self.prefix, field.one)]
        for r, s in self.brackets:
            nxt = []
            for w, c in words:
                nxt.append((w + (r, s), c))
                nxt.append((w + (s, r), field.neg(c)))
            words = nxt
        nvars = max(self.letters())
        return free_algebra.NCPoly(field, nvars, dict(words))

    def format(self):
        return format_key(self.prefix, self.brackets)

    def __repr__(self):
        return f"BracketMonomial({self.format()})"


def enumerate_completely_reduced(delta):
    """The completely reduced bracket-monomials with letter multiset delta,
    sorted by ``term_order``.  Degrees below 2 admit no bracket and give
    the empty list.

    Lemma.  Fix delta.  A completely reduced key u [x_r1,x_s1]...[x_rk,x_sk]
    (brackets in (s, r) order) is named by its multiset R of r's, and a
    nonempty multiset R within delta occurs iff, for every letter t,
    #{r in R : r >= t} <= #{letters of delta - R greater than t}.

    (a) R determines the key.  In (s, r) order a later bracket (r, s) is
    nested around an earlier (r', s') exactly when r < r' (then s' < s, as
    s' = s forces r' <= r), so the r's run nondecreasing, as the s's do.
    As max u <= s_1, the s's are the k largest letters of delta - R and u
    is the rest, sorted; the brackets pair sorted R with the sorted s's.
    (b) Which R occur.  If R occurs, each r_i >= t is paired with its own
    s_i > t outside R, which gives the inequality.  Conversely, take
    t = r_i: at least k - i + 1 letters of delta - R exceed r_i, and the
    k - i + 1 largest of them are s_i..s_k, so s_i > r_i.  The key built
    as in (a) then has a sorted prefix, nondecreasing r's and s's and
    max u <= s_1, so it is completely reduced.

    The inequality need only hold at the letters present (elsewhere its
    left side is that at the next present letter up, or 0, and its right
    side is no smaller).  The recursion walks the present letters from the
    largest down, making r's of as many copies of each as it allows, so
    zero entries of delta add no depth.
    """
    present = [(l, d) for l, d in enumerate(delta, start=1) if d]
    out = []

    def rec(i, rs, rest):
        # rs, rest: the r's and the other letters of present[i:], ascending
        if not i:
            if rs:
                cut = len(rest) - len(rs)
                out.append(BracketMonomial._make((rest[:cut], tuple(zip(rs, rest[cut:])))))
            return
        l, d = present[i - 1]
        for c in range(min(d, len(rest) - len(rs)) + 1):  # the inequality at l
            rec(i - 1, (l,) * c + rs, (l,) * (d - c) + rest)

    rec(len(present), (), ())
    out.sort(key=term_order)
    return out
