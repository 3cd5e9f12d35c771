"""Exact scalar arithmetic over Q and over prime fields F_p.

Scalars are plain Python objects: ``Fraction`` over the rationals and
canonical residues (ints in ``[0, p)``) over F_p.  A ``Field`` instance
carries the characteristic and supplies the operations, so every other
module stays agnostic of which field it is working over.

The exact kernels (evaluation, the ideal-span rows, elimination,
rewriting) run on plain ints: the images and the span rows are integer
matrices, the same for every field, which meet the field only as they
enter the eliminator, reduced mod p over F_p and taken as they are over
Q.  ``Field.integral`` is the one place a dict of scalars that may hold
a ``Fraction`` becomes a common denominator and integer numerators, and
``Field.of`` the one place an integer over that denominator becomes a
scalar again.

``fractions`` is imported by the first ``Field(0)``, which binds
``Fraction`` as a module global, so work over F_p alone never loads it.
"""

from math import lcm

from .errors import FieldMismatch


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster 2015: the least strong pseudoprime to all of them
# is 3317044064679887385961981).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin primality test, exact for n < _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} is not decided exactly above {_MR_LIMIT}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Rationals (``p == 0``) or the prime field F_p (``p`` prime)."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, p=0):
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or prime, got {p}")
        self.p = p
        if p == 0:
            global Fraction
            from fractions import Fraction
        # one shared instance each: a Fraction is immutable
        self.zero = Fraction(0) if p == 0 else 0
        self.one = Fraction(1) if p == 0 else 1

    @classmethod
    def rationals(cls):
        return cls(0)

    @classmethod
    def prime(cls, p):
        if p < 2:
            raise ValueError("prime field needs p >= 2")
        return cls(p)

    @classmethod
    def parse(cls, text):
        """Parse the CLI field syntax: ``q`` or ``fp:P``."""
        text = text.strip().lower()
        if text == "q":
            return cls(0)
        if text.startswith("fp:") and text[3:].isascii() and text[3:].isdecimal():
            return cls.prime(int(text[3:]))
        raise ValueError(f"unknown field spec {text!r}; expected 'q' or 'fp:P'")

    # -- construction ------------------------------------------------------

    def of(self, num, den=1):
        """Lift an integer (or num/den pair, or Fraction) into the field."""
        if not isinstance(num, int):  # a Fraction; the int check is the cheap one
            num, den = num.numerator, num.denominator * den
        p = self.p
        if den == 1:  # Fraction(num) skips the gcd, and 1 needs no inverse
            return num % p if p else Fraction(num)
        if not p:
            return Fraction(num, den)
        if den % p == 0:
            raise ZeroDivisionError(f"denominator {den} not invertible mod {p}")
        return num * pow(den, -1, p) % p

    def integral(self, terms):
        """Scale a dict of scalars to integers: ``(den, ints)``, where
        ``ints`` maps the key of each nonzero value v to the int with
        ``of(ints[k], den) == of(v)``.  Over Q ``den`` is the lcm of the
        denominators; over F_p, where the values are ints, it is 1 and
        ``ints`` holds the nonzero residues."""
        p = self.p
        if p:
            return 1, {k: r for k, v in terms.items() if (r := v % p)}
        den = lcm(*(v.denominator for v in terms.values()))
        return den, {k: v.numerator * (den // v.denominator) for k, v in terms.items() if v}

    # -- arithmetic --------------------------------------------------------

    def add(self, a, b):
        return a + b if self.p == 0 else (a + b) % self.p

    def mul(self, a, b):
        return a * b if self.p == 0 else (a * b) % self.p

    def neg(self, a):
        return -a if self.p == 0 else (-a) % self.p

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a if self.p == 0 else pow(a, -1, self.p)

    def add_into(self, terms, pairs):
        """Add each (key, scalar) pair into the dict ``terms`` in place,
        dropping every key whose coefficient becomes zero.  Over F_p a
        scalar may be any int, such as a raw product: each sum is reduced."""
        p = self.p
        for k, v in pairs:
            old = terms.get(k)
            s = v if old is None else old + v
            if p:
                s %= p
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        return terms

    def is_zero(self, a):
        return a == 0

    def format(self, a):
        return str(a)

    # -- identity ----------------------------------------------------------

    def __reduce__(self):
        # a copy or an unpickled field runs __init__, which binds Fraction
        return Field, (self.p,)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Q" if self.p == 0 else f"F{self.p}"


def check_same_field(a, b):
    if a != b:
        raise FieldMismatch(f"{a!r} vs {b!r}")
