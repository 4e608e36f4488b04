"""Exact scalar types, exact integer linear algebra and small
number-theoretic utilities.

Heights of rational points and degrees of lattices are half-logarithms
of positive rationals, so we never store them as floats.  `LogLin` holds a
rational linear combination of logarithms of positive rationals: a height
is the one-term `LogLin.from_log(q, 1/2)`, and Newton-polygon slopes are
longer combinations.  Comparisons go through a floating filter and fall
back to exact rational power comparisons only when the filter cannot
decide.

The package's exact linear algebra works on integer matrices and builds no
Fraction; rational matrices are scaled to integers by their callers.
`int_det` and `int_adjugate` use fraction-free (Bareiss) elimination, so
every intermediate entry is an integer minor of the input.  `IntEchelon`
answers "is this row independent of the rows added before it?" one row at
a time; the mu-basis walk that accepts each `geomcurve.CurveMap` and finds
its splitting type, and the minima of `lattice`, ask it that question (the
tests' `int_rank` counts the rows it keeps).

`build_sieve` holds mu as one byte an entry, from `bytes.translate` and
zero slices, with no Python step an entry; its phi, which `tamagawa`'s
prime test reads, is computed on its first read.  `totients` is the one
phi sieve, which the sup P^1 shells call alone, with no mu table.

`Frozen` is the package's immutable value type: a subclass lists its
fields as annotations, with class-level defaults, and gets construction
by position or keyword, `__post_init__`, `==` within its own class, a hash
of the field tuple, the repr `Name(field=value, ...)`, `AttributeError` on
any assignment or deletion, and a per-instance `__dict__` that
`functools.cached_property` and explicit caches write to.  It replaces
`@dataclass(frozen=True)`, which compiles six methods per class with
`exec` at import: over the package's 27 such classes that took 18-31 ms
of a 69-111 ms `import heightlab.cli` (Python 3.11), where `Frozen`
reads the fields once per class and compiles nothing.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cache, cached_property
from itertools import compress
from operator import attrgetter

RatLike = int | Fraction

# Gap below which the float filter refuses to decide a comparison.
_FILTER_EPS = 1e-9


def _to_frac(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _flog(q: Fraction) -> float:
    # math.log accepts arbitrarily large ints, so split the fraction.
    return math.log(q.numerator) - math.log(q.denominator)


class Frozen:
    """Immutable record whose fields are its subclass's annotations.

    `__post_init__` runs once the fields are set; it may check them and
    replace them through `object.__setattr__`.
    """

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        # the field tuple, which ==, hash and repr read; attrgetter returns
        # a bare value for one name
        get = attrgetter(*fields)
        cls._astuple = staticmethod(get if len(fields) > 1
                                    else lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # an index loop: dict.update(zip(...)) first probes the zip for keys
        values = self.__dict__
        for i, name in enumerate(fields):
            values[name] = args[i]
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict):
        """The field values of a call with keywords or defaults."""
        fields = self._fields
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if (len(args) > len(fields) or values.keys() != set(fields)
                or not kwargs.keys().isdisjoint(fields[:len(args)])):
            raise TypeError(f"{type(self).__name__}() takes the fields "
                            f"{fields}, got {len(args)} positional arguments "
                            f"and the keywords {sorted(kwargs)}")
        return [values[f] for f in fields]

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        get = self._astuple
        return get(self) == get(other)

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        body = ", ".join(map("{}={!r}".format, self._fields, self._astuple(self)))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LogLin:
    """Exact linear combination sum_i c_i * log(q_i), c_i rational, q_i > 0.

    Arguments equal to 1 are dropped and repeated arguments merged, so the
    zero element has no terms.  Comparison against another LogLin clears
    denominators and compares a single rational power product against 1,
    guarded by a float filter since hull computations generate many calls.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[Fraction, Fraction]] = ()):
        merged: dict[Fraction, Fraction] = {}
        for arg, coeff in terms:
            arg = _to_frac(arg)
            coeff = _to_frac(coeff)
            if arg <= 0:
                raise ValueError("log argument must be positive")
            if arg == 1 or coeff == 0:
                continue
            if arg in merged:
                merged[arg] += coeff
                if merged[arg] == 0:
                    del merged[arg]
            else:
                merged[arg] = coeff
        self.terms = tuple(sorted(merged.items()))

    @staticmethod
    def _canonical(terms: tuple) -> "LogLin":
        """The LogLin of terms that are already canonical: sorted by
        argument, merged, with no argument 1 and no zero coefficient."""
        out = object.__new__(LogLin)
        out.terms = terms
        return out

    @staticmethod
    def from_log(arg: RatLike, coeff: RatLike = 1) -> "LogLin":
        return LogLin([(_to_frac(arg), _to_frac(coeff))])

    @staticmethod
    def zero() -> "LogLin":
        return LogLin()

    def __add__(self, other: "LogLin") -> "LogLin":
        return LogLin(list(self.terms) + list(other.terms))

    def __sub__(self, other: "LogLin") -> "LogLin":
        return self + (-other)

    def __neg__(self) -> "LogLin":
        return LogLin._canonical(tuple([(a, -c) for a, c in self.terms]))

    def scale(self, k: RatLike) -> "LogLin":
        # negating or scaling by k != 0 keeps the terms canonical
        k = _to_frac(k)
        if not k:
            return LogLin._canonical(())
        return LogLin._canonical(tuple([(a, c * k) for a, c in self.terms]))

    def __mul__(self, k: RatLike) -> "LogLin":
        return self.scale(k)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.sign() == 0

    def sign(self) -> int:
        """Exact sign of the value."""
        if not self.terms:
            return 0
        approx = self.to_float()
        slack = _FILTER_EPS * (1.0 + sum(abs(float(c)) * (1.0 + abs(_flog(a))) for a, c in self.terms))
        if abs(approx) > slack:
            return 1 if approx > 0 else -1
        return self._sign_exact()

    def _sign_exact(self) -> int:
        # Clear denominators: sign(sum n_i log q_i) = sign(prod q_i^{n_i} - 1).
        den = 1
        for _, c in self.terms:
            den = den * c.denominator // math.gcd(den, c.denominator)
        prod = Fraction(1)
        for a, c in self.terms:
            e = int(c * den)
            prod *= a ** e
        if prod == 1:
            return 0
        return 1 if prod > 1 else -1

    def compare(self, other: "LogLin") -> int:
        return (self - other).sign()

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __eq__(self, other):
        if not isinstance(other, LogLin):
            return NotImplemented
        return (self - other).sign() == 0

    def __hash__(self):
        raise TypeError("LogLin is unhashable (equality is semantic)")

    def to_float(self) -> float:
        return sum(float(c) * _flog(a) for a, c in self.terms)

    def __repr__(self):
        if not self.terms:
            return "LogLin(0)"
        parts = " + ".join(f"{c}*log({a})" for a, c in self.terms)
        return f"LogLin({parts})"


# ---------------------------------------------------------------------------
# exact integer linear algebra (Bareiss, Math. Comp. 22, 1968)


def int_det(m) -> int:
    """Determinant of a square integer matrix; 1 for the empty matrix."""
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


class IntEchelon:
    """Integer rows filed under the index of their last nonzero entry, each
    divided by its content.  `add` clears a row's last entry with the kept
    row filed there, by a fraction-free combination, until the row vanishes
    (it depends on the rows added before it) or reaches a free index."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, row) -> bool:
        """Keep `row` and return True unless it depends on the kept rows."""
        row = list(row)
        while row:
            if not row[-1]:
                row.pop()
                continue
            g = math.gcd(*row)
            if g > 1:
                row = [x // g for x in row]
            k = len(row) - 1
            piv = self.rows.get(k)
            if piv is None:
                self.rows[k] = row
                return True
            g = math.gcd(piv[k], row[k])
            a, b = piv[k] // g, row[k] // g
            # entry k cancels, so the row shrinks by one
            row = [a * x - b * y for x, y in zip(row[:k], piv)]
        return False


def int_adjugate(m) -> list:
    """Adjugate of a square integer matrix, from its signed minors:
    adj(M) M = M adj(M) = det(M) I, also when M is singular."""
    n = len(m)
    return [[(-1) ** (i + j) * int_det([row[:i] + row[i + 1:]
                                        for k, row in enumerate(m) if k != j])
             for j in range(n)] for i in range(n)]


class SieveTable(Frozen):
    """Moebius and Euler-phi values for 0..limit (0 at 0)."""

    limit: int
    mu: Sequence
    phi: Sequence

    def mobius(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise ValueError("n out of sieve range")
        return self.mu[n]

    def totient(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise ValueError("n out of sieve range")
        return self.phi[n]


def primes_upto(n: int) -> Iterator[int]:
    """The primes p <= n, from a bytearray sieve of Eratosthenes."""
    flags = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return compress(range(n + 1), flags)


def totients(limit: int) -> list:
    """[phi(0), ..., phi(limit)] (phi(0) = 0) by a linear sieve:
    phi(i p) = phi(i) p if p | i, else phi(i) (p - 1), each composite
    reached once, from its least prime p."""
    phi, primes = [0, 1] + [0] * (limit - 1), []
    for i in range(2, limit + 1):
        if not phi[i]:
            phi[i] = i - 1
            primes.append(i)
        for p in primes:
            if i * p > limit:
                break
            phi[i * p] = phi[i] * (p if i % p == 0 else p - 1)
            if i % p == 0:
                break
    return phi


class _Totients:
    """phi(0..limit) for a `build_sieve` table, from `totients` on the
    first read."""

    def __init__(self, limit: int):
        self.limit = limit

    def __getitem__(self, index):
        return self.values[index]

    @cached_property
    def values(self) -> list:
        return totients(self.limit)


# A sieve byte holds mu(n) in its low two bits (0, 1 = +1, 2 = -1), and in
# its upper six the sum of round(log2 p) over the sieving primes p | n.
# _flip(r) flips the sign of a nonzero byte and adds r to its log; _settle(b)
# turns the byte of an n of bit length b into mu(n) as a signed byte,
# flipped once more where the log leaves room for a prime above the sieve.


@cache
def _flip(r: int) -> bytes:
    return bytes(c and min(63, (c >> 2) + r) << 2 | 3 - (c & 3) for c in range(256))


@cache
def _settle(b: int) -> bytes:
    return bytes(c and (1, 255)[(c & 3 == 2) != (b - (c >> 2) >= 7)] for c in range(256))


def build_sieve(limit: int) -> SieveTable:
    """mu(0..limit) in an `array('b')`; phi is computed on its first read.

    The primes p <= max(sqrt(limit), 4096) flip the sign of their multiples
    and zero the multiples of p^2.  A squarefree n <= limit then has at most
    one prime q above them, which flips mu(n) once more.  Each rounded log
    is off by at most 1/2, and n < 7.4e12 has at most 11 primes, so among
    the n of bit length b the log byte is at least b - 6 without q and at
    most b - 8 with q > 4096.  No Python step runs per entry.
    """
    if limit < 1:
        raise ValueError("sieve limit must be >= 1")
    sieve = bytearray([0]) + bytearray([1]) * limit
    for p in primes_upto(min(limit, max(math.isqrt(limit), 4096))):
        sieve[p::p] = sieve[p::p].translate(_flip(round(math.log2(p))))
        sieve[p * p::p * p] = bytes(len(range(p * p, limit + 1, p * p)))
    for b in range(1, limit.bit_length() + 1):
        block = slice(1 << b - 1, min(1 << b, limit + 1))
        sieve[block] = sieve[block].translate(_settle(b))
    return SieveTable(limit, array("b", sieve), _Totients(limit))


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division; fine for the sizes we use."""
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def zeta(s: int, tol: float = 1e-10) -> float:
    """Riemann zeta at an integer s >= 2 by partial sums plus a bounded tail.

    The tail past N is replaced by its Euler-Maclaurin value
    N^(1-s)/(s-1) - N^(-s)/2 + (s/12) N^(-s-1); the remainder is bounded in
    absolute value by s(s+1)(s+2)/720 * N^(-s-3), and N is chosen so that
    this bound is below tol.
    """
    if s < 2:
        raise ValueError("zeta requires s >= 2")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    rem_const = s * (s + 1) * (s + 2) / 720.0
    n_cut = max(10, int(math.ceil((rem_const / tol) ** (1.0 / (s + 3)))) + 1)
    acc = 0.0
    for n in range(n_cut, 0, -1):
        acc += float(n) ** (-s)
    nf = float(n_cut)
    acc += nf ** (1 - s) / (s - 1) - 0.5 * nf ** (-s) + (s / 12.0) * nf ** (-s - 1)
    return acc
