"""Exact arithmetic for finite fields GF(p^n) and univariate polynomials.

Field elements are encoded as plain ints in [0, q): the base-p digits of the
encoding, least significant first, are the coefficients of the representative
polynomial in the canonical generator.  For the prime field the encoding is
the residue itself.  A rational function on the line is kept by its user
as a (numerator, denominator) pair of Poly: Poly.multiplicity gives its
valuations at finite places, and Poly.mobius_numerator the numerators left
by a substitution x -> (a x + b)/(c x + d).

Scalar arithmetic reads plain Python lists built once per field: a doubled
exp list (g^k for 0 <= k < 2(q - 1), so a sum of two logs needs no
reduction) and a log list, and for n > 1 a negation list and a Zech-log
list zech[k] = log(1 + g^k), so a + b = g^(log a + zech[log b - log a])
needs no digit loop.  Prime-field addition, subtraction and negation are
plain residues mod p.  Poly arithmetic and Mat.charpoly run on these scalar
ops.  The same encodings fill the numpy arrays behind matrices; Field's
*_array methods do their arithmetic through digit and exp/log gathers, so
no other module knows how an element is stored.

Field construction is deterministic: GF(p^n) always uses the first monic
irreducible of degree n in encoding order, found by a Rabin test on Poly
over GF(p), so two descriptors with equal (p, n) are the same object.
galois_pairing gives the integer pairing of m-th roots of unity that the
Gram matrix of Brauer characters is summed with.
"""

from __future__ import annotations

import math
import random
from functools import cache, cached_property

import numpy as np

from .errors import CapExceeded, Inconsistency, InputError

# Largest field for which exp/log tables are built.  Everything in this
# engine is desk scale; bigger ambients indicate a misconfigured scenario.
TABLE_LIMIT = 1 << 16


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


def totient_mobius(n: int) -> tuple[int, int]:
    """(phi(n), mu(n)): Euler's totient and the Mobius function."""
    phi, mu = n, 1
    for p in prime_factors(n):
        phi = phi // p * (p - 1)
        mu = -mu if n % (p * p) else 0
    return phi, mu


@cache
def galois_pairing(m: int) -> np.ndarray:
    """The m x m integer matrix phi(m) * avg(zeta_m^(j - k)), where avg is
    the average over the Galois group of Q(zeta_m)/Q.  zeta_m^d is a
    primitive m'-th root of unity, m' = m / gcd(m, d), and the average of
    those is mu(m') / phi(m'); phi(m') divides phi(m).  Cached and shared,
    so read-only."""
    phi_m = totient_mobius(m)[0]
    row = []
    for d in range(m):
        phi, mu = totient_mobius(m // math.gcd(m, d))
        row.append(mu * (phi_m // phi))
    out = np.array([[row[(j - k) % m] for k in range(m)] for j in range(m)],
                   dtype=np.int64)
    out.flags.writeable = False
    return out


def _matrix_pow_mod(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a^e over GF(p) for a small square residue matrix a."""
    result = np.eye(len(a), dtype=np.int64)
    while e:
        if e & 1:
            result = result @ a % p
        e >>= 1
        if e:
            a = a @ a % p
    return result


class Field:
    """Descriptor plus arithmetic context for GF(p^n).

    Use Field.make(p, n); construction is cached and deterministic.  The
    modulus is the encoding-least monic irreducible of degree n over GF(p),
    stored as a coefficient tuple low-to-high including the leading 1.
    """

    _cache: dict[tuple[int, int], "Field"] = {}

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.q = p**n
        self.modulus = modulus
        self._powers = tuple(p**i for i in range(n))
        self._build_tables()
        self._embeddings: dict[tuple[int, int], np.ndarray] = {}

    # -- construction -------------------------------------------------

    @classmethod
    def make(cls, p: int, n: int) -> "Field":
        # q against the table limit before is_prime's trial division, which
        # would not end on a huge p; past the clipped exponent, p^n >
        # TABLE_LIMIT for every p >= 2
        clipped = min(n, TABLE_LIMIT.bit_length())
        if p > 1 and p ** clipped > TABLE_LIMIT:
            raise CapExceeded(f"GF({p}^{n}) exceeds the desk-scale table "
                              f"limit TABLE_LIMIT = {TABLE_LIMIT}")
        if not is_prime(p):
            raise InputError(f"characteristic {p} is not prime")
        if n < 1:
            raise InputError(f"field degree {n} must be positive")
        key = (p, n)
        if key not in cls._cache:
            cls._cache[key] = cls(p, n, cls._find_modulus(p, n))
        return cls._cache[key]

    @staticmethod
    def _find_modulus(p: int, n: int) -> tuple[int, ...]:
        if n == 1:
            return (0, 1)
        prime = Field.make(p, 1)
        for low in range(p**n):
            cand = Poly(prime, [low // p**i % p for i in range(n)] + [1])
            if poly_is_irreducible(cand):
                return cand.coeffs
        raise CapExceeded(f"no irreducible of degree {n} over GF({p})")

    def _build_tables(self):
        p, q = self.p, self.q
        # exp/log over the encoding-least multiplicative generator: g has
        # order q - 1 iff g^((q-1)/r) != 1 for every prime r | q - 1
        eye = np.eye(self.n, dtype=np.int64)
        exponents = [(q - 1) // r for r in prime_factors(q - 1)]
        for cand in range(1, q):
            times_g = self._times_matrix(self.digits(cand))
            if all(not np.array_equal(_matrix_pow_mod(times_g, e, p), eye)
                   for e in exponents):
                self.generator = cand
                break
        else:
            raise CapExceeded("no multiplicative generator found")
        # walk the powers once, doubling: rows m..2m-1 are rows 0..m-1
        # times g^m
        digits = np.zeros((q - 1, self.n), dtype=np.int64)
        digits[0, 0] = 1
        m = 1
        while m < q - 1:
            k = min(m, q - 1 - m)
            digits[m:m + k] = digits[:k] @ times_g.T % p
            times_g = times_g @ times_g % p  # now times g^(2m)
            m += k
        self._exp_array = digits @ np.array(self._powers, dtype=np.int64)
        powers = self._exp_array.tolist()
        log = [0] * q  # log[0] is a placeholder: every reader tests for 0
        for k, e in enumerate(powers):
            log[e] = k
        self._exp2 = powers + powers
        self._log = log
        if self.n > 1:
            # -1 = g^((q-1)/2) for odd p, and -a = a in characteristic 2
            half = (q - 1) // 2 if p > 2 else 0
            self._neg = [0] + [self._exp2[k + half] for k in log[1:]]
            # 1 + e adds 1 to the lowest digit of the encoding e; None marks
            # 1 + g^k = 0
            ones = [e - e % p + (e + 1) % p for e in powers]
            self._zech = [log[s] if s else None for s in ones]
        self._log_array = np.array(log, dtype=np.int64)

    def _times_matrix(self, a) -> np.ndarray:
        """(n, n) matrix over GF(p) of multiplication by the element with
        digits a: column i holds a x^i, each column the previous one
        shifted up one digit with the top digit folded back by the
        modulus (x^n = -(m_0 + ... + m_{n-1} x^(n-1)))."""
        p = self.p
        cols = [list(a)]
        for _ in range(self.n - 1):
            v = cols[-1]
            top = v[-1]
            cols.append([(u - top * c) % p
                         for u, c in zip([0] + v[:-1], self.modulus)])
        return np.array(cols, dtype=np.int64).T

    # -- encoding helpers ----------------------------------------------

    def digits(self, a: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.n):
            out.append(a % p)
            a //= p
        return tuple(out)

    def encode(self, digits) -> int:
        total = 0
        for c, w in zip(digits, self._powers):
            total += (c % self.p) * w
        return total

    @cached_property
    def digits_array(self) -> np.ndarray:
        """(q, n) array of base-p digits for every encoded element."""
        return np.arange(self.q)[:, None] // self._powers % self.p

    # -- array arithmetic ------------------------------------------------
    # Arrays of any shape hold encodings.  The prime field works on residues
    # directly; an extension field adds through digits_array and multiplies
    # through the exp/log tables.

    def _residues(self, x: np.ndarray) -> np.ndarray:
        """x mod p, in place to save one allocation per row operation; x
        must be a fresh temporary."""
        x %= self.p
        return x

    def _encode_digits(self, d: np.ndarray) -> np.ndarray:
        """Encodings of a fresh (..., n) digit array, reduced mod p."""
        return self._residues(d) @ np.array(self._powers)

    def add_array(self, a, b) -> np.ndarray:
        if self.n == 1:
            return self._residues(a + b)
        d = self.digits_array
        return self._encode_digits(d[a] + d[b])

    def sub_array(self, a, b) -> np.ndarray:
        if self.n == 1:
            return self._residues(a - b)
        d = self.digits_array
        return self._encode_digits(d[a] - d[b])

    def neg_array(self, a) -> np.ndarray:
        if self.n == 1:
            return self._residues(-a)
        return self._encode_digits(-self.digits_array[a])

    def mul_array(self, a, b) -> np.ndarray:
        """Elementwise product; a and b broadcast like numpy operands."""
        if self.n == 1:
            return self._residues(a * b)
        prod = self._exp_array[
            (self._log_array[a] + self._log_array[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, prod)

    def matmul_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of 2-D encoding arrays.  An extension field multiplies
        digit planes as polynomials in the generator, then folds the
        coefficients of x^(n+t) back through their own digits."""
        p, n = self.p, self.n
        if n == 1:
            return self._residues(a @ b)
        d = self.digits_array
        da, db = d[a], d[b]
        raw = np.zeros((a.shape[0], b.shape[1], 2 * n - 1), dtype=np.int64)
        for s in range(n):
            raw[:, :, s:s + n] += np.tensordot(da[:, :, s], db, axes=(1, 0))
        return self._encode_digits(
            raw[..., :n] + raw[..., n:] % p @ self._high_power_digits)

    @cached_property
    def _high_power_digits(self) -> np.ndarray:
        """Digits of x^(n+t) for t < n - 1; x encodes as p when n > 1."""
        return self.digits_array[
            [self.pow_(self.p, self.n + t) for t in range(self.n - 1)]]

    # -- scalar arithmetic ----------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        # a negative difference indexes from the end: log b - log a mod q-1
        z = self._zech[self._log[b] - la]
        return 0 if z is None else self._exp2[la + z]

    def neg(self, a: int) -> int:
        if self.n == 1:
            return -a % self.p
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        if self.n == 1:
            return (a - b) % self.p
        return self.add(a, self._neg[b])

    def mul(self, a: int, b: int) -> int:
        if a and b:
            return self._exp2[self._log[a] + self._log[b]]
        return 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self._exp2[self.q - 1 - self._log[a]]

    def pow_(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self._exp2[self._log[a] * e % (self.q - 1)]

    def frobenius(self, a: int, iterate: int = 1) -> int:
        """a ** (p ** iterate), computed exactly."""
        if iterate == 0 or a == 0 or self.q == 2:
            return a
        return self.pow_(a, pow(self.p, iterate, self.q - 1))

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        return (self.q - 1) // math.gcd(self._log[a], self.q - 1)

    def rand_elem(self, rng: random.Random) -> int:
        return rng.randrange(self.q)

    def rand_nonzero(self, rng: random.Random) -> int:
        return rng.randrange(1, self.q)

    # -- embeddings ------------------------------------------------------

    def embedding_into(self, target: "Field") -> np.ndarray:
        """Lookup table realizing the canonical ring embedding into target.

        The image of the source generator is the encoding-least root of the
        source modulus in the target field.  Raises InputError unless the
        source degree divides the target degree over the same prime.
        """
        if target.p != self.p:
            raise InputError("embedding requires equal characteristic")
        if target.n % self.n != 0:
            raise InputError(
                f"degree {self.n} does not divide target degree {target.n}")
        key = (target.p, target.n)
        if key in self._embeddings:
            return self._embeddings[key]
        if target is self:
            table = np.arange(self.q, dtype=np.int64)
            self._embeddings[key] = table
            return table
        mod_t = Poly(target, [c % target.p for c in self.modulus])
        roots = poly_roots(mod_t)
        if not roots:
            raise Inconsistency(f"modulus of {self} has no root in {target}")
        r = roots[0]
        powers = [1]
        for _ in range(self.n - 1):
            powers.append(target.mul(powers[-1], r))
        table = np.zeros(self.q, dtype=np.int64)
        for a in range(self.q):
            acc = 0
            for c, rp in zip(self.digits(a), powers):
                acc = target.add(acc, target.mul(c % target.p, rp))
            table[a] = acc
        self._embeddings[key] = table
        return table

    def __repr__(self):
        return f"GF({self.p}^{self.n})" if self.n > 1 else f"GF({self.p})"


def field_make(p: int, n: int) -> Field:
    return Field.make(p, n)


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Dense univariate polynomial over a Field; coefficients are encoded
    ints, low degree first, no trailing zeros.  The zero polynomial has
    degree -1 (the distinguished sentinel)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        if field.n == 1:
            c = [x % field.p for x in coeffs]
        else:
            c = list(coeffs)
            if any(x < 0 or x >= field.q for x in c):
                raise InputError("polynomial coefficient is not a valid "
                                 f"element encoding for {field}")
        while c and c[-1] == 0:
            c.pop()
        self.field = field
        self.coeffs = tuple(c)

    @classmethod
    def _new(cls, field, c: list) -> "Poly":
        """Trusted constructor for results of field arithmetic: c holds
        valid encodings; trailing zeros are trimmed in place."""
        while c and c[-1] == 0:
            c.pop()
        f = object.__new__(cls)
        f.field = field
        f.coeffs = tuple(c)
        return f

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [1])

    @classmethod
    def x(cls, field):
        return cls(field, [0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __add__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = F.add
        out = [add(x, y) for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return Poly._new(F, out)

    def __neg__(self):
        F = self.field
        neg = F.neg
        return Poly._new(F, [neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly._new(F, [])
        out = [0] * (len(a) + len(b) - 1)
        if F.n == 1:
            # integer products, one reduction mod p per coefficient
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b, i):
                        out[j] += ai * bj
            p = F.p
            return Poly._new(F, [c % p for c in out])
        add, mul = F.add, F.mul
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    if bj:
                        out[j] = add(out[j], mul(ai, bj))
        return Poly._new(F, out)

    def scale(self, a: int) -> "Poly":
        F = self.field
        mul = F.mul
        return Poly._new(F, [mul(c, a) for c in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero() or self.leading() == 1:
            return self
        return self.scale(self.field.inv(self.leading()))

    def divmod(self, other: "Poly"):
        b = other.coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        db = len(b) - 1
        top = len(self.coeffs) - 1 - db  # degree of the quotient
        if top < 0:
            return Poly._new(F, []), self
        rem = list(self.coeffs)
        quot = [0] * (top + 1)
        inv_lead = F.inv(b[-1])
        if F.n == 1:
            # rem holds unreduced integers; each leading entry is reduced
            # when it is read, the remainder once at the end
            p = F.p
            b = b[:db]
            for s in range(top, -1, -1):
                c = rem[s + db] * inv_lead % p
                if c:
                    quot[s] = c
                    for i, y in enumerate(b, s):
                        rem[i] -= c * y
            return Poly._new(F, quot), Poly._new(F, [r % p for r in rem[:db]])
        add, mul, neg = F.add, F.mul, F.neg
        nb = [neg(y) for y in b[:db]]
        for s in range(top, -1, -1):
            r = rem[s + db]
            if r:
                c = mul(r, inv_lead)
                quot[s] = c
                for i, y in enumerate(nb, s):
                    if y:
                        rem[i] = add(rem[i], mul(c, y))
        return Poly._new(F, quot), Poly._new(F, rem[:db])

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def multiplicity(self, pi: "Poly") -> int:
        """Largest m with pi^m dividing self; self is nonzero and pi is
        not constant."""
        if self.is_zero() or pi.degree < 1:
            raise InputError("multiplicity needs a nonzero polynomial and a "
                             "nonconstant factor")
        f, m = self, 0
        while True:
            quo, rem = f.divmod(pi)
            if not rem.is_zero():
                return m
            f, m = quo, m + 1

    def mobius_numerator(self, a: int, b: int, c: int, d: int) -> "Poly":
        """(c x + d)^m f((a x + b)/(c x + d)) for f = self of degree m: the
        numerator left by the substitution, by Horner's rule with the
        powers of c x + d carried along."""
        F = self.field
        top, bottom = Poly(F, [b, a]), Poly(F, [d, c])
        acc = Poly._new(F, list(self.coeffs[-1:]))
        power = Poly.one(F)
        for ci in reversed(self.coeffs[:-1]):
            power = power * bottom
            acc = acc * top
            if ci:
                acc = acc + power.scale(ci)
        return acc

    def derivative(self) -> "Poly":
        F = self.field
        mul, p = F.mul, F.p
        return Poly._new(F, [mul(i % p, c)
                             for i, c in enumerate(self.coeffs) if i])

    def powmod(self, e: int, mod: "Poly") -> "Poly":
        result = Poly.one(self.field)
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

    def map_field(self, target: Field) -> "Poly":
        table = self.field.embedding_into(target)
        return Poly(target, [int(table[c]) for c in self.coeffs])

    def sort_key(self):
        return (self.degree, self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{i}" if i else f"{c}")
        return "Poly(" + " + ".join(terms) + f" over {self.field})"


def _pth_root(f: Poly) -> Poly:
    """For f with zero derivative, return g with g(x)^p == f(x)."""
    F = f.field
    p = F.p
    root_exp = F.q // p  # a ** (q/p) is the unique p-th root in GF(q)
    out = []
    for i in range(0, len(f.coeffs), p):
        out.append(F.pow_(f.coeffs[i], root_exp) if f.coeffs[i] else 0)
    return Poly(F, out)


def _radical(f: Poly) -> Poly:
    """The product of the distinct monic irreducible factors of f != 0.

    g / gcd(g, g') carries every factor whose multiplicity in g is prime to
    p; dividing those out fully leaves a p-th power (zero derivative), whose
    p-th root carries the rest."""
    rad = Poly.one(f.field)
    g = f.monic()
    while g.degree > 0:
        gp = g.derivative()
        if gp.is_zero():
            g = _pth_root(g)
            continue
        u = g // g.gcd(gp)
        rad = rad * u
        while u.degree > 0:
            g = g // u
            u = g.gcd(u)
    return rad


def _distinct_degree(f: Poly):
    """Split monic squarefree f into (product of degree-d irreducibles, d),
    yielded in increasing d as each part is found."""
    F = f.field
    x = Poly.x(F)
    h = x
    rest = f
    d = 0
    while rest.degree > 2 * (d + 1) - 1 and rest.degree > 0:
        d += 1
        h = h.powmod(F.q, rest)
        g = rest.gcd(h - x)
        if g.degree > 0:
            yield g, d
            rest = rest // g
            h = h % rest
    if rest.degree > 0:
        yield rest, rest.degree


def _equal_degree_split(f: Poly, d: int, rng: random.Random):
    """Cantor-Zassenhaus: the irreducible factors of f (monic squarefree,
    all factors of degree d), yielded one at a time; each split yields the
    factors of its first part before it splits the second."""
    F = f.field
    if f.degree == d:
        yield f
        return
    while True:
        w = Poly(F, [F.rand_elem(rng) for _ in range(f.degree)])
        if w.degree < 1:
            continue
        if F.p == 2:
            # trace map over GF(2)
            t = Poly.zero(F)
            cur = w % f
            for _ in range(F.n * d):
                t = t + cur
                cur = (cur * cur) % f
            g = f.gcd(t)
        else:
            e = (F.q**d - 1) // 2
            v = w.powmod(e, f) - Poly.one(F)
            g = f.gcd(v)
        if 0 < g.degree < f.degree:
            yield from _equal_degree_split(g, d, rng)
            yield from _equal_degree_split(f // g, d, rng)
            return


def irreducible_factors(f: Poly, rng: random.Random | None = None):
    """The distinct monic irreducible factors of f, in nondecreasing
    degree, found one at a time.

    The squarefree part of f is split by distinct degree, and a part is
    split by seeded Cantor-Zassenhaus only when its first factor is asked
    for, so a caller that stops early pays for the parts it reached."""
    if f.is_zero():
        raise InputError("cannot factor the zero polynomial")
    rng = rng or random.Random(0)
    for part, d in _distinct_degree(_radical(f)):
        yield from _equal_degree_split(part, d, rng)


class FactorStream:
    """The distinct monic irreducible factors of f, in nondecreasing degree,
    found lazily by irreducible_factors and memoized, so that readers of
    divisors of f share them: of(g) reads the factors found so far that
    divide g and factors further only when it asks for more."""

    def __init__(self, f: Poly, rng: random.Random):
        self._source = irreducible_factors(f, rng)
        self._found = []

    def of(self, g: Poly):
        """The distinct irreducible factors of g, a divisor of f, in the
        stream's order."""
        rest, i = g, 0
        while rest.degree > 0:
            if i == len(self._found):
                self._found.append(next(self._source))
            h = self._found[i]
            i += 1
            quo, rem = rest.divmod(h)
            if not rem.is_zero():
                continue
            yield h
            while rem.is_zero():
                rest = quo
                quo, rem = rest.divmod(h)


def poly_factor(f: Poly, rng: random.Random | None = None):
    """Full factorization into monic irreducibles with multiplicities:
    [(Poly, mult)] sorted by (degree, coefficients).  The factors come from
    irreducible_factors, so identical seeds give identical draws."""
    return sorted(((h, f.multiplicity(h))
                   for h in irreducible_factors(f, rng)),
                  key=lambda kv: kv[0].sort_key())


def poly_is_irreducible(f: Poly) -> bool:
    """Rabin's test over GF(q): f of degree n >= 1 is irreducible iff
    x^(q^n) = x mod f and gcd(x^(q^(n/r)) - x, f) = 1 for every prime
    r | n.  x is reduced mod f before the comparison, since for deg f = 1
    the power x^(q^n) mod f is a constant.  Draws nothing."""
    n = f.degree
    if n < 1:
        return False
    q = f.field.q
    x = Poly.x(f.field)
    if x.powmod(q**n, f) != x % f:
        return False
    return all(f.gcd(x.powmod(q ** (n // r), f) - x).degree == 0
               for r in prime_factors(n))


def poly_roots(f: Poly) -> list[int]:
    """Roots of f in its own coefficient field, sorted, with multiplicity."""
    out = []
    for g, mult in poly_factor(f):
        if g.degree == 1:
            out.extend([f.field.neg(g.coeffs[0])] * mult)
    return sorted(out)
