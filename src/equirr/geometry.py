"""Geometry substrate for the projective line over GF(q): places and
divisors, the Mobius action on closed points, ramification filtrations of a
PGL2 group action with their cotangent characters, and Riemann-Roch spaces
carrying the group action.

Conventions.  The group acts on points by Mobius transformations and on
functions by sigma . f = f o sigma^{-1}; all local data (filtrations,
cotangent scalars, residue actions) are computed in that same convention,
which is what makes the oracle and the closed formulas land in the same
classes.  Places move over k, by substituting sigma^{-1} into the place
polynomial; the local data of a place P are computed in its residue field
k(P) = GF(q^deg P), at rho, the first root of P there, so a place of degree
d needs only GF(q^d).
"""

from __future__ import annotations

import math

from .errors import CapExceeded, Inconsistency, InputError
from .fields import (Field, Poly, field_make, poly_factor,
                     poly_is_irreducible, poly_roots)
from .groups import FiniteGroup, _p_part
from .matrices import Mat
from .reps import Rep

INF_POINT = "inf"  # geometric point at infinity (encodings are ints)
# Largest dim L(D) the oracle builds.  On a 2-vCPU desk machine, the order-3
# translations over GF(3) with D = (c-1) inf (dim L(D) = c) take, for
# `euler` and `check`: c = 400, 0.5 s and 1.0 s; c = 512, 1.1 s and 2.0 s;
# c = 801, 2.5 s for `euler`.  The cost grows as c^3 and beyond (c = 1501
# took over a minute), and each int64 matrix takes 8 c^2 bytes.  The
# largest L(D) of a shipped scenario, workload or test has dim 121.
RR_DIM_CAP = 512


class Place:
    """A closed point of P^1 over GF(q): the symbol at infinity or a monic
    irreducible polynomial; infinity sorts before every finite place."""

    __slots__ = ("poly", "degree")

    def __init__(self, poly: Poly | None, check: bool = True):
        if poly is None:
            self.poly = None
            self.degree = 1
            return
        if check:
            if poly.leading() != 1 or not poly_is_irreducible(poly):
                raise InputError(
                    f"place polynomial must be monic irreducible: {poly!r}")
        self.poly = poly
        self.degree = poly.degree

    @classmethod
    def infinity(cls) -> "Place":
        return cls(None)

    @property
    def is_infinity(self) -> bool:
        return self.poly is None

    def sort_key(self):
        if self.is_infinity:
            return (0, 0, ())
        return (1, self.degree, self.poly.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Place):
            return False
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.poly == other.poly

    def __hash__(self):
        return hash(("place", None if self.is_infinity else self.poly))

    def to_json(self):
        return "inf" if self.is_infinity else list(self.poly.coeffs)

    def __repr__(self):
        return "Place(inf)" if self.is_infinity else f"Place({self.poly!r})"


class Divisor:
    """Integer-weighted formal sum of places; zero coefficients absent."""

    __slots__ = ("data",)

    def __init__(self, data: dict[Place, int]):
        self.data = {p: int(c) for p, c in data.items() if c}

    def coeff(self, p: Place) -> int:
        return self.data.get(p, 0)

    def degree(self) -> int:
        return sum(c * p.degree for p, c in self.data.items())

    def support(self) -> list[Place]:
        return sorted(self.data, key=Place.sort_key)

    def items(self):
        return [(p, self.data[p]) for p in self.support()]

    def __eq__(self, other):
        return isinstance(other, Divisor) and self.data == other.data

    def to_json(self):
        return [[p.to_json(), c] for p, c in self.items()]

    def __repr__(self):
        return "Divisor(" + " + ".join(
            f"{c}*{p!r}" for p, c in self.items()) + ")" if self.data \
            else "Divisor(0)"


# ---------------------------------------------------------------------------


class PowerBasisCoords:
    """k-linear coordinates in a field generated over k by beta (a residue
    field k(P) and its point rho), relative to the power basis
    {beta^i : i < deg}."""

    def __init__(self, k: Field, kP: Field, beta: int, deg: int):
        self.k = k
        self.kP = kP
        self.deg = deg
        fp = field_make(k.p, 1)
        self.fp = fp
        emb = k.embedding_into(kP)
        self.beta_powers = [1]
        for _ in range(deg - 1):
            self.beta_powers.append(kP.mul(self.beta_powers[-1], beta))
        cols = []
        for i in range(deg):
            for t in range(k.n):
                val = kP.mul(int(emb[k.p**t]), self.beta_powers[i])
                cols.append(kP.digits(val))
        # (kP.n, deg*k.n): the digits of kP as GF(p) coordinates
        self.mat = Mat.from_rows(fp, cols).T

    def coords(self, z: int):
        """k-coordinates of z, or None if z is outside k(beta)."""
        rhs = Mat.column(self.fp, self.kP.digits(z))
        sol = self.mat.solve(rhs)
        if sol is None:
            return None
        out = []
        for i in range(self.deg):
            digits = [sol.get(i * self.k.n + t, 0) for t in range(self.k.n)]
            out.append(self.k.encode(digits))
        return out


# ---------------------------------------------------------------------------


class RamificationDatum:
    """Per-place package: decomposition and inertia groups, filtration
    sizes, ramification indices, residue data and the cotangent character
    realized over the canonical residue field.  G_P, I_P and wild are
    subgroups of group (G.subgroup); char and cocycle are keyed by element
    indices of group."""

    def __init__(self, *, group: FiniteGroup, k: Field, place,
                 G_P: FiniteGroup, I_P: FiniteGroup, wild: FiniteGroup,
                 filtration: list[int], deg: int, orbit_size: int,
                 kP: Field, rho: int, char: dict[int, int],
                 cocycle: dict[int, tuple[int, int]] | None):
        self.group = group
        self.k = k
        self.place = place
        self.G_P = G_P
        self.I_P = I_P
        self.wild = wild
        self.filtration = filtration
        self.deg = deg
        self.orbit_size = orbit_size
        self.kP = kP
        self.rho = rho
        self.char = char
        self.cocycle = cocycle
        self.e = filtration[0]
        self.e_w = filtration[1] if len(filtration) > 1 else 1
        self.e_t = self.e // self.e_w
        self.f = G_P.order // I_P.order
        if deg % self.f:
            raise Inconsistency("residual degree does not divide the place "
                                "degree")
        self.residue_deg = deg // self.f
        self._coords = PowerBasisCoords(k, kP, rho, deg)
        self._cot_cache: dict[int, Rep] = {}
        self._validate()

    # -- validation of the spec invariants --------------------------------

    def _validate(self):
        G = self.group
        if self.e != self.I_P.order:
            raise Inconsistency("e differs from the inertia order")
        if self.wild.order != self.e_w:
            raise Inconsistency("wild subgroup order differs from e_w")
        if any(a < b for a, b in zip(self.filtration, self.filtration[1:])):
            raise Inconsistency("ramification filtration must decrease")
        if _p_part(self.e_w, self.k.p) != self.e_w:
            raise Inconsistency("wild inertia is not a p-group")
        # character: homomorphism on I_P, kernel exactly wild, order e_t
        inertia = self.I_P.positions_in(G)
        wild_set = set(self.wild.positions_in(G))
        orders = set()
        for s in inertia:
            a = self.char[s]
            if a == 0:
                raise Inconsistency("cotangent scalar is zero")
            if (a == 1) != (s in wild_set):
                raise Inconsistency("cotangent kernel is not the wild group")
            if a != 1:
                orders.add(self.kP.element_order(a))
        image_order = math.lcm(*orders) if orders else 1
        if image_order != self.e_t:
            raise Inconsistency("cotangent character order differs from e_t")
        for s in inertia:
            for t in inertia:
                st = G.table[s][t]
                if self.kP.mul(self.char[s], self.char[t]) != self.char[st]:
                    raise Inconsistency("cotangent character is not a "
                                        "homomorphism")
        if self.cocycle is not None:
            decomposition = self.G_P.positions_in(G)
            for s in decomposition:
                js, bs = self.cocycle[s]
                for t in decomposition:
                    jt, bt = self.cocycle[t]
                    st = G.table[s][t]
                    jst, bst = self.cocycle[st]
                    twisted = self.kP.mul(
                        self.kP.frobenius(bt, self.k.n * js), bs)
                    if bst != twisted:
                        raise Inconsistency("cocycle identity fails")
                    if jst != (js + jt) % self.deg:
                        raise Inconsistency("residue actions do not compose")

    # -- derived data -------------------------------------------------------

    @property
    def is_ramified(self) -> bool:
        return self.e > 1

    @property
    def is_tame_here(self) -> bool:
        return self.e_w == 1

    @property
    def is_weak_here(self) -> bool:
        return len(self.filtration) <= 2 or self.filtration[2] == 1

    @property
    def orbit_different_degree(self) -> int:
        """The orbit's Riemann-Hurwitz term, the degree of its different:
        orbit size * deg P * sum_s (|G_{P,s}| - 1)."""
        local = sum(size - 1 for size in self.filtration)
        return self.orbit_size * self.deg * local

    def _mult_matrix(self, scalar: int, frob_steps: int = 0) -> Mat:
        """Matrix over k of z -> frobenius^steps(z) * scalar on kP in the
        power basis of rho."""
        cols = []
        for i in range(self.deg):
            z = self._coords.beta_powers[i]
            if frob_steps:
                z = self.kP.frobenius(z, self.k.n * frob_steps)
            z = self.kP.mul(z, scalar)
            cs = self._coords.coords(z)
            if cs is None:
                raise Inconsistency("residue image left the power basis")
            cols.append(cs)
        rows = [[cols[j][i] for j in range(self.deg)]
                for i in range(self.deg)]
        return Mat.from_rows(self.k, rows)

    def cotangent_power(self, d: int) -> Rep:
        """(m_P/m_P^2)^{tensor d} as a k-representation of the inertia
        group; tensor powers are over the residue field, so the dimension
        stays [k(P):k] for every d."""
        if d not in self._cot_cache:
            in_G = self.I_P.positions_in(self.group)
            images = {}
            for t, g in enumerate(self.I_P.generators):
                a = self.char[in_G[g]]
                images[t] = self._mult_matrix(self.kP.pow_(a, d))
            rep = Rep(self.I_P, self.k, self.deg, images)
            rep.check_homomorphism()
            self._cot_cache[d] = rep
        return self._cot_cache[d]

    def decomposition_line_rep(self, d: int) -> Rep:
        """(m_P/m_P^2)^{tensor d} as a k-representation of the full
        decomposition group (semilinear residue action plus cocycle);
        available only for geometric data."""
        if self.cocycle is None:
            raise InputError("decomposition-line data needs a geometric "
                             "ramification datum")
        in_G = self.G_P.positions_in(self.group)
        images = {}
        for t, g in enumerate(self.G_P.generators):
            j, b = self.cocycle[in_G[g]]
            images[t] = self._mult_matrix(self.kP.pow_(b, d), frob_steps=j)
        rep = Rep(self.G_P, self.k, self.deg, images)
        rep.check_homomorphism()
        return rep

    def place_json(self):
        """The place as reports show it: a Place's JSON form, or the label
        of an abstract orbit."""
        return (self.place.to_json() if isinstance(self.place, Place)
                else str(self.place))

    def to_json(self):
        # field elements serialize as the GF(p) coefficient lists of their
        # representative polynomials
        values = [[s, list(self.kP.digits(a))]
                  for s, a in sorted(self.char.items())]
        return {
            "place": self.place_json(),
            "degree": self.deg,
            "orbit_size": self.orbit_size,
            "e": self.e, "e_tame": self.e_t, "e_wild": self.e_w,
            "f": self.f,
            "filtration": list(self.filtration),
            "cotangent_values": values,
            "weakly_ramified": self.is_weak_here,
        }


def fiber_character(datum: RamificationDatum, n: int) -> Rep:
    """Fiber of L(D) at the place as an inertia representation: the
    (-n)-th cotangent power."""
    return datum.cotangent_power(-n)


# ---------------------------------------------------------------------------


class P1Geometry:
    """The projective line over k with a PGL2 action: orbits, ramification
    data, Riemann-Hurwitz audit, Riemann-Roch spaces and their action."""

    def __init__(self, k: Field, G: FiniteGroup):
        if G.kind != "pgl2":
            raise InputError("geometry needs a PGL2 matrix group")
        if G.field is not k:
            raise InputError("group matrices are over a different field")
        self.k = k
        self.G = G
        self._mats: dict[tuple[Field, int], tuple] = {}
        self._root_cache: dict[Place, int] = {}
        self._datum_cache: dict[Place, RamificationDatum] = {}
        self._mobius_cache: dict[tuple[int, Place], Place] = {}
        self._orbit_cache: dict[Place, list[Place]] = {}
        self._ramified: list[Place] | None = None
        self._ramified_orbits: list[list[Place]] | None = None

    # -- points -------------------------------------------------------------

    def residue_field(self, P: Place) -> Field:
        """k(P) = GF(q^deg P)."""
        return field_make(self.k.p, self.k.n * P.degree)

    def _matrix_in(self, F: Field, sigma: int):
        """The label (a, b, c, d) of sigma embedded in an extension F of
        k."""
        key = (F, sigma)
        if key not in self._mats:
            emb = self.k.embedding_into(F)
            self._mats[key] = tuple(int(emb[x]) for x in self.G.labels[sigma])
        return self._mats[key]

    def mobius_point(self, F: Field, sigma: int, x):
        """Image of a point of P^1(F) (encoding or INF_POINT) under
        sigma."""
        a, b, c, d = self._matrix_in(F, sigma)
        if x == INF_POINT:
            if c == 0:
                return INF_POINT
            return F.mul(a, F.inv(c))
        den = F.add(F.mul(c, x), d)
        if den == 0:
            return INF_POINT
        num = F.add(F.mul(a, x), b)
        return F.mul(num, F.inv(den))

    def place_root(self, P: Place):
        """rho, the first root of P in its residue field (INF_POINT at
        infinity): the geometric point at which the local data of P are
        computed."""
        if P.is_infinity:
            return INF_POINT
        if P not in self._root_cache:
            roots = poly_roots(P.poly.map_field(self.residue_field(P)))
            if not roots:
                raise Inconsistency("place has no root in its residue field")
            self._root_cache[P] = roots[0]
        return self._root_cache[P]

    def mobius_on_place(self, sigma: int, P: Place) -> Place:
        """sigma(P): a finite P goes to the monic form of
        (C x + D)^deg P pi_P((A x + B) / (C x + D)) for sigma^{-1} =
        (A, B, C, D), whose roots are the images of the roots of pi_P; a
        constant there means P went to infinity, and infinity goes to
        a / c."""
        key = (sigma, P)
        if key not in self._mobius_cache:
            k = self.k
            if P.is_infinity:
                a, b, c, d = self.G.labels[sigma]
                if c == 0:
                    img = Place.infinity()
                else:
                    root = k.mul(a, k.inv(c))
                    img = Place(Poly(k, [k.neg(root), 1]), check=False)
            else:
                moved = P.poly.mobius_numerator(
                    *self.G.labels[self.G.inverse[sigma]])
                img = (Place.infinity() if moved.degree == 0
                       else Place(moved.monic(), check=False))
            if img.degree != P.degree:
                raise Inconsistency("Mobius action changed a place degree")
            self._mobius_cache[key] = img
        return self._mobius_cache[key]

    def orbit_of_place(self, P: Place) -> list[Place]:
        """G.P sorted by `Place.sort_key`; computed once and cached under
        every member, so callers share the list and must not mutate it."""
        if P not in self._orbit_cache:
            orbit = sorted({self.mobius_on_place(s, P)
                            for s in range(self.G.order)},
                           key=Place.sort_key)
            for Q in orbit:
                self._orbit_cache[Q] = orbit
        return self._orbit_cache[P]

    def divisor_is_equivariant(self, D: Divisor):
        """(True, None) or (False, offending orbit)."""
        seen = set()
        for P in D.support():
            if P in seen:
                continue
            orbit = self.orbit_of_place(P)
            seen.update(orbit)
            coeffs = {D.coeff(Q) for Q in orbit}
            if len(coeffs) > 1:
                return False, orbit
        return True, None

    def check_equivariant(self, D: Divisor):
        """Raise InputError naming the orbit on which D is not constant."""
        ok, orbit = self.divisor_is_equivariant(D)
        if not ok:
            raise InputError("divisor is not equivariant: its coefficients "
                             "differ on the orbit "
                             + ", ".join(repr(p) for p in orbit))

    # -- ramification -----------------------------------------------------------

    def ramified_places(self) -> list[Place]:
        """All closed points with nontrivial inertia: the places of the
        fixed-point forms c x^2 + (d - a) x - b of the nonidentity elements,
        that is their irreducible factors over k, plus infinity where
        c = 0.  An element and its nonidentity powers fix the same points,
        so their forms agree up to a scalar: each monic form is factored
        once."""
        if self._ramified is None:
            places = set()
            seen = set()
            k = self.k
            for s in range(self.G.order):
                if s == self.G.identity:
                    continue
                a, b, c, d = self.G.labels[s]
                fix = Poly(k, [k.neg(b), k.sub(d, a), c]).monic()
                if fix.coeffs in seen:
                    continue
                seen.add(fix.coeffs)
                if c == 0:
                    places.add(Place.infinity())
                places.update(Place(g, check=False)
                              for g, _ in poly_factor(fix))
            self._ramified = sorted(places, key=Place.sort_key)
        return self._ramified

    def ramified_orbits(self) -> list[list[Place]]:
        """The orbits of the ramified places, in the order of their first
        members; computed once (callers must not mutate the lists)."""
        if self._ramified_orbits is None:
            seen = set()
            orbits = []
            for P in self.ramified_places():
                if P in seen:
                    continue
                orb = self.orbit_of_place(P)
                seen.update(orb)
                orbits.append(orb)
            self._ramified_orbits = orbits
        return self._ramified_orbits

    def _contact_order(self, sigma: int, P: Place) -> int:
        """i(sigma) = v_Q(sigma.t - t) at the point rho over P."""
        F, rho = self.residue_field(P), self.place_root(P)
        A, B, C, D = self._matrix_in(F, self.G.inverse[sigma])
        if rho == INF_POINT:
            if C != 0:
                raise Inconsistency("inertia element moved infinity")
            num = Poly(F, [F.neg(B), F.sub(D, A)])
            if num.is_zero():
                raise Inconsistency("identity reached the contact loop")
            return 2 - num.degree
        h = Poly(F, [B, F.sub(A, D), F.neg(C)])
        if h.is_zero():
            raise Inconsistency("identity reached the contact loop")
        return h.multiplicity(Poly(F, [F.neg(rho), 1]))

    def _cotangent_scalar(self, sigma: int, P: Place) -> int:
        """a_sigma with sigma.t = a_sigma t mod m^2, in k(P)."""
        F, rho = self.residue_field(P), self.place_root(P)
        A, B, C, D = self._matrix_in(F, self.G.inverse[sigma])
        if rho == INF_POINT:
            return F.mul(D, F.inv(A))
        det = F.sub(F.mul(A, D), F.mul(B, C))
        den = F.add(F.mul(C, rho), D)
        return F.mul(det, F.inv(F.mul(den, den)))

    def _cocycle_value(self, tau: int, P: Place) -> int:
        """b_tau with tau.(pi_P) = b_tau pi_P mod m^2, in k(P); pi_P is the
        closed-point uniformizer (the place polynomial, or 1/x at
        infinity).  With tau^{-1} = (A, B, C, D), tau fixes a finite P
        exactly when pi_P o tau^{-1} = lambda pi_P / (C x + D)^deg P, that
        is when `mobius_numerator` gives lambda pi_P; pi_P is separable, so
        b_tau = lambda / (C rho + D)^deg P at its root rho."""
        F, rho = self.residue_field(P), self.place_root(P)
        inv = self.G.inverse[tau]
        A, B, C, D = self._matrix_in(F, inv)
        if rho == INF_POINT:
            if C != 0:
                raise Inconsistency("decomposition element moved infinity")
            return F.mul(D, F.inv(A))
        pi = P.poly
        moved = pi.mobius_numerator(*self.G.labels[inv])
        lam = moved.leading()
        if moved != pi.scale(lam):
            raise Inconsistency("decomposition element does not fix the "
                                "place")
        den = F.pow_(F.add(F.mul(C, rho), D), P.degree)
        return F.mul(int(self.k.embedding_into(F)[lam]), F.inv(den))

    def ramification(self, P: Place) -> RamificationDatum:
        """Ramification filtration, residue data and cotangent character at
        P, computed in k(P) at the point rho over P."""
        if P in self._datum_cache:
            return self._datum_cache[P]
        G, k = self.G, self.k
        gp_idx = [s for s in range(G.order)
                  if self.mobius_on_place(s, P) == P]
        G_P = G.subgroup(gp_idx)
        kP, x = self.residue_field(P), self.place_root(P)
        i_idx = [s for s in gp_idx if self.mobius_point(kP, s, x) == x]
        I_P = G.subgroup(i_idx)
        contact = {s: self._contact_order(s, P)
                   for s in i_idx if s != G.identity}
        filtration = []
        s = 0
        while True:
            size = 1 + sum(1 for v in contact.values() if v >= s + 1)
            filtration.append(size)
            if size == 1:
                break
            s += 1
        wild_idx = [G.identity] + [g for g, v in contact.items() if v >= 2]
        wild = G.subgroup(wild_idx)
        char = {s: 1 if s == G.identity else self._cotangent_scalar(s, P)
                for s in i_idx}
        cocycle = {}
        for tau in gp_idx:
            if tau == G.identity:
                cocycle[tau] = (0, 1)
                continue
            # tau^{-1} moves x to its j-th Frobenius conjugate
            beta = self.mobius_point(kP, G.inverse[tau], x)
            j = None
            probe = x
            for jj in range(P.degree):
                if probe == beta:
                    j = jj
                    break
                probe = kP.frobenius(probe, k.n)
            if j is None:
                raise Inconsistency("residue action is not a Frobenius "
                                    "power")
            cocycle[tau] = (j, self._cocycle_value(tau, P))
        datum = RamificationDatum(
            group=G, k=k, place=P, G_P=G_P, I_P=I_P, wild=wild,
            filtration=filtration, deg=P.degree,
            orbit_size=G.order // G_P.order, kP=kP,
            rho=1 if x == INF_POINT else x, char=char, cocycle=cocycle)
        self._datum_cache[P] = datum
        return datum

    def riemann_hurwitz(self):
        """Exact audit of sum deg(P) * sum_s (|G_{P,s}|-1) = 2|G| - 2 for
        the cover P^1 -> P^1; failure aborts a scenario."""
        total = sum(self.ramification(orbit[0]).orbit_different_degree
                    for orbit in self.ramified_orbits())
        rhs = 2 * self.G.order - 2 if self.G.order > 1 else 0
        return {"lhs": total, "rhs": rhs, "pass": total == rhs}

    # -- Riemann-Roch spaces -----------------------------------------------------

    def _rr_generator(self, D: Divisor) -> tuple[Poly, Poly]:
        """(num, den) of u with div(u) = -D away from infinity, so that
        L(D) = u k[x]_{<= deg D}: div(u x^j) + D = j (0) + (deg D - j) inf.

        Certified before it is returned, without factoring: at each finite
        place P of D, v_P(num) - v_P(den) = -D(P), and those places fill
        deg num and deg den exactly, so u has no other finite zero or
        pole."""
        k = self.k
        num = Poly.one(k)
        den = Poly.one(k)
        for P, c in D.items():
            if P.is_infinity:
                continue
            if c > 0:
                for _ in range(c):
                    den = den * P.poly
            else:
                for _ in range(-c):
                    num = num * P.poly
        _certify_rr_generator(num, den, D)
        return num, den

    def rr_action_rep(self, D: Divisor) -> Rep:
        """Matrices of f -> f o sigma^{-1} on the basis f_j = u x^j
        (j = 0..deg D) of L(D), u = num/den from `_rr_generator`, whose
        certificate div(u) = -D away from infinity puts every f_j in L(D);
        genus 0, so dim L(D) = deg D + 1 and H^1 vanishes for deg D >= -1.
        Certified a homomorphism on generator pairs.  Non-equivariant
        divisors are rejected, never symmetrized.

        Column j holds the coefficients of w_j = (f_j o sigma^{-1}) / u, a
        polynomial of degree <= d = deg D.  With sigma^{-1} = (A, B, C, D'),
        L = C x + D', s = deg den - deg num and h = `Poly.mobius_numerator`
        of (A, B, C, D'), it follows the two-term recurrence

            w_0 = num^h den L^s / (den^h num),   w_j = w_{j-1} (A x + B) / L,

        (for s < 0 the power L^-s joins the divisor), one exact division
        for w_0 and one linear product and one synthetic division per
        column.  Three exact checks together say that every moved basis
        element stays in L(D): w_0 leaves remainder zero, so does each
        later division, and deg w_j <= d."""
        self.check_equivariant(D)
        dim = D.degree() + 1
        if dim < 0:
            raise InputError("divisor degree below -1 leaves the oracle "
                             "regime (H^1 is nonzero)")
        if dim > RR_DIM_CAP:
            raise CapExceeded(f"dim L(D) = {dim} exceeds RR_DIM_CAP = "
                              f"{RR_DIM_CAP}")
        k = self.k
        if dim:
            num, den = self._rr_generator(D)
        left = "moved basis element left the Riemann-Roch space"
        images = {}
        for t, g in enumerate(self.G.generators):
            A, B, C, Dd = self.G.labels[self.G.inverse[g]]
            cols = []
            if dim:
                top, bottom = Poly(k, [B, A]), Poly(k, [Dd, C])
                above = num.mobius_numerator(A, B, C, Dd) * den
                below = den.mobius_numerator(A, B, C, Dd) * num
                s = den.degree - num.degree
                for _ in range(abs(s)):
                    if s > 0:
                        above = above * bottom
                    else:
                        below = below * bottom
                w, rem = above.divmod(below)
                if not rem.is_zero():
                    raise Inconsistency(left)
            for j in range(dim):
                if j:
                    w, rem = (w * top).divmod(bottom)
                    if not rem.is_zero():
                        raise Inconsistency(left)
                if w.degree >= dim:  # deg w_j > deg D
                    raise Inconsistency(left)
                cols.append(list(w.coeffs) + [0] * (dim - len(w.coeffs)))
            rows = [[cols[j][i] for j in range(dim)] for i in range(dim)]
            images[t] = Mat.from_rows(k, rows)
        rep = Rep(self.G, k, dim, images)
        rep.check_homomorphism()
        return rep


def _certify_rr_generator(num: Poly, den: Poly, D: Divisor):
    """Raise Inconsistency unless div(num/den) = -D away from infinity:
    v_P(num) - v_P(den) = -D(P) at each finite place P of D, and these
    places fill deg num and deg den, so num/den has no other finite zero
    or pole."""
    filled_num = filled_den = 0
    for P, c in D.items():
        if P.is_infinity:
            continue
        zeros, poles = num.multiplicity(P.poly), den.multiplicity(P.poly)
        if zeros - poles != -c:
            raise Inconsistency(f"Riemann-Roch generator has valuation "
                                f"{zeros - poles} at {P!r}, not {-c}")
        filled_num += zeros * P.degree
        filled_den += poles * P.degree
    if (filled_num, filled_den) != (num.degree, den.degree):
        raise Inconsistency("Riemann-Roch generator has a zero or pole "
                            "outside the divisor")


# ---------------------------------------------------------------------------
# abstract ramification data (formula side without a curve)


def abstract_datum(G: FiniteGroup, k: Field, *, label: str,
                   decomposition: FiniteGroup, inertia: FiniteGroup,
                   wild: FiniteGroup, residue_degree: int,
                   cot_generator: int | None,
                   cot_value: int | list[int] | None) -> RamificationDatum:
    """Build a RamificationDatum from an abstract description: subgroups of
    G (G.subgroup), the residue degree [k(P):k], and the cotangent
    character given by a generator of I/wild (an element index of G) and a
    primitive value in the canonical residue field (an encoding, or a
    GF(p) coefficient list)."""
    G_P, I_P = decomposition, inertia
    in_dec, in_ine, in_wild = (H.positions_in(G) for H in (G_P, I_P, wild))
    ine_set, wild_set = set(in_ine), set(in_wild)
    if not wild_set <= ine_set <= set(in_dec):
        raise InputError("need wild <= inertia <= decomposition")
    if any(G.conjugate(g, h) not in ine_set for g in in_dec for h in in_ine):
        raise InputError("inertia must be normal in the decomposition group")
    if any(G.conjugate(g, h) not in wild_set
           for g in in_ine for h in in_wild):
        raise InputError("wild group must be normal in inertia")
    e = I_P.order
    e_w = wild.order
    if e % e_w:
        raise InputError("wild order must divide the inertia order")
    e_t = e // e_w
    deg = residue_degree
    f = G_P.order // I_P.order
    if deg < 1 or deg % f:
        raise InputError(f"residue_degree {deg} is not a positive multiple "
                         f"of f = |decomposition| / |inertia| = {f}")
    kP = field_make(k.p, k.n * deg)
    # {y^i : i < deg} is a k-basis of the canonical residue field for the
    # field generator y (encoding p); degree-1 places use the basis {1}
    rho = 1 if deg == 1 else k.p
    filtration = [e, e_w, 1] if e_w > 1 else [e, 1]
    char = {G.identity: 1}
    if e_t == 1:
        for s in in_ine:
            char[s] = 1
    else:
        if cot_generator is None:
            raise InputError("a cotangent generator is required when "
                             "e_t > 1")
        if cot_generator not in ine_set:
            raise InputError("cotangent generator must lie in inertia")
        if cot_value is None:
            raise InputError("a cotangent value is required when e_t > 1")
        val = kP.encode(cot_value) if isinstance(cot_value, list) \
            else cot_value
        if not 0 < val < kP.q or kP.element_order(val) != e_t:
            raise InputError("cotangent value must have order exactly e_t")
        # extend multiplicatively: s = g^j * w with w wild
        assigned = {s: None for s in in_ine}
        for w in in_wild:
            assigned[w] = 1
        cur = cot_generator
        cur_val = val
        for _ in range(e_t):
            for w in in_wild:
                assigned[G.table[cur][w]] = cur_val
            cur = G.table[cur][cot_generator]
            cur_val = kP.mul(cur_val, val)
        if any(v is None for v in assigned.values()):
            raise InputError("cotangent generator does not generate "
                             "I/wild")
        char.update(assigned)
    if e_t > 1 and wild_set != {s for s in in_ine if char[s] == 1}:
        raise InputError("cotangent kernel is not the declared wild group")
    # Galois-compatibility of the character under decomposition conjugation
    if f > 1:
        q_r = k.q ** (deg // f)
        for tau in in_dec:
            ok = False
            for j in range(f):
                if all(char[G.conjugate(tau, s)]
                       == kP.pow_(char[s], q_r**j) for s in in_ine):
                    ok = True
                    break
            if not ok:
                raise InputError("cotangent character is not Galois "
                                 "compatible with the decomposition group")
    return RamificationDatum(
        group=G, k=k, place=label, G_P=G_P, I_P=I_P, wild=wild,
        filtration=filtration, deg=deg,
        orbit_size=G.order // G_P.order,
        kP=kP, rho=rho, char=char, cocycle=None)
