"""The equivariant Riemann-Roch formulas as executable operations.

Every operation works over a CoverData value: the group, base field, genus
of the quotient curve, one ramification datum per ramified orbit, and (in
oracle mode) the P^1 geometry that supplies the explicit cohomology
classes.  The two sides being cross-checked are

  * the oracle: the class of the group action on an explicit
    Riemann-Roch space basis, and
  * the closed formulas: the ramification-module class, the divided
    induced-cover classes with their divisibility certificates, the
    integral and rational Euler-characteristic formulas, the tame
    mod-regular variant and the scaled identity that needs no weakness
    assumption.

All class arithmetic is exact (integers over composition-factor
coordinates, read off Brauer characters by SimpleRegistry.class_of, with
a Fraction only where a coefficient is not integral, as in the 1/f terms
of the rational formula); integrality failures raise instead of rounding,
because each integrality IS a theorem statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .errors import Inconsistency, InputError
from .fields import Field
from .geometry import Divisor, P1Geometry, RamificationDatum
from .groups import FiniteGroup
from .k0 import CartanData, cartan_data, in_cartan_image
from .reps import (ClassVector, Rep, SimpleRegistry, is_projective,
                   power_counts, rep_restrict)


@dataclass
class CoverData:
    """Everything the formula side needs about one weakly ramified cover."""

    G: FiniteGroup
    k: Field
    g_Y: int
    registry: SimpleRegistry
    orbit_data: list[RamificationDatum]
    geometry: P1Geometry | None = None
    abstract_coefficients: dict[int, int] | None = None  # index -> n
    _caches: dict = dc_field(default_factory=dict)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_geometry(cls, geometry: P1Geometry) -> "CoverData":
        data = [geometry.ramification(orb[0])
                for orb in geometry.ramified_orbits()]
        return cls(G=geometry.G, k=geometry.k, g_Y=0,
                   registry=SimpleRegistry(geometry.G, geometry.k),
                   orbit_data=data, geometry=geometry)

    @classmethod
    def from_abstract(cls, G: FiniteGroup, k: Field, g_Y: int,
                      data: list[RamificationDatum],
                      coefficients) -> "CoverData":
        cover = cls(G=G, k=k, g_Y=g_Y, registry=SimpleRegistry(G, k),
                    orbit_data=list(data), geometry=None,
                    abstract_coefficients=dict(enumerate(coefficients)))
        cover.genus_upstairs()  # rejects data that no cover has
        return cover

    # -- shared classes ------------------------------------------------------

    def memo(self, key, build):
        """The value cached under key, built by build() on first use.  A
        build that raises caches nothing, so the next call builds again."""
        if key not in self._caches:
            self._caches[key] = build()
        return self._caches[key]

    def main_cartan(self) -> CartanData:
        return self.memo("cartan", lambda: cartan_data(self.G, self.k,
                                                       self.registry))

    def registry_for(self, group: FiniteGroup):
        """(registry, cartan) for a subgroup of G, cached; G.subgroup of
        all of G is G itself and gets the main pair.  A proper subgroup's
        registry saturates on its own, as SimpleRegistry(group, k) does,
        and shares nothing with the main registry."""
        if group is self.G:
            return self.registry, self.main_cartan()

        def build():
            reg = SimpleRegistry(group, self.k)
            return reg, cartan_data(group, self.k, reg)
        return self.memo(("registry", id(group)), build)

    def tame_complement(self, datum: RamificationDatum):
        """(C, c): the tame complement C = <c> of the wild group in I_P, for
        c the first element of I_P of order e_t, as an index of I_P.
        RamificationDatum._validate proves I_P / wild cyclic of order e_t
        (the cotangent character embeds it in k(P)^*), and e_t is prime to
        p, so any such c generates a complement: <c> meets the wild group
        trivially and |<c>| |wild| = |I_P|."""
        def build():
            I_P = datum.I_P
            c = next((x for x in range(I_P.order)
                      if I_P.element_order(x) == datum.e_t), None)
            if c is None:
                raise Inconsistency("the tame quotient of the inertia group "
                                    "is not cyclic of order e_t")
            return I_P.subgroup(I_P.closure([c])), c
        return self.memo(("complement", id(datum)), build)

    def induced_cover_class(self, datum: RamificationDatum, d: int,
                            group: FiniteGroup) -> ClassVector:
        """Class of Ind_{I_P}^group Cov((m/m^2)^{tensor d}) over the
        registry of group, which is G or G_P.  The projective cover over
        I_P is Cov = Ind_C^{I_P} Res_C of the cotangent power for the tame
        complement C, so this is the class of Ind_C^group lambda^d, lambda
        = Res_C (m/m^2) of order e_t: one table per (datum, group) holds
        every d mod e_t, from one coset walk and one batched solve."""
        def build():
            C, _ = self.tame_complement(datum)
            reg, _ = self.registry_for(group)
            lam = rep_restrict(datum.cotangent_power(1), C)
            return reg.classes_of([lam], range(datum.e_t))
        key = ("indcov", id(datum), id(group))
        return self.memo(key, build)[d % datum.e_t]

    def induce_class(self, v: ClassVector, H: FiniteGroup) -> ClassVector:
        """Class of Ind_H^G M from the class v of M over H's registry.
        Induction is exact, so Ind M has the factors Ind S for the
        composition factors S of M, solved in one batch per subgroup.  A v
        over the whole group is returned as it is."""
        if H is self.G:
            return v
        reg, _ = self.registry_for(H)
        if v.registry is not reg:
            raise InputError("class and subgroup registry differ")
        induced = self.memo(("induce", id(H)), lambda:
                            self.registry.classes_of(reg.simples, [1]))
        return sum((w.scale(c) for c, w in zip(v.coeffs, induced)),
                   self.registry.zero())

    def induced_fiber_class(self, datum: RamificationDatum,
                            d: int) -> ClassVector:
        """Class of Ind_{I_P}^G of the bare d-th cotangent power (no cover);
        used by the scaled identity, which has no weakness assumption.  One
        table per datum holds every d mod e_t, as for induced_cover_class."""
        return self.memo(("indcot", id(datum)), lambda:
                         self.registry.classes_of(
                             [datum.cotangent_power(1)],
                             range(datum.e_t)))[d % datum.e_t]

    # -- divisor bookkeeping ----------------------------------------------------

    def orbit_table(self, D: Divisor | None):
        """Tuple of (datum, coefficient): every ramified orbit plus every
        orbit meeting the divisor support; built once per divisor."""
        if self.geometry is None:
            if D is not None:
                raise InputError("abstract covers carry their coefficients "
                                 "in the scenario payload")
            return self.memo(("orbits", None), lambda: tuple(
                (datum, self.abstract_coefficients.get(i, 0))
                for i, datum in enumerate(self.orbit_data)))
        D = D or Divisor({})
        geo = self.geometry

        def build():
            geo.check_equivariant(D)
            out = []
            seen: set = set()
            for orb in geo.ramified_orbits():
                out.append((geo.ramification(orb[0]), D.coeff(orb[0])))
                seen.update(orb)
            for P in D.support():
                if P in seen:
                    continue
                orb = geo.orbit_of_place(P)
                seen.update(orb)
                out.append((geo.ramification(orb[0]), D.coeff(orb[0])))
            return tuple(out)
        return self.memo(("orbits", divisor_key(D)), build)

    def divisor_degree(self, table) -> int:
        return sum(n * datum.deg * datum.orbit_size for datum, n in table)

    def is_weakly_ramified(self) -> bool:
        return all(d.is_weak_here for d in self.orbit_data)

    def is_tame(self) -> bool:
        return all(d.is_tame_here for d in self.orbit_data)

    def genus_upstairs(self) -> int:
        """g_X via Riemann-Hurwitz from the ramification data."""
        if self.geometry is not None:
            return 0
        total = 2 * self.G.order * (self.g_Y - 1) + sum(
            datum.orbit_different_degree for datum in self.orbit_data)
        if total % 2:
            raise InputError(f"Riemann-Hurwitz total {total} is odd; no "
                             "cover has this ramification data")
        g_x = total // 2 + 1
        if g_x < 0:
            raise InputError(f"ramification data gives genus {g_x} < 0 "
                             "upstairs")
        return g_x


def divisor_key(D: Divisor) -> tuple:
    """A hashable key of the divisor D for CoverData.memo."""
    return tuple((p.sort_key(), c) for p, c in D.items())


# -- coefficient decomposition ---------------------------------------------------


def split_coefficient(n: int, e_t: int, e_w: int):
    """Unique (l, m) with n = (e_w - 1) + (l + m e_t) e_w and
    0 <= l < e_t; requires n = -1 mod e_w."""
    if (n - (e_w - 1)) % e_w:
        raise InputError(f"coefficient {n} is not -1 mod {e_w}")
    u = (n - (e_w - 1)) // e_w
    l = u % e_t
    m = (u - l) // e_t
    return l, m


def congruence_condition(cover: CoverData, D: Divisor | None) -> bool:
    """n_P = -1 mod e_P^w at every place (trivially true at tame places)."""
    return all((n + 1) % datum.e_w == 0
               for datum, n in cover.orbit_table(D))


# -- the ramification module -------------------------------------------------------


def ramification_class_via_inertia(cover: CoverData) -> ClassVector:
    """Local route: |G| copies of the ramification module equal the sum over
    ramified places and twists d of e_w * d copies of the induced covers of
    the d-th cotangent powers; the division by |G| must land in integers."""
    if not cover.is_weakly_ramified():
        raise InputError("the ramification module needs a weakly ramified "
                         "cover")

    def build():
        total = cover.registry.zero()
        for datum in cover.orbit_data:
            for d in range(1, datum.e_t):
                v = cover.induced_cover_class(datum, d, cover.G)
                total = total + v.scale(datum.orbit_size * datum.e_w * d)
        total = total.scale(Fraction(1, cover.G.order))
        if not total.is_integral():
            # integral for every weakly ramified cover (Koeck 2004), so
            # abstract data that fails here belong to no cover
            if cover.geometry is None:
                raise InputError("ramification-module class is not "
                                 "integral; no weakly ramified cover has "
                                 "this ramification data")
            raise Inconsistency("ramification-module class is not integral; "
                                "this falsifies the local route")
        return total
    return cover.memo("ramification", build)


def ramification_class_via_euler(cover: CoverData) -> ClassVector:
    """Global route: (1 - g_Y)[k[G]] minus the Euler characteristic of the
    equivariant divisor that puts e_w - 1 on every ramified place."""
    if cover.geometry is None:
        raise InputError("the Euler route needs the oracle geometry")
    if not cover.is_weakly_ramified():
        raise InputError("the ramification module needs a weakly ramified "
                         "cover")
    # Divisor drops the zero coefficients of the tame orbits
    E = Divisor({P: datum.e_w - 1 for datum in cover.orbit_data
                 for P in cover.geometry.orbit_of_place(datum.place)})
    return (cover.registry.regular_class().scale(1 - cover.g_Y)
            - oracle_euler_class(cover, E))


def ramification_class_routes(cover: CoverData):
    """Both routes plus their agreement verdict (the route-consistency
    theorem); the Euler route is None for abstract covers."""
    local = ramification_class_via_inertia(cover)
    if cover.geometry is None:
        return {"inertia": local, "euler": None, "consistent": None}
    via_euler = ramification_class_via_euler(cover)
    return {"inertia": local, "euler": via_euler,
            "consistent": local == via_euler}


# -- the oracle -----------------------------------------------------------------


def _oracle_rr_module(cover: CoverData,
                      D: Divisor) -> tuple[Rep, ClassVector]:
    """The explicit Riemann-Roch representation on L(D) and its class,
    built once per divisor."""
    if cover.geometry is None:
        raise InputError("oracle classes need the geometry substrate")

    def build():
        rep = cover.geometry.rr_action_rep(D)
        return rep, cover.registry.class_of(rep)
    return cover.memo(("oracle", divisor_key(D)), build)


def oracle_euler_class(cover: CoverData, D: Divisor) -> ClassVector:
    """Class of the explicit Riemann-Roch representation; valid while H^1
    vanishes (deg D >= -1 on the line)."""
    return _oracle_rr_module(cover, D)[1]


# -- divided cover classes (the divisibility theorem) ------------------------------


def divided_cover_class(cover: CoverData, datum: RamificationDatum,
                        d: int) -> dict:
    """The projective k[G_P]-module whose f_P-fold multiple is the induced
    cover of the (-d)-th cotangent power: certify the divisibility of every
    head multiplicity by f_P and return the divided coordinates.  The
    first call at a datum certifies every twist mod e_t in one pass.

    A divisibility failure falsifies the theorem and raises with a dump."""
    return cover.memo(("divided", id(datum)),
                      lambda: _certify_divided_covers(cover, datum)
                      )[d % datum.e_t]


def _certify_divided_covers(cover: CoverData,
                            datum: RamificationDatum) -> list[dict]:
    """divided_cover_class's certificates for d = 0..e_t - 1 on the
    classes X_d of Ind_C^{G_P} of the (-d)-th cotangent power: the heads
    must equal the Cartan coordinates W X_d / L and be divisible by f, and
    X_d / f must be integral with nonnegative integral Cartan coordinates.
    A failure names the place, the first failing twist and the simple."""
    if not datum.is_weak_here:
        raise InputError("divided covers are defined for weakly ramified "
                         "places")
    _, cartan_p = cover.registry_for(datum.G_P)
    heads = _frobenius_heads(cover, datum)
    # Ind_{I_P}^{G_P} Cov = Ind_C^{G_P} Res_C lambda is projective: every
    # module over the p'-group C is, and induction keeps projectivity
    totals = [cover.induced_cover_class(datum, -d, datum.G_P)
              for d in range(datum.e_t)]
    f, (W, L) = datum.f, cartan_p.inverse
    W = np.array(W, dtype=object)
    X = np.array([v.coeffs for v in totals], dtype=object).T
    coords = (W @ X).T
    divided = (W @ np.array([[c // f for c in v.coeffs] for v in totals],
                            dtype=object).T).T
    out = []
    for d, row in enumerate(heads):
        at, head = f"at place {datum.place!r}, twist {d}", dict(enumerate(row))
        if any(c % L or c // L != m for c, m in zip(coords[d], row)):
            raise Inconsistency(f"head multiplicities {head} {at} are not "
                                "the Cartan coordinates of the induced cover")
        bad = {i: m for i, m in head.items() if m % f}
        if bad:
            raise Inconsistency(
                "divisibility certificate failed: head multiplicities "
                f"{bad} are not divisible by f={f} {at}; full head data "
                f"{head}")
        for i, c in enumerate(X[:, d]):
            if c % f:
                raise Inconsistency(
                    f"divided cover class is not integral {at}: simple {i} "
                    f"has multiplicity {c}, not divisible by f={f}")
        for i, c in enumerate(divided[d]):
            if c % L or c < 0:
                raise Inconsistency(
                    f"divided cover class is not a projective class {at}: "
                    "the coordinate of the projective cover of simple "
                    f"{i} is {Fraction(c, L)}")
        out.append({"f": f, "head_multiplicities": head,
                    "class": totals[d].scale(Fraction(1, f))})
    return out


def _frobenius_heads(cover: CoverData, datum: RamificationDatum):
    """Row d: the multiplicity of the projective cover of each simple S_i
    of G_P in Ind_{I_P}^{G_P} Cov((m/m^2)^{tensor -d}), by Frobenius
    reciprocity, for d = 0..e_t - 1.

    Cov = Ind_C^{I_P} Res_C lambda for the tame complement C = <c> of
    CoverData.tame_complement and lambda the (-d)-th cotangent power, so
    the induced cover is Ind_C^{G_P} lambda and Hom_{G_P}(it, S_i) =
    Hom_C(lambda, Res_C S_i).  C is a cyclic p'-group, so that dimension
    is sum_j a_j b_j over the multiplicities a_j and b_j of zeta^j as an
    eigenvalue of lambda(c) and of S_i(c): the heads are A B^T / e, the
    rows of A read off the counts of the first cotangent power at c by the
    power map zeta^s -> zeta^(-s d).  Each must be an integer."""
    reg_p, _ = cover.registry_for(datum.G_P)
    brauer, e_t = reg_p.brauer, datum.e_t
    _, c = cover.tame_complement(datum)
    c_in_gp = datum.I_P.positions_in(datum.G_P)[c]
    B = np.array([brauer.eigenvalue_counts(S.image(c_in_gp), e_t)
                  for S in reg_p.simples])
    a = brauer.eigenvalue_counts(datum.cotangent_power(1).image(c), e_t)
    num = (np.array([power_counts(a, -d) for d in range(e_t)]) @ B.T).tolist()
    ends = [reg_p.end_dim(i) for i in range(len(reg_p))]
    for d, row in enumerate(num):
        for i, (n, e) in enumerate(zip(row, ends)):
            if n % e:
                raise Inconsistency(
                    f"head multiplicity of simple {i} at place "
                    f"{datum.place!r}, twist {d} is not integral: Hom "
                    f"dimension {n} over dim End = {e}")
    return [[n // e for n, e in zip(row, ends)] for row in num]


# -- the Riemann-Roch formulas ----------------------------------------------------


def _formula_walk(cover: CoverData, D: Divisor | None, term):
    """The shared shape of the weakly ramified formulas: -[ram module] +
    sum over quotient points and twists d = 1..l of term(cover, datum, d)
    + (1 - g_Y + sum [k(R):k] m) [k[G]], with n = (e_w - 1) + (l + m e_t)
    e_w split at each orbit by split_coefficient, which rejects an n off
    the -1 mod e_w congruence.  Returns (class, regular coefficient, term
    report)."""
    if not cover.is_weakly_ramified():
        raise InputError("the Riemann-Roch formulas need a weakly ramified "
                         "cover")
    total = -ramification_class_via_inertia(cover)
    reg_coeff = 1 - cover.g_Y
    terms = []
    for datum, n in cover.orbit_table(D):
        l, m = split_coefficient(n, datum.e_t, datum.e_w)
        reg_coeff += datum.residue_deg * m
        for d in range(1, l + 1):
            total = total + term(cover, datum, d)
        terms.append({"place": datum.place_json(), "n": n, "l": l, "m": m,
                      "f": datum.f, "residue_deg": datum.residue_deg})
    total = total + cover.registry.regular_class().scale(reg_coeff)
    return total, reg_coeff, terms


def _integral_term(cover: CoverData, datum: RamificationDatum, d: int):
    w = divided_cover_class(cover, datum, d)["class"]
    return cover.induce_class(w, datum.G_P)


def _rational_term(cover: CoverData, datum: RamificationDatum, d: int):
    return cover.induced_cover_class(datum, -d, cover.G).scale(
        Fraction(1, datum.f))


def euler_class_integral(cover: CoverData, D: Divisor | None = None):
    """Integral formula: the walk with the term Ind_{G_P}^G W for the
    projective k[G_P]-module W whose f-fold multiple is the induced cover
    of the (-d)-th cotangent power, each W certified by
    divided_cover_class.  Returns (class, term report)."""
    total, reg_coeff, terms = _formula_walk(cover, D, _integral_term)
    return total, {"regular_coefficient": reg_coeff, "orbits": terms}


def euler_class_rational(cover: CoverData, D: Divisor | None = None):
    """Rational prototype: the walk with the term (1/f) [Ind_{I_P}^G Cov]
    of the (-d)-th cotangent power, without any divisibility
    certificates."""
    return _formula_walk(cover, D, _rational_term)[0]


def euler_class_tame_mod_regular(cover: CoverData, D: Divisor | None = None):
    """Tame variant for the line bundle O(D): the rational formula less its
    multiple of [k[G]], so the cover-class sums run over the fiber
    exponent l = n_P mod e_P (e_w = 1); valid modulo integer multiples of
    [k[G]] (in the conventions of this engine; see the ledger note on the
    sign of the printed fiber decomposition)."""
    if not cover.is_tame():
        raise InputError("the mod-regular variant needs a tame cover")
    total, reg_coeff, _ = _formula_walk(cover, D, _rational_term)
    return total - cover.registry.regular_class().scale(reg_coeff)


def regular_multiple(cover: CoverData, diff: ClassVector):
    """(True, t) when diff = t * [k[G]] for an integer t."""
    reg = cover.registry.regular_class()
    pivot = next((i for i, c in enumerate(reg.coeffs) if c), None)
    if pivot is None:
        raise Inconsistency("regular class is zero")
    # exact division: / on two ints would give a float
    t = Fraction(diff.coeffs[pivot], reg.coeffs[pivot])
    if t.denominator == 1 and diff == reg.scale(t.numerator):
        return True, t.numerator
    return False, None


def euler_class_scaled(cover: CoverData, D: Divisor | None = None):
    """|G| times the Euler characteristic as C [k[G]] minus the weighted
    induced fiber twists; no weakness assumption.  Returns (class, C);
    C is computed exactly and must be integral."""
    table = cover.orbit_table(D)
    g_x = cover.genus_upstairs()
    C = Fraction(1 - g_x) + cover.divisor_degree(table)
    for datum in cover.orbit_data:
        C += Fraction(datum.orbit_size * datum.deg * (datum.e_t - 1), 2)
    if C.denominator != 1:
        raise Inconsistency("scaled-formula constant is not integral")
    total = cover.registry.regular_class().scale(C)
    coeff_of = {id(datum): n for datum, n in table}
    for datum in cover.orbit_data:
        n_p = coeff_of.get(id(datum), 0)
        for d in range(1, datum.e_t):
            v = cover.induced_fiber_class(datum, d - n_p)
            total = total - v.scale(datum.orbit_size * datum.e_w * d)
    return total, int(C)


# -- predicates of the projectivity theorems ----------------------------------------


def projectivity_report(cover: CoverData, D: Divisor) -> dict:
    """Verdicts for the Cartan-membership and projectivity statements on
    one divisor, including the implication checks."""
    if cover.geometry is None:
        raise InputError("projectivity predicates need the oracle")
    h0, chi = _oracle_rr_module(cover, D)
    weak = cover.is_weakly_ramified()
    tame = cover.is_tame()
    cong = congruence_condition(cover, D)
    member = in_cartan_image(chi, cover.main_cartan())
    proj = is_projective(h0)
    return {
        "weakly_ramified": weak,
        "tamely_ramified": tame,
        "congruence": cong,
        "in_cartan_image": member,
        "h0_projective": proj,
        "deg": D.degree(),
        # sufficient direction: weak + congruence puts chi in the image,
        # and with H^1 = 0 makes H^0 projective
        "sufficient_direction": (not (weak and cong)) or (member and proj),
        # tame covers always land in the image
        "tame_membership": (not tame) or member,
        # necessary direction: deg D > 2g_X - 2 and projective H^0 forces
        # weak ramification and the congruence
        "necessary_direction": (not (D.degree() > -2 and proj))
                               or (weak and cong),
    }


def tame_structure_checks(cover: CoverData, datum: RamificationDatum,
                          d: int) -> dict:
    """Class identities available at tame places, for 0 < d < e_t: the
    divided cover class equals the (-d)-th cotangent line as a
    decomposition-group class, and inducing the restriction multiplies
    the class by the residue degree (tables from _line_tables)."""
    if not datum.is_tame_here:
        raise InputError("structure checks apply at tame places")
    if not 0 < d < datum.e_t:
        raise InputError("structure checks take a twist 0 < d < e_t = "
                         f"{datum.e_t}")
    w = divided_cover_class(cover, datum, d)
    lines, backs = cover.memo(("lines", id(datum)),
                              lambda: _line_tables(cover, datum))
    return {"cover_equals_line": w["class"] == lines[d - 1],
            "ind_res_multiplies": backs[d - 1] == lines[d - 1].scale(datum.f)}


def _line_tables(cover: CoverData, datum: RamificationDatum):
    """The classes over G_P of line_d = decomposition_line_rep(-d) and of
    Ind_{I_P}^{G_P} Res_{I_P} line_d = Ind (Res line_1)^(-d), d = 1..e_t - 1,
    in batched solves; line_d = line_1^(-d) at a place of degree 1, and is
    built per twist at a larger one, whose semilinear images do not
    commute."""
    reg_p, _ = cover.registry_for(datum.G_P)
    exponents = [-d for d in range(1, datum.e_t)]
    line = datum.decomposition_line_rep(1)
    lines = (reg_p.classes_of([line], exponents) if datum.deg == 1 else
             reg_p.classes_of([datum.decomposition_line_rep(x)
                               for x in exponents], [1]))
    return lines, reg_p.classes_of([rep_restrict(line, datum.I_P)],
                                   exponents)
