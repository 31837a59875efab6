"""Module-theoretic tools that only the tests use: an explicit-intertwiner
isomorphism test, the class of a module by counting the composition
factors of a chop, the dimension of a class, the socle dimension, the
head multiplicities of a projective module by Hom systems into the
simples, the Cartan matrix by splitting k[G] into projective
indecomposables, the Riemann-Roch action by moving every basis function
on its own, the cocycle value of a decomposition element by division at
a root, the image of a place by moving one of its roots as a point, the
ramified places by solving the fixed-point form of every element, the
projective cover over an inertia group as a module, induced from a
Schur-Zassenhaus complement, and the split of a module on a submodule
through a completed basis and its inverse."""

import math
import random

import numpy as np

from equirr.errors import CapExceeded, Inconsistency, InputError
from equirr.fields import (Field, Poly, embed, field_make, poly_roots,
                           prime_factors)
from equirr.geometry import INF_POINT, Divisor, P1Geometry, Place
from equirr.groups import FiniteGroup, Subgroup, _p_part
from equirr.matrices import EchelonBasis, Mat
from equirr.reps import (ClassVector, Rep, SimpleRegistry, chop, hom_dim,
                         hom_space, indecomposable_summands, is_projective,
                         regular_endomorphisms, rep_induce, rep_regular,
                         rep_restrict)

# random combinations of a Hom basis tried for an invertible one
ISO_TRIES = 60


def is_isomorphic(M: Rep, N: Rep, rng: random.Random | None = None) -> bool:
    """Explicit-intertwiner isomorphism test; raises CapExceeded when a
    nonzero Hom space yields no invertible element within the try budget
    (undecided is an error, never False)."""
    if M is N:
        return True
    if M.group is not N.group or M.field is not N.field or M.dim != N.dim:
        return False
    if M.dim == 0:
        return True
    basis = hom_space(M, N)
    if not basis:
        return False
    for X in basis:
        if X.rank() == M.dim:
            return True
    rng = rng or random.Random(0)
    F = M.field
    for _ in range(ISO_TRIES):
        acc = Mat.zeros(F, N.dim, M.dim)
        for X in basis:
            c = F.rand_elem(rng)
            if c:
                acc = acc + X.scale(c)
        if acc.rank() == M.dim:
            return True
    if hom_dim(M, M) != hom_dim(N, M):
        # asymmetric hom dimensions can never support an isomorphism
        return False
    raise CapExceeded("isomorphism test undecided within the try budget")


def chop_class(M: Rep, registry: SimpleRegistry,
               rng: random.Random) -> ClassVector:
    """The class of M over the registry by counting its composition
    factors from reps.chop per simple, found by Brauer vector: the
    reference that class_of is tested against.  A factor that is no simple
    of the registry raises Inconsistency."""
    if M.group is not registry.group or M.field is not registry.field:
        raise InputError("module and registry are over different data")
    index = {b: i for i, b in enumerate(registry.vectors)}
    coeffs = [0] * len(registry)
    for S in chop(M, rng):
        i = index.get(registry.brauer.vector(S))
        if i is None:
            raise Inconsistency(f"a dim-{S.dim} composition factor is no "
                                "simple of the registry")
        coeffs[i] += 1
    return ClassVector(registry, coeffs)


def total_dim(v: ClassVector):
    """The dimension of the class v: sum of c_i dim S_i."""
    return sum(c * S.dim for c, S in zip(v.coeffs, v.registry.simples))


def socle_dim(M: Rep, registry: SimpleRegistry) -> int:
    """Dimension of the sum of all simple submodules."""
    cols = None
    for S in registry.simples:
        if S.dim > M.dim:
            continue
        for X in hom_space(S, M):
            cols = X if cols is None else cols.hstack(X)
    return 0 if cols is None else cols.rank()


def head_multiplicities(M: Rep, registry: SimpleRegistry) -> dict[int, int]:
    """Multiplicity of Cov(S_i) in the projective module M for each simple
    of the registry: dim Hom(M, S_i) / dim End(S_i), asserted integral.
    Projectivity is checked once; a failure raises Inconsistency, since
    callers pass modules that the theory makes projective.  The engine
    reads the same numbers off Frobenius reciprocity instead
    (engine._frobenius_heads); this is the Hom route they are tested
    against."""
    if not is_projective(M):
        raise Inconsistency("head multiplicities need a projective module")
    out = {}
    for i, S in enumerate(registry.simples):
        num, den = hom_dim(M, S), registry.end_dim(i)
        if num % den:
            raise Inconsistency("head multiplicity is not integral")
        out[i] = num // den
    return out


def split_cartan_matrix(G: FiniteGroup, F: Field, registry: SimpleRegistry,
                        rng: random.Random) -> list[list[int]]:
    """The Cartan matrix (entry [i][j] the multiplicity of S_i in P_j) from
    splitting k[G] into indecomposable summands grouped by their simple
    head; End(k[G]) comes from the multiplication table.  Every simple
    must head dim S / dim End(S) summands, all with one class."""
    by_head: dict[int, list[Rep]] = {}
    ends = regular_endomorphisms(G, F)
    for P, head in indecomposable_summands(rep_regular(G, F), ends,
                                           registry, rng):
        by_head.setdefault(head, []).append(P)
    s = len(registry)
    if set(by_head) != set(range(s)):
        raise Inconsistency("some simple has no projective cover in k[G]")
    classes = []
    for i, S in enumerate(registry.simples):
        if len(by_head[i]) != S.dim // registry.end_dim(i):
            raise Inconsistency(f"simple {i}: found {len(by_head[i])} "
                                "covers in k[G]")
        found = {registry.class_of(P) for P in by_head[i]}
        if len(found) != 1:
            raise Inconsistency("covers with equal head have distinct "
                                "classes")
        classes.append(found.pop())
    return [[int(classes[j].coeffs[i]) for j in range(s)] for i in range(s)]


def reference_rr_action(geo: P1Geometry, D: Divisor) -> list[Mat]:
    """The matrix of each generator of G on L(D) by the direct route: every
    basis function f_j = x^j num/den (num/den = u from `_rr_generator`) is
    moved by sigma^{-1} = (A, B, C, D') in full, as
    (x^j num)^h / (C x + D')^(j + deg num) over den^h / (C x + D')^deg den
    with h = `Poly.mobius_numerator`, and divided by u; what is left must
    be a polynomial of degree <= deg D, read off as column j."""
    k = geo.k
    dim = D.degree() + 1
    if dim:
        num, den = geo._rr_generator(D)
    G = geo.G
    out = []
    for g in G.generators:
        A, B, C, Dd = G.labels[G.inverse[g]]
        lin = Poly(k, [Dd, C])
        cols = []
        for j in range(dim):
            f = Poly(k, [0] * j + [1]) * num
            above = f.mobius_numerator(A, B, C, Dd) * den
            below = den.mobius_numerator(A, B, C, Dd) * num
            for _ in range(den.degree - f.degree):
                above = above * lin
            for _ in range(f.degree - den.degree):
                below = below * lin
            w, rem = above.divmod(below)
            if not rem.is_zero() or w.degree >= dim:
                raise Inconsistency("moved basis element left L(D)")
            cols.append(list(w.coeffs) + [0] * (dim - len(w.coeffs)))
        out.append(Mat.from_rows(k, [[cols[j][i] for j in range(dim)]
                                     for i in range(dim)]))
    return out


def reference_cocycle_value(geo: P1Geometry, tau: int, P: Place, alpha):
    """b_tau at a finite place P with root alpha in k(P), by the route
    P1Geometry._cocycle_value took before `Poly.mobius_numerator`: the
    place polynomial pi is homogenised under tau^{-1} = (A, B, C, D) in
    k(P), the result N and pi are each divided by x - alpha, and
    b_tau = (N / (x - alpha))(alpha) / ((pi / (x - alpha))(alpha)
    (C alpha + D)^deg P)."""
    k, deg = geo.k, P.degree
    K = field_make(k.p, k.n * deg)
    A, B, C, D = (embed(x, k, K) for x in geo.G.labels[geo.G.inverse[tau]])
    pi_K = P.poly.map_field(K)
    lin_a, lin_c = Poly(K, [B, A]), Poly(K, [D, C])
    N = Poly.zero(K)
    for i, ci in enumerate(pi_K.coeffs):
        term = Poly(K, [ci])
        for _ in range(i):
            term = term * lin_a
        for _ in range(deg - i):
            term = term * lin_c
        N = N + term
    lin = Poly(K, [K.neg(alpha), 1])
    q1, r1 = N.divmod(lin)
    q2, r2 = pi_K.divmod(lin)
    if not (r1.is_zero() and r2.is_zero()):
        raise Inconsistency("tau does not fix P, or alpha is not its root")
    den = K.pow_(K.add(K.mul(C, alpha), D), deg)
    return K.mul(q1.evaluate(alpha), K.inv(K.mul(q2.evaluate(alpha), den)))


def place_of_point(k: Field, K: Field, x) -> Place:
    """The closed point of P^1 over k under a point x of P^1(K) (an
    encoding or INF_POINT): the product of x - y over the Frobenius orbit
    of x, pulled back to k."""
    if x == INF_POINT:
        return Place.infinity()
    back = {int(v): i for i, v in enumerate(k.embedding_into(K))}
    orbit = [x]
    cur = K.frobenius(x, k.n)
    while cur != x:
        orbit.append(cur)
        cur = K.frobenius(cur, k.n)
    poly = Poly.one(K)
    for r in orbit:
        poly = poly * Poly(K, [K.neg(r), 1])
    if any(c not in back for c in poly.coeffs):
        raise Inconsistency("minimal polynomial has a coefficient outside "
                            "the base field")
    return Place(Poly(k, [back[c] for c in poly.coeffs]), check=False)


def reference_place_images(geo: P1Geometry, P: Place) -> list[Place]:
    """sigma(P) for every element sigma, by the geometric route: a root of
    P in GF(q^deg P) (infinity itself at infinity) is moved by
    sigma = (a, b, c, d) as a point, and the image point is turned back
    into a place by `place_of_point`."""
    k = geo.k
    K = field_make(k.p, k.n * P.degree)
    x = INF_POINT if P.is_infinity else poly_roots(P.poly.map_field(K))[0]
    out = []
    for label in geo.G.labels:
        a, b, c, d = (embed(v, k, K) for v in label)
        if x == INF_POINT:
            y = INF_POINT if c == 0 else K.mul(a, K.inv(c))
        else:
            den = K.add(K.mul(c, x), d)
            y = (INF_POINT if den == 0
                 else K.mul(K.add(K.mul(a, x), b), K.inv(den)))
        out.append(place_of_point(k, K, y))
    return out


def reference_ramified_places(geo: P1Geometry) -> list[Place]:
    """The places with nontrivial inertia by the per-element route: the
    roots in GF(q^2) of c x^2 + (d - a) x - b for every nonidentity
    element (a, b, c, d), plus infinity where c = 0, each form solved on
    its own."""
    k = geo.k
    K = field_make(k.p, 2 * k.n)
    pts = set()
    for s in range(geo.G.order):
        if s == geo.G.identity:
            continue
        a, b, c, d = (embed(x, k, K) for x in geo.G.labels[s])
        if c == 0:
            pts.add(INF_POINT)
        pts.update(poly_roots(Poly(K, [K.neg(b), K.sub(d, a), c])))
    return sorted({place_of_point(k, K, x) for x in pts},
                  key=Place.sort_key)


def is_normal(H: Subgroup) -> bool:
    s = set(H.indices)
    return all(H.parent.conjugate(g, h) in s
               for g in range(H.parent.order) for h in H.indices)


def schur_zassenhaus_complement(I: FiniteGroup, P: Subgroup) -> Subgroup:
    """Complement of a normal p-Sylow P inside I.

    A single element of order [I:P] works when the quotient is cyclic; a
    bounded two-generator search covers the rest.  Existence is guaranteed
    by Schur-Zassenhaus, so a failed search signals an inconsistent
    input."""
    if P.parent is not I:
        raise InputError("P must be a subgroup of I")
    if not is_normal(P):
        raise InputError("P must be normal in I")
    m = I.order // P.order
    if len(prime_factors(P.order)) > 1:
        raise InputError("P must be a p-group")
    if math.gcd(P.order, m) != 1:
        raise InputError("complement requires coprime order and index")
    pset = set(P.indices)
    if m == 1:
        return Subgroup(I, [I.identity], check=False)
    for g in range(I.order):
        if I.element_order(g) == m:
            cyc = I.closure([g])
            if len(cyc) == m and set(cyc) & pset == {I.identity}:
                return Subgroup(I, cyc, check=False)
    for g in range(I.order):
        if m % I.element_order(g) != 0:
            continue
        for h in range(g + 1, I.order):
            if m % I.element_order(h) != 0:
                continue
            sub = I.closure([g, h])
            if len(sub) == m and set(sub) & pset == {I.identity}:
                return Subgroup(I, sub, check=False)
    raise Inconsistency("no Schur-Zassenhaus complement found")


def projective_cover_over_inertia(I: FiniteGroup, P1: Subgroup,
                                  M: Rep) -> Rep:
    """Projective cover over k[I] of a module M on which the normal p-Sylow
    P1 acts trivially: induce the restriction to a Schur-Zassenhaus
    complement C of P1, Cov(M) = Ind_C^I Res_C M.  The engine reads the
    class of its induction off Brauer vectors instead
    (CoverData.induced_cover_class); this is the module it is tested
    against."""
    if M.group is not I:
        raise InputError("module is not over the inertia group")
    if P1.parent is not I:
        raise InputError("wild subgroup has the wrong parent")
    if not is_normal(P1):
        raise InputError("wild subgroup must be normal")
    if _p_part(P1.order, M.field.p) != P1.order:
        raise InputError("wild subgroup must be a p-group")
    if math.gcd(P1.order, I.order // P1.order) != 1:
        raise InputError("wild subgroup must be a Sylow subgroup")
    eye = Mat.identity(M.field, M.dim)
    for g in P1.indices:
        if M.image(g) != eye:
            raise InputError("wild subgroup does not act trivially")
    C = schur_zassenhaus_complement(I, P1)
    cov = rep_induce(rep_restrict(M, C), I, C)
    if cov.dim != P1.order * M.dim:
        raise Inconsistency("projective cover has unexpected dimension")
    if not is_projective(cov):
        raise Inconsistency("projective cover failed the projectivity test")
    return cov


def inertia_cover(datum, d: int) -> Rep:
    """Cov((m/m^2)^{tensor d}) over the inertia group of a ramification
    datum, as the module projective_cover_over_inertia builds."""
    Ig = datum.I_P.as_group()
    return projective_cover_over_inertia(
        Ig, datum.wild.in_subgroup_of(Ig), datum.cotangent_power(d))


def split_by_completed_basis(M: Rep, W: Mat) -> tuple[Rep, Rep]:
    """Sub and quotient actions of M on the invariant column space W, taken
    the way reps.split_on_submodule once took them: W completed by unit
    vectors to a basis P of the whole space, each generator conjugated to
    P^-1 A P, and the diagonal blocks read off."""
    F, d, r = M.field, W.rows, W.cols
    eb = EchelonBasis(F, d)
    for c in range(r):
        if not eb.add(W.a[:, c]):
            raise Inconsistency("submodule basis is not independent")
    eye = Mat.identity(F, d)
    extra = [i for i in range(d) if len(eb) < d and eb.add(eye.a[i])]
    P = W.hstack(eye.columns(extra))
    Pinv = P.inv()
    images = [Pinv @ A @ P for A in M.generator_images()]
    if any(np.any(C.a[r:, :r]) for C in images):
        raise Inconsistency("claimed submodule is not invariant")
    return tuple(Rep(M.group, F, hi - lo,
                     {t: C.submatrix(range(lo, hi), range(lo, hi))
                      for t, C in enumerate(images)})
                 for lo, hi in ((0, r), (r, d)))
