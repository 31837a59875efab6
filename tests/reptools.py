"""Module-theoretic tools that only the tests use: a seeded source for the
draws of reps.chop (chop_draws), the direct sum of two modules, the split of a
module on a submodule, the basis classes of a registry, a registry saturated by
the MeatAxe chop of Ind_P^G(k) for every group (the reference for the closed
form of a p-by-cyclic group), the eigenvalue counts of a matrix by its
characteristic polynomial at every size, the regular module k[G] and its
endomorphisms read off the multiplication table, an explicit-intertwiner
isomorphism test, the class of a module by counting the composition factors of
a chop, the image of a class under scalar extension solved simple by simple
(the reference for k0.beta_vector), the dimension of a class, the socle
dimension, the head multiplicities of a projective module by Hom systems into
the simples, the Cartan matrix by splitting k[G] into projective
indecomposables, the Riemann-Roch action by moving every basis function on its
own, the cocycle value of a decomposition element by division at a root, the
image of a place by moving one of its roots as a point, the ramified places by
solving the fixed-point form of every element, the projective cover over an
inertia group as a module, induced from a Schur-Zassenhaus complement, the
split of a module on a submodule through a completed basis and its inverse,
spinning one vector at a time through an incrementally echelonized row basis
(EchelonBasis), the reference for the block spin of reps._spin, the class of
one cotangent twist induced from the tame complement (the reference for the
twist tables of engine.CoverData), the projective-class test on Cartan
coordinates, the all-elements projectivity test, and small field, polynomial, matrix and place utilities that no
command needs."""

import math
import random
from contextlib import contextmanager

import numpy as np

from equirr.errors import CapExceeded, Inconsistency, InputError
from equirr.fields import (Field, Poly, field_make, poly_is_irreducible,
                           poly_roots, prime_factors)
from equirr.geometry import INF_POINT, Divisor, P1Geometry, Place
from equirr.k0 import CartanData, cartan_coordinates
from equirr.groups import FiniteGroup, _p_part, coset_lookup, sylow_p
from equirr.matrices import Mat
from equirr.reps import (BrauerCharacters, ClassVector, Rep, SimpleRegistry,
                         _check_compatible, _check_hom_cells, _divide_linear,
                         _echelon, _split_pieces, chop, extend_scalars,
                         hom_dim, hom_space, indecomposable_summands,
                         is_projective, rep_induce, rep_restrict,
                         rep_trivial)

# random combinations of a Hom basis tried for an invertible one
ISO_TRIES = 60


@contextmanager
def chop_draws(seed: int):
    """While the block runs, every reps.chop called with no source of its
    own, as the registries call it, draws from one random.Random(seed)
    instead of a fresh random.Random(0) per chop: the tests vary the
    MeatAxe's draws with it.  It sets the default of the function itself,
    so it holds through a wrapper of reps.chop that passes on only the
    arguments it is given."""
    saved = chop.__defaults__
    chop.__defaults__ = (random.Random(seed),)
    try:
        yield
    finally:
        chop.__defaults__ = saved


# -- small utilities ----------------------------------------------------------


def embed(a: int, source: Field, target: Field) -> int:
    return int(source.embedding_into(target)[a])


def div(F: Field, a: int, b: int) -> int:
    return F.mul(a, F.inv(b))


def elements(F: Field):
    return range(F.q)


def evaluate(f: Poly, a: int) -> int:
    """f(a) by Horner's rule."""
    F = f.field
    acc = 0
    for c in reversed(f.coeffs):
        acc = F.add(F.mul(acc, a), c)
    return acc


def to_lists(M: Mat) -> list[list[int]]:
    return M.a.tolist()


def columns(M: Mat, cols) -> Mat:
    return Mat(M.field, np.ascontiguousarray(M.a[:, list(cols)]))


def places_up_to(k: Field, bound: int) -> list[Place]:
    """Infinity plus all monic irreducibles of degree <= bound over k,
    in deterministic (degree, encoding) order."""
    if bound < 1:
        raise InputError("place degree bound must be at least 1")
    out = [Place.infinity()]
    for d in range(1, bound + 1):
        for low in range(k.q**d):
            coeffs = []
            v = low
            for _ in range(d):
                coeffs.append(v % k.q)
                v //= k.q
            cand = Poly(k, coeffs + [1])
            if poly_is_irreducible(cand):
                out.append(Place(cand, check=False))
    return out


def is_projective_class(v: ClassVector, cd: CartanData) -> bool:
    """True iff v is a nonnegative integer combination of Cartan columns;
    coefficients are unique because the Cartan map is injective."""
    if not v.is_integral():
        raise InputError("projective-class test needs an integral class")
    return all(c.denominator == 1 and c >= 0
               for c in cartan_coordinates(v, cd))


def reference_is_projective(M: Rep) -> bool:
    """The all-elements projectivity test (the reference for
    reps.is_projective): free over k[P] for a Sylow p-subgroup P iff
    dim M = |P| * dim(M / rad M), with rad M spanned by (g - 1)v over
    every g in P, as generators alone would not span it for a nonabelian
    P."""
    G = M.group
    P = sylow_p(G, M.field.p)
    if P.order == 1 or M.dim == 0:
        return True
    eye = Mat.identity(M.field, M.dim)
    blocks = [(M.image(g) - eye).a for g in P.positions_in(G)
              if g != G.identity]
    rad_dim = Mat(M.field, np.concatenate(blocks, axis=1)).rank()
    return M.dim == P.order * (M.dim - rad_dim)


def rep_regular(G: FiniteGroup, field: Field) -> Rep:
    """Left-regular action on the group algebra: permutation matrices."""
    n = G.order
    images = {}
    for t, g in enumerate(G.generators):
        a = np.zeros((n, n), dtype=np.int64)
        a[G.table[g], range(n)] = 1
        images[t] = Mat(field, a)
    return Rep(G, field, n, images)


def regular_endomorphisms(G: FiniteGroup, field: Field) -> list[Mat]:
    """End(k[G]) for rep_regular(G, field), read off the multiplication
    table: the right multiplications R_h (column j to row G.table[j][h]),
    the basis, in its order, that reps.hom_space(k[G], k[G]) returns from
    a Kronecker system of |G|^4 cells per generator.

    reps.hom_space returns the nullspace basis that is the identity on
    the free columns of its system, and those are the positions where some
    kernel vector has its last nonzero entry; the R_h have disjoint 0/1
    supports, so that basis is the R_h ordered by the row-major position
    of their last nonzero entry.  The |G|^3 cells are checked against
    reps.HOM_CELL_CAP."""
    n = G.order
    _check_hom_cells(n ** 3, f"End(k[G]) for |G| = {n}")
    table = np.array(G.table, dtype=np.int64)  # table[j][h] = j h
    cols = np.arange(n)
    last = (table * n + cols[:, None]).max(axis=0)
    out = []
    for h in np.argsort(last):
        a = np.zeros((n, n), dtype=np.int64)
        a[table[:, h], cols] = 1
        out.append(Mat(field, a))
    return out


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


def rep_direct_sum(M: Rep, N: Rep) -> Rep:
    _check_compatible(M, N)
    F = M.field
    images = {}
    for t in range(len(M.group.generators)):
        a = np.zeros((M.dim + N.dim, M.dim + N.dim), dtype=np.int64)
        a[:M.dim, :M.dim] = M.gen_image(t).a
        a[M.dim:, M.dim:] = N.gen_image(t).a
        images[t] = Mat(F, a)
    return Rep(M.group, F, M.dim + N.dim, images)


def split_on_submodule(M: Rep, W: Mat) -> tuple[Rep, Rep]:
    """Sub and quotient actions for an invariant column space W, split as
    reps.chop splits a module on a submodule the MeatAxe found."""
    (sub, _), (quot, _) = _split_pieces(M, *_echelon(W))
    return sub, quot


def basis_vector(registry: SimpleRegistry, i: int, mult=1) -> ClassVector:
    """mult times the class of the i-th simple of the registry."""
    coeffs = [0] * len(registry)
    coeffs[i] = mult
    return ClassVector(registry, coeffs)


class ChopRegistry(SimpleRegistry):
    """A registry saturated by the MeatAxe whatever its group: the first
    composition factor found for each Brauer vector in the chop of
    Ind_P^G(k), P a Sylow p-subgroup, with the Norton kernel that
    certified it, sorted by (dim, vector) as SimpleRegistry sorts.  The
    chop draws from a source seeded by seed (chop_draws)."""

    def __init__(self, group: FiniteGroup, field: Field, seed: int):
        super().__init__(group, field)
        self.seed = seed

    def _saturate(self):
        brauer = self.brauer
        found = {}
        source = rep_induce(rep_trivial(sylow_p(self.group, self.field.p),
                                        self.field), self.group)
        with chop_draws(self.seed):
            chopped = chop(source)
        for S, U in chopped:
            found.setdefault(brauer.vector(S, [1])[0], (S, U))
        return dict(sorted(found.items(),
                           key=lambda kv: (kv[1][0].dim, kv[0])))


def reference_saturation(G: FiniteGroup, k: Field,
                         seed: int) -> SimpleRegistry:
    """The registry over (G, k) from the chop of Ind_P^G(k), with the
    chop's draws seeded by seed: the reference for the closed form that
    SimpleRegistry takes when P is normal in G and G/P is cyclic."""
    return ChopRegistry(G, k, seed)


def reference_eigenvalue_counts(brauer: BrauerCharacters, A: Mat,
                                m: int) -> list[int]:
    """BrauerCharacters.eigenvalue_counts by the characteristic polynomial
    for every size of A, 1 x 1 included: exact division by each x -
    zeta_m^j in turn.  The reference for the lookup of a 1 x 1 matrix's
    eigenvalue in the root table."""
    E = brauer.ambient
    coeffs = list(A.charpoly().map_field(E).coeffs)
    counts = [0] * m
    for j, z in enumerate(brauer._root_table(m)):
        while len(coeffs) > 1:
            quot, rem = _divide_linear(E, coeffs, z)
            if rem:
                break
            coeffs = quot
            counts[j] += 1
    if sum(counts) != A.rows:
        raise Inconsistency("the eigenvalues of a p-regular element "
                            "are not roots of unity of its order")
    return counts


def reference_induced_vector(brauer: BrauerCharacters, M: Rep):
    """The Brauer vector of Ind_H^G M, H = M.group, by the coset walk as it
    was before the walk took exponents: each cycle adds the eigenvalue
    counts of its block to g's counts as it is found.  The reference for
    BrauerCharacters.vector(M, [1])."""
    G = brauer.group
    reps, where = coset_lookup(G, M.group)
    block_counts: dict[tuple[int, int], list[int]] = {}
    found = []
    for g, m in brauer.generators:
        row = G.table[g]
        counts = [0] * m
        seen = [False] * len(reps)
        for j, x in enumerate(reps):
            if seen[j]:
                continue
            length, y = 0, x
            while True:
                y = row[y]
                length += 1
                i, h = where[y]
                seen[i] = True
                if i == j:
                    break
            step = m // length
            if (h, step) not in block_counts:
                block_counts[h, step] = brauer.eigenvalue_counts(
                    M.image(h), step)
            for s, c in enumerate(block_counts[h, step]):
                for t in range(s, m, step):
                    counts[t] += c
        found.append(counts)
    return brauer._spread(found)


def class_of_induced(registry: SimpleRegistry, M: Rep) -> ClassVector:
    """The class of Ind_H^G M over the registry of G, H = M.group, as a
    one-column batch."""
    return registry.classes_of([M], [1])[0]


def twist_class(cover, datum, d: int, group: FiniteGroup) -> ClassVector:
    """[Ind_C^group Res_C (m/m^2)^{tensor d}] for the tame complement C,
    from the d-th cotangent power built as its own module: the per-twist
    route that the twist tables of CoverData.induced_cover_class
    replace."""
    C, _ = cover.tame_complement(datum)
    reg, _ = cover.registry_for(group)
    return class_of_induced(reg, rep_restrict(datum.cotangent_power(d), C))


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
    for S, _ in chop(M, rng):
        i = index.get(registry.brauer.vector(S, [1])[0])
        if i is None:
            raise Inconsistency(f"a dim-{S.dim} composition factor is no "
                                "simple of the registry")
        coeffs[i] += 1
    return ClassVector(registry, coeffs)


def reference_beta(v: ClassVector, registry2: SimpleRegistry) -> ClassVector:
    """The image of v under scalar extension to registry2.field, simple by
    simple: the class of each S_i (x) k' solved from its Brauer vector by
    registry2.class_of.  The reference for k0.beta_vector, which reads the
    same map off the descent of an extension registry."""
    out = registry2.zero()
    for i, c in enumerate(v.coeffs):
        if c:
            ext = extend_scalars(v.registry.simples[i], registry2.field)
            out = out + registry2.class_of(ext).scale(c)
    return out


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
    return K.mul(evaluate(q1, alpha),
                 K.inv(K.mul(evaluate(q2, alpha), den)))


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


def is_normal(H: FiniteGroup, G: FiniteGroup) -> bool:
    s = set(H.positions_in(G))
    return all(G.conjugate(g, h) in s for g in range(G.order) for h in s)


def schur_zassenhaus_complement(I: FiniteGroup,
                                P: FiniteGroup) -> FiniteGroup:
    """Complement of a normal p-Sylow P inside I.

    A single element of order [I:P] works when the quotient is cyclic; a
    bounded two-generator search covers the rest.  Existence is guaranteed
    by Schur-Zassenhaus, so a failed search signals an inconsistent
    input.  A P that is not a subgroup of I raises InputError
    (P.positions_in)."""
    if not is_normal(P, I):
        raise InputError("P must be normal in I")
    m = I.order // P.order
    if len(prime_factors(P.order)) > 1:
        raise InputError("P must be a p-group")
    if math.gcd(P.order, m) != 1:
        raise InputError("complement requires coprime order and index")
    pset = set(P.positions_in(I))
    if m == 1:
        return I.subgroup([I.identity])
    for g in range(I.order):
        if I.element_order(g) == m:
            cyc = I.closure([g])
            if len(cyc) == m and set(cyc) & pset == {I.identity}:
                return I.subgroup(cyc)
    for g in range(I.order):
        if m % I.element_order(g) != 0:
            continue
        for h in range(g + 1, I.order):
            if m % I.element_order(h) != 0:
                continue
            sub = I.closure([g, h])
            if len(sub) == m and set(sub) & pset == {I.identity}:
                return I.subgroup(sub)
    raise Inconsistency("no Schur-Zassenhaus complement found")


def projective_cover_over_inertia(I: FiniteGroup, P1: FiniteGroup,
                                  M: Rep) -> Rep:
    """Projective cover over k[I] of a module M on which the normal p-Sylow
    P1 acts trivially: induce the restriction to a Schur-Zassenhaus
    complement C of P1, Cov(M) = Ind_C^I Res_C M.  The engine reads the
    class of its induction off Brauer vectors instead
    (CoverData.induced_cover_class); this is the module it is tested
    against."""
    if M.group is not I:
        raise InputError("module is not over the inertia group")
    if not is_normal(P1, I):
        raise InputError("wild subgroup must be normal")
    if _p_part(P1.order, M.field.p) != P1.order:
        raise InputError("wild subgroup must be a p-group")
    if math.gcd(P1.order, I.order // P1.order) != 1:
        raise InputError("wild subgroup must be a Sylow subgroup")
    eye = Mat.identity(M.field, M.dim)
    for g in P1.positions_in(I):
        if M.image(g) != eye:
            raise InputError("wild subgroup does not act trivially")
    C = schur_zassenhaus_complement(I, P1)
    cov = rep_induce(rep_restrict(M, C), I)
    if cov.dim != P1.order * M.dim:
        raise Inconsistency("projective cover has unexpected dimension")
    if not is_projective(cov):
        raise Inconsistency("projective cover failed the projectivity test")
    return cov


def inertia_cover(datum, d: int) -> Rep:
    """Cov((m/m^2)^{tensor d}) over the inertia group of a ramification
    datum, as the module projective_cover_over_inertia builds."""
    return projective_cover_over_inertia(datum.I_P, datum.wild,
                                         datum.cotangent_power(d))


def split_by_completed_basis(M: Rep, W: Mat) -> tuple[Rep, Rep]:
    """Sub and quotient actions of M on the invariant column space W, taken
    the way split_on_submodule once took them: W completed by unit
    vectors to a basis P of the whole space, each generator conjugated to
    P^-1 A P, and the diagonal blocks read off."""
    F, d, r = M.field, W.rows, W.cols
    eb = EchelonBasis(F, d)
    for c in range(r):
        if not eb.add(W.a[:, c]):
            raise Inconsistency("submodule basis is not independent")
    eye = Mat.identity(F, d)
    extra = [i for i in range(d) if len(eb) < d and eb.add(eye.a[i])]
    P = W.hstack(columns(eye, extra))
    Pinv = P.inv()
    images = [Pinv @ A @ P for A in M.generator_images()]
    if any(np.any(C.a[r:, :r]) for C in images):
        raise Inconsistency("claimed submodule is not invariant")
    return tuple(Rep(M.group, F, hi - lo,
                     {t: C.submatrix(range(lo, hi), range(lo, hi))
                      for t, C in enumerate(images)})
                 for lo, hi in ((0, r), (r, d)))


class EchelonBasis:
    """Incrementally echelonized row collection used by spinning loops.

    add() reduces the vector against the stored rows; if a nonzero residue
    remains it is normalized, inserted, and True is returned.
    """

    def __init__(self, field: Field, width: int):
        self.field = field
        self.width = width
        self.rows: list[np.ndarray] = []
        self.pivot_cols: list[int] = []

    def __len__(self):
        return len(self.rows)

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        F = self.field
        v = np.array(vec, dtype=np.int64)
        for row, pc in zip(self.rows, self.pivot_cols):
            coef = int(v[pc])
            if coef:
                v = F.sub_array(v, F.mul_array(row, coef))
        return v

    def add(self, vec: np.ndarray) -> bool:
        F = self.field
        v = self.reduce(vec)
        nz = v.nonzero()[0]
        if nz.size == 0:
            return False
        pc = int(nz[0])
        lead = int(v[pc])
        if lead != 1:
            v = F.mul_array(v, F.inv(lead))
        # back-reduce existing rows to keep reduction canonical
        for i, row in enumerate(self.rows):
            coef = int(row[pc])
            if coef:
                self.rows[i] = F.sub_array(row, F.mul_array(v, coef))
        self.rows.append(v)
        self.pivot_cols.append(pc)
        return True

    def as_matrix(self) -> Mat:
        if not self.rows:
            return Mat.zeros(self.field, 0, self.width)
        return Mat(self.field, np.stack(self.rows))


def reference_spin(field: Field, dim: int, seeds,
                   gen_mats) -> tuple[np.ndarray, list[int]]:
    """reps._spin one vector at a time: pop a basis row, add its image
    under each generator to the EchelonBasis, queue what is new.  The rows
    are fully reduced, so sorting them by pivot gives the reduced column
    echelon form E and its pivot rows with no elimination."""
    eb = EchelonBasis(field, dim)
    queue = []
    for v in seeds:
        if eb.add(v):
            queue.append(eb.rows[-1].copy())
    while queue:
        v = queue.pop()
        col = Mat(field, v[:, None])
        for A in gen_mats:
            w = (A @ col).a[:, 0]
            if eb.add(w):
                queue.append(eb.rows[-1].copy())
    order = sorted(range(len(eb)), key=eb.pivot_cols.__getitem__)
    return (np.ascontiguousarray(eb.as_matrix().a[order].T),
            [eb.pivot_cols[i] for i in order])
