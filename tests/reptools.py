"""Module-theoretic tools that only the tests use: an explicit-intertwiner
isomorphism test, the socle dimension, the Cartan matrix by splitting
k[G] into projective indecomposables, and the Riemann-Roch action by
moving every basis function on its own."""

import random

from equirr.errors import CapExceeded, Inconsistency
from equirr.fields import Field, Poly
from equirr.geometry import Divisor, P1Geometry
from equirr.groups import FiniteGroup
from equirr.matrices import Mat
from equirr.reps import (Rep, SimpleRegistry, hom_dim, hom_space,
                         indecomposable_summands, regular_endomorphisms,
                         rep_regular)

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


def socle_dim(M: Rep, registry: SimpleRegistry) -> int:
    """Dimension of the sum of all simple submodules."""
    cols = None
    for S in registry.simples:
        if S.dim > M.dim:
            continue
        for X in hom_space(S, M):
            cols = X if cols is None else cols.hstack(X)
    return 0 if cols is None else cols.rank()


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
    return [[int(classes[j].coeff(i)) for j in range(s)] for i in range(s)]


def reference_rr_action(geo: P1Geometry, D: Divisor) -> list[Mat]:
    """The matrix of each generator of G on L(D) by the direct route: every
    basis function f_j = u x^j is composed with sigma^{-1} and divided by
    u, and what is left must be a polynomial of degree <= deg D, read off
    as column j."""
    basis = geo.rr_space_basis(D)
    dim = len(basis)
    u = geo._rr_generator(D)
    G = geo.G
    out = []
    for g in G.generators:
        A, B, C, Dd = G.labels[G.inverse[g]]
        cols = []
        for f in basis:
            w = f.compose_mobius(A, B, C, Dd) / u
            if w.den != Poly.one(geo.k) or w.num.degree >= dim:
                raise Inconsistency("moved basis element left L(D)")
            cols.append(list(w.num.coeffs) + [0] * (dim - len(w.num.coeffs)))
        out.append(Mat.from_rows(geo.k, [[cols[j][i] for j in range(dim)]
                                         for i in range(dim)]))
    return out
