"""Grothendieck-group arithmetic: Cartan data, image-of-Cartan membership
via integer Smith normal form, finite-level scalar extension, and the
Cartesian-diagram cross-check between a base field and an extension."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import Inconsistency, InputError
from .fields import Field
from .groups import FiniteGroup
from .reps import (ClassVector, Rep, SimpleRegistry, indecomposable_summands,
                   regular_endomorphisms, rep_regular)


# -- integer Smith normal form ------------------------------------------------


def smith_normal_form(A):
    """U A V = D with U, V unimodular and D diagonal with d_i | d_{i+1}.

    Plain integer row/column reduction; matrices here are tiny (one row and
    column per simple module)."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    D = [list(r) for r in A]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, k):  # row_i -= k * row_j
        D[i] = [a - k * b for a, b in zip(D[i], D[j])]
        U[i] = [a - k * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, k):  # col_i -= k * col_j
        for r in range(rows):
            D[r][i] -= k * D[r][j]
        for r in range(cols):
            V[r][i] -= k * V[r][j]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(rows):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        for r in range(cols):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    t = 0
    while t < min(rows, cols):
        # locate a nonzero entry of least absolute value in the rest
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if D[i][j] and (best is None
                                or abs(D[i][j]) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, rows):
            if D[i][t]:
                row_op(i, t, D[i][t] // D[t][t])
                if D[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if D[t][j]:
                col_op(j, t, D[t][j] // D[t][t])
                if D[t][j]:
                    dirty = True
        if dirty:
            continue
        # divisibility sweep: pivot must divide everything below-right
        ok = True
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if D[i][j] % D[t][t]:
                    row_op(t, i, -1)  # pull the offending row up
                    ok = False
                    break
            if not ok:
                break
        if ok:
            if D[t][t] < 0:
                D[t] = [-x for x in D[t]]
                U[t] = [-x for x in U[t]]
            t += 1
    return U, D, V


# -- Cartan data ---------------------------------------------------------------


class CartanData:
    """Projective-indecomposable classes and the Cartan matrix over one
    (group, field, registry).  The Smith normal form U C V = D of the
    Cartan matrix C is computed once; C must be nonsingular."""

    def __init__(self, group, field, registry, pim_reps, pim_classes,
                 matrix):
        self.group = group
        self.field = field
        self.registry = registry
        self.pim_reps = pim_reps
        self.pim_classes = pim_classes
        self.matrix = matrix  # matrix[i][j] = mult of simple i in PIM_j
        self.snf = smith_normal_form(matrix)
        _, D, _ = self.snf
        if any(D[i][i] == 0 for i in range(self.size)):
            raise Inconsistency("Cartan matrix is singular")

    @property
    def size(self):
        return len(self.matrix)

    def to_json(self):
        return {"size": self.size,
                "pim_dims": [p.dim for p in self.pim_reps],
                "matrix": self.matrix}


def cartan_data(G: FiniteGroup, field: Field, registry: SimpleRegistry,
                rng: random.Random) -> CartanData:
    """PIMs from splitting the regular module, grouped by head; the Cartan
    matrix collects their composition factors.  End(k[G]) comes from the
    multiplication table, not from a Hom system."""
    if registry.group is not G or registry.field is not field:
        raise InputError("registry does not match the requested group")
    reg = rep_regular(G, field)
    s = len(registry)
    by_head: dict[int, list[Rep]] = {}
    ends = regular_endomorphisms(G, field)
    for P, head in indecomposable_summands(reg, ends, registry, rng):
        by_head.setdefault(head, []).append(P)
    if set(by_head) != set(range(s)):
        raise Inconsistency("some simple has no projective cover in k[G]")
    pim_reps = []
    for i, S in enumerate(registry.simples):
        end_dim = registry.end_dim(i)
        if S.dim % end_dim:
            raise Inconsistency("dim S is not a multiple of dim End(S)")
        expected = S.dim // end_dim
        if len(by_head[i]) != expected:
            raise Inconsistency(
                f"simple {i}: found {len(by_head[i])} covers in k[G], "
                f"expected {expected}")
        pim_reps.append(by_head[i][0])
    pim_classes = [registry.class_of(P) for P in pim_reps]
    matrix = [[int(pim_classes[j].coeff(i)) for j in range(s)]
              for i in range(s)]
    # Cartan columns of distinct heads must agree within each head group
    for i in range(s):
        ref = pim_classes[i]
        for other in by_head[i][1:]:
            if registry.class_of(other) != ref:
                raise Inconsistency("covers with equal head have distinct "
                                    "classes")
    return CartanData(G, field, registry, pim_reps, pim_classes, matrix)


def cartan_coordinates(v: ClassVector, cd: CartanData) -> list[Fraction]:
    """The unique rational x with Cartan * x = v: x = V D^-1 U v."""
    target = v.padded()
    if len(target) != cd.size:
        raise InputError("class vector length does not match the registry")
    U, D, V = cd.snf
    s = cd.size
    # integers over one common denominator m * L: t = m v is integral, and
    # D^-1 U t = y / L with y_i = (U t)_i * (L / D_i)
    m = math.lcm(*(c.denominator for c in target))
    L = math.lcm(*(D[i][i] for i in range(s)))
    t = [c.numerator * (m // c.denominator) for c in target]
    y = [sum(u * tk for u, tk in zip(U[i], t)) * (L // D[i][i])
         for i in range(s)]
    return [Fraction(sum(vk * yk for vk, yk in zip(V[i], y)), m * L)
            for i in range(s)]


def in_cartan_image(v: ClassVector, cd: CartanData) -> bool:
    """Integer-lattice membership of v in the span of the Cartan columns:
    its Cartan coordinates are integral."""
    if not v.is_integral():
        raise InputError("Cartan membership needs an integral class")
    return all(c.denominator == 1 for c in cartan_coordinates(v, cd))


def is_projective_class(v: ClassVector, cd: CartanData) -> bool:
    """True iff v is a nonnegative integer combination of Cartan columns;
    coefficients are unique because the Cartan map is injective."""
    if not v.is_integral():
        raise InputError("projective-class test needs an integral class")
    return all(c.denominator == 1 and c >= 0
               for c in cartan_coordinates(v, cd))


# -- scalar extension -----------------------------------------------------------


def extend_scalars(M: Rep, target: Field) -> Rep:
    """Same matrices with entries pushed through the canonical embedding;
    realizes the base-change map on classes at a finite level."""
    if target.p != M.field.p or target.n % M.field.n != 0:
        raise InputError("target is not an extension of the module's field")
    images = {t: M.gen_image(t).map_field(target)
              for t in range(len(M.group.generators))}
    return Rep(M.group, target, M.dim, images)


def beta_vector(v: ClassVector, registry2: SimpleRegistry) -> ClassVector:
    """Image of a class under scalar extension, computed simple by simple."""
    out = registry2.zero()
    for i, c in enumerate(v.padded()):
        if c == 0:
            continue
        ext = extend_scalars(v.registry.simples[i], registry2.field)
        out = out + registry2.class_of(ext).scale(c)
    return out


def cartesian_check(v: ClassVector, cd_base: CartanData,
                    cd_ext: CartanData):
    """Membership in the Cartan image must transfer along scalar extension
    in both directions; returns (agree, base_verdict, ext_verdict)."""
    base = in_cartan_image(v, cd_base)
    ext = in_cartan_image(beta_vector(v, cd_ext.registry), cd_ext)
    return base == ext, base, ext
