"""Grothendieck-group arithmetic: Cartan data read off the exact inverse of
the Gram matrix that each simple registry keeps for its class solves,
image-of-Cartan membership through the exact inverse of the Cartan matrix
(from the same duality), finite-level scalar extension, and the
Cartesian-diagram cross-check between a base field and an extension."""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import Inconsistency, InputError
from .fields import Field
from .groups import FiniteGroup
# smith_normal_form stays imported: CartanData's bare-matrix path inverts
# through it, and the benchmark tracer finds the one that every registry's
# Gram matrix takes under this name (k0.smith_normal_form)
from .reps import (ClassVector, SimpleRegistry, extend_scalars,
                   smith_normal_form, snf_inverse)


# -- Cartan data ---------------------------------------------------------------


class CartanData:
    """The Cartan matrix over one (group, field, registry), with its
    columns as classes (the projective indecomposables P_j), the
    dimensions of the P_j and the exact inverse: `inverse` is (W, L) with
    C^-1 = W / L, W an integer matrix.  cartan_data passes the inverse it
    knows; without one it is taken from the Smith normal form of C, which
    must be nonsingular."""

    def __init__(self, group, field, registry, matrix, inverse=None):
        self.group = group
        self.field = field
        self.registry = registry
        self.matrix = matrix  # matrix[i][j] = mult of simple i in PIM_j
        if inverse is None:
            inverse = snf_inverse(smith_normal_form(matrix))
            if inverse is None:
                raise Inconsistency("Cartan matrix is singular")
        self.inverse = inverse
        columns = [[row[j] for row in matrix] for j in range(self.size)]
        self.pim_classes = [ClassVector(registry, col) for col in columns]
        self.pim_dims = [sum(c * S.dim for c, S in zip(col, registry.simples))
                         for col in columns]

    @property
    def size(self):
        return len(self.matrix)


def cartan_data(G: FiniteGroup, field: Field,
                registry: SimpleRegistry) -> CartanData:
    """The Cartan matrix C = M^-1 diag(e), read off the Brauer characters
    of the simples: no module is split and nothing is drawn at random.

    Here e_i = dim End(S_i) and M_il = <phi_i, phi_l> = (1/|G|) sum over
    the p-regular g of phi_i(g) phi_l(g^-1), for the Brauer characters
    phi_i of the simples.  The characters Phi_j of the projective
    indecomposables satisfy <Phi_j, phi_i> = e_i delta_ij: over a
    splitting field the two families are dual bases (Serre, Linear
    Representations of Finite Groups, Part III, section 18), and S_i splits
    into e_i Galois conjugates.  With Phi_j = sum_i C_ij phi_i and M
    symmetric, that is C^T M = diag(e).

    Each class term lies in Q(zeta_m) and the sum is rational, so zeta_m^d
    may be replaced by its Galois average: the registry sums it in
    integers as gram = B^T P B = |G| L M (SimpleRegistry.gram, B the
    matrix of the simples' Brauer vectors, L the lcm of phi(m) over the
    class orders) and keeps the one exact inverse W = Lg gram^-1 that its
    class solves use too.  C = |G| L gram^-1 diag(e) is read off W, and
    the same duality gives C^-1 = diag(e)^-1 gram / (|G| L) with no second
    solve; CartanData keeps it for cartan_coordinates.  C must be
    integral and nonnegative with a positive diagonal, the e_i must add up
    to the number of p-regular classes (each S_i (x) k-bar is the sum of
    e_i Galois conjugate absolutely simple modules, and Brauer counts
    those by the p-regular classes), and the regular module must decompose
    as k[G] = sum_j (dim S_j / e_j) P_j on classes.  That regular identity
    checks that the registry is complete.  The class of k[G] is solved
    from its closed-form Brauer vector (SimpleRegistry.regular_class), so
    the check builds no matrix of k[G]."""
    if registry.group is not G or registry.field is not field:
        raise InputError("registry does not match the requested group")
    _, _, gram, W, Lg, L = registry.gram  # W = Lg gram^-1
    s = len(gram)
    e = [registry.end_dim(i) for i in range(s)]
    scale = G.order * L
    scaled = [[scale * e[j] * W[i][j] for j in range(s)] for i in range(s)]
    if (any(c % Lg or c < 0 for row in scaled for c in row)
            or any(scaled[i][i] < Lg for i in range(s))):
        raise Inconsistency(
            "the Cartan matrix read off the Brauer characters is not a "
            "nonnegative integer matrix with a positive diagonal: "
            f"{[[str(Fraction(c, Lg)) for c in row] for row in scaled]}")
    matrix = [[c // Lg for c in row] for row in scaled]
    classes = len(registry.brauer.orders)
    if sum(e) != classes:
        raise Inconsistency(
            f"the dims of End(S_i) add up to {sum(e)}, not to the "
            f"{classes} p-regular classes")
    copies = []
    for S, end_dim in zip(registry.simples, e):
        if S.dim % end_dim:
            raise Inconsistency("dim S is not a multiple of dim End(S)")
        copies.append(S.dim // end_dim)
    regular = [sum(n * row[j] for j, n in enumerate(copies))
               for row in matrix]
    if registry.regular_class().coeffs != tuple(regular):
        raise Inconsistency("k[G] is not the sum of dim S_j / dim End(S_j) "
                            "copies of each P_j on classes")
    # C^-1 = diag(e)^-1 gram / (|G| L) = W' / (|G| L lcm(e))
    lcm_e = math.lcm(*e)
    return CartanData(G, field, registry, matrix,
                      ([[lcm_e // e[i] * c for c in gram[i]]
                        for i in range(s)], scale * lcm_e))


def cartan_coordinates(v: ClassVector,
                       cd: CartanData) -> list[int | Fraction]:
    """The unique rational x with Cartan * x = v, each entry an int where
    it is integral and a Fraction otherwise: x = W v / L for the exact
    inverse cd.inverse = (W, L).  v must be a class over cd's registry."""
    if v.registry is not cd.registry:
        raise InputError("the class and the Cartan data are over different "
                         "registries")
    W, L = cd.inverse
    out = []
    for row in W:
        x = sum(w * c for w, c in zip(row, v.coeffs))
        if type(x) is int and x % L == 0:
            out.append(x // L)
        else:
            x = Fraction(x, L)
            out.append(x.numerator if x.denominator == 1 else x)
    return out


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


def beta_vector(v: ClassVector, registry2: SimpleRegistry) -> ClassVector:
    """Image of a class under scalar extension, computed simple by simple."""
    out = registry2.zero()
    for i, c in enumerate(v.coeffs):
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
