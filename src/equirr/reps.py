"""Matrix representations of finite groups over finite fields.

Classes in the Grothendieck group of finitely generated modules are
coordinates over a registry of simple modules, one per simple.  The
Brauer character (BrauerCharacters: eigenvalue multiplicities on
p-regular classes, read off characteristic polynomials) is the registry's
one invariant: it keys, orders and identifies the simples.  chop()
returns a module's composition factors by a Norton/Parker style MeatAxe
(random algebra elements, kernel vectors of the irreducible factors of
their characteristic polynomials, found lazily and shared by the pieces
of a split, submodule spinning, recursion on sub and quotient, split in
the submodule's echelon basis), each certified simple.  A registry is
one table {Brauer vector: simple}, built by one saturation from the
factors of its chop and fixed after that.  Each registry keeps the Gram
matrix of its simples' Brauer characters and the one exact inverse that
snf_inverse gives from its Smith normal form: each class solve is one
matrix-vector product with the left inverse read off it, and
k0.cartan_data reads the Cartan matrix off the same inverse.
Direct-sum splitting (primary decomposition along random endomorphisms,
each unsplit piece certified by its simple head) is kept separate; the
engine reads the Cartan matrix off Brauer characters instead, and the
tests use the split as an independent cross-check of it.

All randomized routines draw from an explicit random.Random so a run is
reproducible from its seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import CapExceeded, Inconsistency, InputError
from .fields import (TABLE_LIMIT, FactorStream, Field, Poly, field_make,
                     galois_pairing, poly_factor, totient_mobius)
from .groups import (FiniteGroup, Subgroup, conjugacy_classes, coset_lookup,
                     sylow_p)
from .matrices import EchelonBasis, Mat

# Algebra elements the MeatAxe tries on one module before it gives up: a
# round is one element theta, with the irreducible factors of its
# characteristic polynomial tried in turn.  The element inherited from the
# parent's split counts as a round.  A module not decided within the budget
# raises CapExceeded (exit 3): "did not decide a dim-d module in 80 rounds;
# rerun with a different seed".
MEATAXE_ROUNDS = 80
SPLIT_ROUNDS = 60
SUMMAND_DIM_CAP = 400
# Largest Hom system hom_space builds, in int64 cells (256 MiB per copy;
# elimination holds a few copies).  The engine solves Hom systems only for
# dim End(S) of simple modules; on the seed-0 benchmark workloads the
# largest has 162 cells (big-group), 32 (golden-suite) and 1 (big-divisor).
HOM_CELL_CAP = 1 << 25


def subgroup_to_parent(H: Subgroup) -> list[int]:
    """Map position in H.as_group() to index in H.parent."""
    Hg = H.as_group()
    parent_pos = {r: i for i, r in enumerate(H.parent.root_index)}
    return [parent_pos[r] for r in Hg.root_index]


class Rep:
    """A matrix representation: images for the group's generators, other
    images rebuilt from generator words and cached."""

    def __init__(self, group: FiniteGroup, field: Field, dim: int,
                 gen_images: dict[int, Mat]):
        self.group = group
        self.field = field
        self.dim = dim
        self._gen = dict(gen_images)
        if len(self._gen) != len(group.generators):
            raise InputError("need one image per group generator")
        self._images: dict[int, Mat] = {group.identity: Mat.identity(field, dim)}
        for t, g in enumerate(group.generators):
            self._images[g] = self._gen[t]

    def gen_image(self, t: int) -> Mat:
        return self._gen[t]

    def generator_images(self) -> list[Mat]:
        return [self._gen[t] for t in range(len(self.group.generators))]

    def image(self, i: int) -> Mat:
        if i not in self._images:
            m = Mat.identity(self.field, self.dim)
            for t in self.group.words[i]:
                m = m @ self._gen[t]
            self._images[i] = m
        return self._images[i]

    def check_homomorphism(self):
        """Verify image(a)image(b) = image(ab) on all generator pairs."""
        G = self.group
        for a in G.generators:
            for b in G.generators:
                if self.image(a) @ self.image(b) != self.image(G.table[a][b]):
                    raise Inconsistency("generator images are not a "
                                        "homomorphism")

    def __repr__(self):
        return (f"Rep(dim {self.dim} of order-{self.group.order} group "
                f"over {self.field})")


# -- constructors ---------------------------------------------------------


def rep_trivial(G: FiniteGroup, field: Field, dim: int = 1) -> Rep:
    return Rep(G, field, dim,
               {t: Mat.identity(field, dim)
                for t in range(len(G.generators))})


def rep_regular(G: FiniteGroup, field: Field) -> Rep:
    """Left-regular action on the group algebra: permutation matrices."""
    n = G.order
    images = {}
    for t, g in enumerate(G.generators):
        a = np.zeros((n, n), dtype=np.int64)
        a[G.table[g], range(n)] = 1
        images[t] = Mat(field, a)
    return Rep(G, field, n, images)


def rep_restrict(M: Rep, H: Subgroup) -> Rep:
    if H.parent is not M.group:
        raise InputError("restriction subgroup has the wrong parent")
    Hg = H.as_group()
    to_parent = subgroup_to_parent(H)
    images = {t: M.image(to_parent[g]) for t, g in enumerate(Hg.generators)}
    return Rep(Hg, M.field, M.dim, images)


def rep_induce(M: Rep, G: FiniteGroup, H: Subgroup) -> Rep:
    """Block-matrix induced representation of dimension [G:H] * dim M,
    blocks laid out along the deterministic coset order."""
    if H.parent is not G:
        raise InputError("induction subgroup has the wrong parent")
    if H.as_group() is not M.group:
        raise InputError("representation is not over the given subgroup")
    to_parent = subgroup_to_parent(H)
    hg_pos = {p: k for k, p in enumerate(to_parent)}
    reps, where = coset_lookup(G, H)
    k = len(reps)
    m = M.dim
    F = M.field
    images = {}
    for t, g in enumerate(G.generators):
        a = np.zeros((k * m, k * m), dtype=np.int64)
        for j, rj in enumerate(reps):
            e = G.table[g][rj]
            i, h = where[e]
            block = M.image(hg_pos[h])
            a[i * m:(i + 1) * m, j * m:(j + 1) * m] = block.a
        images[t] = Mat(F, a)
    return Rep(G, F, k * m, images)


def rep_tensor(M: Rep, N: Rep) -> Rep:
    _check_compatible(M, N)
    images = {t: M.gen_image(t).kron(N.gen_image(t))
              for t in range(len(M.group.generators))}
    return Rep(M.group, M.field, M.dim * N.dim, images)


def rep_dual(M: Rep) -> Rep:
    G = M.group
    images = {}
    for t, g in enumerate(G.generators):
        inv = M.image(G.inverse[g])
        images[t] = inv.T
    return Rep(G, M.field, M.dim, images)


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


def extend_scalars(M: Rep, target: Field) -> Rep:
    """Same matrices with entries pushed through the canonical embedding;
    realizes the base-change map on classes at a finite level."""
    _check_extension(M.field, target)
    images = {t: M.gen_image(t).map_field(target)
              for t in range(len(M.group.generators))}
    return Rep(M.group, target, M.dim, images)


def _check_extension(base: Field, target: Field):
    if target.p != base.p or target.n % base.n != 0:
        raise InputError(f"{target} is not an extension of {base}")


def _check_compatible(M: Rep, N: Rep):
    if M.group is not N.group or M.field is not N.field:
        raise InputError("representations live over different groups or "
                         "fields")


# -- hom spaces -------------------------------------------------------------


def _check_hom_cells(cells: int, what: str):
    if cells > HOM_CELL_CAP:
        raise CapExceeded(f"{what} needs {cells} cells, over "
                          f"HOM_CELL_CAP = {HOM_CELL_CAP}")


def hom_space(M: Rep, N: Rep) -> list[Mat]:
    """Basis of intertwiners X with X M(g) = N(g) X, as (dim N x dim M)
    matrices; deterministic.

    The basis is the nullspace of a stacked Kronecker system with
    (#gens * dn * dm) x (dn * dm) cells, checked against HOM_CELL_CAP
    before anything is allocated.  A group without generators stacks no
    block; the nullspace of the empty system, the dn * dm unit matrices in
    row-major order, is as many cells as one block."""
    _check_compatible(M, N)
    F = M.field
    dm, dn = M.dim, N.dim
    if dm == 0 or dn == 0:
        return []
    gens = M.group.generators
    _check_hom_cells(max(len(gens), 1) * (dn * dm) ** 2,
                     f"Hom between modules of dims {dm} and {dn}")
    eye_n = Mat.identity(F, dn)
    eye_m = Mat.identity(F, dm)
    stacked = Mat.zeros(F, 0, dn * dm)
    for t in range(len(gens)):
        stacked = stacked.vstack(eye_n.kron(M.gen_image(t).T)
                                 - N.gen_image(t).kron(eye_m))
    ns = stacked.nullspace()
    out = []
    for c in range(ns.cols):
        out.append(Mat(F, np.ascontiguousarray(ns.a[:, c].reshape(dn, dm))))
    return out


def regular_endomorphisms(G: FiniteGroup, field: Field) -> list[Mat]:
    """End(k[G]) for rep_regular(G, field), read off the multiplication
    table: the right multiplications R_h (column j to row G.table[j][h]),
    the same list, in the same order, as hom_space(k[G], k[G]).

    hom_space returns the kernel basis that is the identity on the free
    columns, and those are the positions where some kernel vector has its
    last nonzero entry; the R_h have disjoint 0/1 supports, so that basis
    is the R_h ordered by the row-major position of their last nonzero
    entry."""
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


def hom_dim(M: Rep, N: Rep) -> int:
    return len(hom_space(M, N))


# -- spinning and the MeatAxe ------------------------------------------------


def _spin(field: Field, dim: int, seeds,
          gen_mats) -> tuple[np.ndarray, list[int]]:
    """Smallest invariant subspace containing the seed column vectors, as
    its (dim x r) reduced column echelon form E and its pivot rows piv
    (E[piv] is the identity).  The rows of the EchelonBasis are fully
    reduced, so sorting them by pivot gives that form with no elimination."""
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


def spin_columns(field: Field, dim: int, seeds, gen_mats) -> Mat:
    """Smallest invariant subspace containing the seed column vectors;
    returned as a (dim x r) column matrix in reduced column echelon form."""
    return Mat(field, _spin(field, dim, seeds, gen_mats)[0])


def _echelon(W: Mat) -> tuple[np.ndarray, list[int]]:
    """The reduced column echelon form of W and its pivot rows, for W with
    independent columns."""
    R, piv = W.T.rref()
    if len(piv) != W.cols:
        raise Inconsistency("submodule basis is not independent")
    return np.ascontiguousarray(R.a.T), piv


def _random_algebra_element(M: Rep, gen_mats, rng: random.Random) -> Mat:
    F = M.field
    acc = Mat.zeros(F, M.dim, M.dim)
    for _ in range(rng.randrange(2, 4)):
        prod = Mat.identity(F, M.dim)
        for _ in range(rng.randrange(1, 4)):
            prod = prod @ rng.choice(gen_mats)
        acc = acc + prod.scale(F.rand_nonzero(rng))
    return acc


def find_submodule_or_simple(M: Rep, rng: random.Random, seed=None):
    """Either ('sub', E, piv, seed) with E a proper nonzero invariant
    column space in reduced column echelon form and piv its pivot rows, or
    'simple' once Norton's criterion certifies irreducibility.

    Each round tries the distinct irreducible factors f of the
    characteristic polynomial of one algebra element theta, smallest degree
    first (Holt-Rees), factoring only as far as it gets.  `seed` is
    (theta, its characteristic polynomial, its FactorStream) for the element
    that split M's parent, cut to M; the first round tries it before any
    element is drawn.  The seed returned with E is the same triple for the
    theta that found E (None for a group without generators)."""
    F = M.field
    d = M.dim
    if d == 1:
        return "simple"
    gen_mats = M.generator_images()
    if not gen_mats:
        return "sub", np.eye(d, 1, dtype=np.int64), [0], None
    gen_t = [g.T for g in gen_mats]
    for _ in range(MEATAXE_ROUNDS):
        if seed is None:
            theta = _random_algebra_element(M, gen_mats, rng)
            cp = theta.charpoly()
            factors = FactorStream(cp, rng)
        else:
            (theta, cp, factors), seed = seed, None
        for f in factors.of(cp):
            ftheta = theta.eval_poly(f)
            ker = ftheta.nullspace()
            for c in range(ker.cols):
                E, piv = _spin(F, d, [ker.a[:, c]], gen_mats)
                if 0 < len(piv) < d:
                    return "sub", E, piv, (theta, cp, factors)
            if ker.cols == f.degree:
                kert = ftheta.T.nullspace()
                for c in range(kert.cols):
                    wt = spin_columns(F, d, [kert.a[:, c]], gen_t)
                    if 0 < wt.cols < d:
                        return ("sub", *_echelon(wt.T.nullspace()),
                                (theta, cp, factors))
                return "simple"
    raise CapExceeded(
        f"MeatAxe did not decide a dim-{d} module in {MEATAXE_ROUNDS} "
        "rounds; rerun with a different seed")


def _split_pieces(M: Rep, E: np.ndarray, piv: list[int],
                  seed=None) -> list[tuple[Rep, tuple]]:
    """The sub and quotient actions of M on the invariant column space E,
    each paired with the MeatAxe seed (theta, characteristic polynomial,
    factors) cut to it (None without a seed), in E's own basis: no inverse
    is taken.

    E is the identity on its pivot rows piv.  In the basis E followed by
    the unit vectors of the other rows, rest, a matrix A has the sub block
    (A E)[piv] and the quotient block A[rest, rest] - E[rest] A[piv, rest];
    E is invariant under A exactly when (A E)[rest] = E[rest] (A E)[piv].
    theta's two blocks have characteristic polynomials whose product is
    theta's: the smaller block's is computed (x - a for a 1 x 1 block [a])
    and the other's is the exact quotient."""
    F = M.field
    r = len(piv)
    pivset = set(piv)
    rest = [i for i in range(M.dim) if i not in pivset]
    low = E[rest]
    blocks = []
    for A in M.generator_images() + ([seed[0]] if seed else []):
        AE = F.matmul_array(A.a, E)
        if not np.array_equal(AE[rest], F.matmul_array(low, AE[piv])):
            raise Inconsistency("claimed submodule is not invariant")
        blocks.append((Mat(F, AE[piv]), Mat(F, F.sub_array(
            A.a[np.ix_(rest, rest)],
            F.matmul_array(low, A.a[np.ix_(piv, rest)])))))
    t = len(M.group.generators)
    seeds = [None, None]
    if seed and M.dim > 2:  # a piece of dim 1 never reads its seed
        small = int(r > M.dim - r)
        block = blocks[t][small]
        cps = [None, None]
        cps[small] = (Poly(F, [F.neg(block.get(0, 0)), 1]) if block.rows == 1
                      else block.charpoly())
        cps[1 - small], rem = seed[1].divmod(cps[small])
        if not rem.is_zero():
            raise Inconsistency("a block's characteristic polynomial does "
                                "not divide theta's")
        seeds = [(blocks[t][side], cps[side], seed[2]) for side in (0, 1)]
    return [(Rep(M.group, F, dim, {g: pair[side]
                                   for g, pair in enumerate(blocks[:t])}),
             seeds[side])
            for side, dim in enumerate((r, M.dim - r))]


def split_on_submodule(M: Rep, W: Mat) -> tuple[Rep, Rep]:
    """Sub and quotient actions for an invariant column space W."""
    (sub, _), (quot, _) = _split_pieces(M, *_echelon(W))
    return sub, quot


def chop(M: Rep, rng: random.Random) -> list[Rep]:
    """The composition factors of M, each certified simple, in the order
    the MeatAxe finds them."""
    factors = []
    stack = [(M, None)]  # (module, MeatAxe seed)
    while stack:
        A, seed = stack.pop()
        if A.dim == 0:
            continue
        res = find_submodule_or_simple(A, rng, seed)
        if res == "simple":
            factors.append(A)
        else:
            _, E, piv, seed = res
            stack.extend(_split_pieces(A, E, piv, seed))
    if sum(S.dim for S in factors) != M.dim:
        raise Inconsistency("chop reassembly failed: factor dims do not "
                            f"sum to {M.dim}")
    return factors


# -- Brauer characters -------------------------------------------------------


def _mult_order(q: int, m: int) -> int:
    if m == 1:
        return 1
    k = 1
    cur = q % m
    while cur != 1:
        cur = cur * q % m
        k += 1
        if k > m:
            raise Inconsistency("multiplicative order loop ran away")
    return k


def _divide_linear(E: Field, coeffs: list[int], z: int):
    """Quotient and remainder of the polynomial with low-first coefficients
    `coeffs` by x - z (synthetic division)."""
    quot = [0] * (len(coeffs) - 1)
    acc = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        quot[i] = acc
        acc = E.add(coeffs[i], E.mul(z, acc))
    return quot, acc


class BrauerCharacters:
    """Brauer characters of k[G]-modules as integer vectors; no random
    draws.

    For each p-regular conjugacy class, in conjugacy_classes order, the
    vector holds the multiplicities of the eigenvalues zeta_m^j (j < m) of
    the image of a class element of order m.  zeta_m is g^((Q-1)/m) for
    the generator g of the ambient field E = GF(Q), the smallest extension
    of k holding every such root of unity.  One characteristic polynomial
    per conjugacy class of maximal cyclic p'-subgroups gives the
    eigenvalues of its generator, by exact division by x - zeta_m^j; every
    other p-regular class is conjugate to a power of one of these
    generators, whose eigenvalues are the same powers.

    The vector is additive on short exact sequences and the vectors of the
    simple modules are linearly independent, so it decides isomorphism of
    simple modules and determines classes in G_0(k[G]).  `orders` and
    `sizes` give each p-regular class's element order and size, for the
    inner products of k0.cartan_data."""

    def __init__(self, G: FiniteGroup, F: Field):
        regular = [c for c in conjugacy_classes(G)
                   if G.element_order(c[0]) % F.p]
        where = {x: i for i, c in enumerate(regular) for x in c}
        self.group = G
        self.orders = [G.element_order(c[0]) for c in regular]
        self.sizes = [len(c) for c in regular]
        # generators of maximal cyclic p'-subgroups, one per conjugacy
        # class: a class of largest order that no earlier generator's
        # powers meet generates a maximal one.  A class read as g^k, g of
        # order m, has the eigenvalue zeta_order^spread[j] for each
        # eigenvalue zeta_m^j of g, spread[j] = k j mod m / gcd(m, k).
        self.generators: list[tuple[int, int]] = []  # (element, order)
        self._reads: list = [None] * len(regular)  # (generator, spread)
        for i in sorted(range(len(regular)), key=lambda i: -self.orders[i]):
            if self._reads[i] is not None:
                continue
            g, m = regular[i][0], self.orders[i]
            x = G.identity
            for k in range(m):
                c = where[x]
                if self._reads[c] is None:
                    step = m // self.orders[c]  # gcd(m, k)
                    self._reads[c] = (len(self.generators),
                                      [k * j % m // step for j in range(m)])
                x = G.table[x][g]
            self.generators.append((g, m))
        s = 1
        for _, m in self.generators:
            s = math.lcm(s, _mult_order(F.q, m))
        if F.q ** s > TABLE_LIMIT:
            raise CapExceeded(
                f"Brauer characters over {F} need the ambient field "
                f"GF({F.p}^{F.n * s}), past TABLE_LIMIT = {TABLE_LIMIT}")
        self.ambient = field_make(F.p, F.n * s)
        self._roots: dict[int, list[int]] = {}

    def eigenvalue_counts(self, A: Mat, m: int) -> list[int]:
        """Multiplicity of zeta_m^j (j < m) as an eigenvalue of the square
        matrix A, which must satisfy A^m = 1 for an m whose roots of unity
        the ambient field holds."""
        E = self.ambient
        if (E.q - 1) % m:
            raise InputError(f"{E} holds no primitive {m}-th root of unity")
        if m not in self._roots:
            zeta = E.pow_(E.generator, (E.q - 1) // m)
            self._roots[m] = [E.pow_(zeta, j) for j in range(m)]
        coeffs = list(A.charpoly().map_field(E).coeffs)
        counts = [0] * m
        for j, z in enumerate(self._roots[m]):
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

    def vector(self, M: Rep) -> tuple[tuple[int, ...], ...]:
        """Per p-regular class, the eigenvalue multiplicities of M."""
        return self._spread([self.eigenvalue_counts(M.image(g), m)
                             for g, m in self.generators])

    def induced_vector(self, M: Rep,
                       H: Subgroup) -> tuple[tuple[int, ...], ...]:
        """The vector of Ind_H^G M (the module rep_induce builds), with no
        matrix of the induced dimension.

        A generator g of order m permutes the cosets G/H.  On a cycle of
        length l through xH, g^l x = x h with h in H, and the l-th power of
        g's block matrix there is conjugate to M(h); so g's characteristic
        polynomial on the cycle is that of M(h) evaluated at x^l.  Each
        eigenvalue zeta_m^(l s) of M(h) (h has order dividing m / l)
        therefore gives the l eigenvalues zeta_m^(s + (m / l) t), t < l.
        Only dim M x dim M characteristic polynomials are taken, one per
        distinct (h, l)."""
        G = H.parent
        if G is not self.group:
            raise InputError("induction subgroup has the wrong parent")
        if M.group is not H.as_group():
            raise InputError("representation is not over the given subgroup")
        hg_pos = {x: k for k, x in enumerate(subgroup_to_parent(H))}
        reps, where = coset_lookup(G, H)
        block_counts: dict[tuple[int, int], list[int]] = {}
        found = []
        for g, m in self.generators:
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
                    block_counts[h, step] = self.eigenvalue_counts(
                        M.image(hg_pos[h]), step)
                for s, c in enumerate(block_counts[h, step]):
                    for t in range(s, m, step):
                        counts[t] += c
            found.append(counts)
        return self._spread(found)

    def _spread(self, found) -> tuple[tuple[int, ...], ...]:
        """The full vector from the eigenvalue counts of each generator in
        `generators`: every p-regular class is a power of one of them."""
        nonzero = [[(j, c) for j, c in enumerate(counts) if c]
                   for counts in found]
        out = []
        for (t, spread), order in zip(self._reads, self.orders):
            counts = [0] * order
            for j, c in nonzero[t]:
                counts[spread[j]] += c
            out.append(tuple(counts))
        return tuple(out)

    def regular_vector(self) -> tuple[tuple[int, ...], ...]:
        """The vector of k[G] in closed form, with no matrix: restricted to
        <g> with g of order m, k[G] is free of rank |G|/m, so each zeta_m^j
        has multiplicity |G|/m."""
        return tuple((self.group.order // m,) * m for m in self.orders)


# -- exact integer solves ---------------------------------------------------


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


def snf_inverse(snf) -> tuple[list[list[int]], int] | None:
    """(W, L) with W = L A^-1 an integer matrix, from the Smith normal form
    snf = (U, D, V), U A V = D, of a square integer matrix A; None when A
    is singular.  A^-1 = V D^-1 U, so W = V diag(L / D_ii) U for L the lcm
    of the D_ii.  Every system with A is then one product with W and one
    division by L."""
    U, D, V = snf
    s = len(D)
    if any(D[i][i] == 0 for i in range(s)):
        return None
    L = math.lcm(*(D[i][i] for i in range(s)))
    scaled = [[L // D[i][i] * u for u in U[i]] for i in range(s)]
    return (np.array(V, dtype=object).reshape(s, s)
            @ np.array(scaled, dtype=object).reshape(s, s)).tolist(), L


# -- registry and class vectors ----------------------------------------------


class SimpleRegistry:
    """The simple modules over one (group, field), in canonical order: a
    value, fixed once it is saturated.

    On first use the registry saturates: it chops the permutation module
    Ind_P^G(k) on the cosets of a Sylow p-subgroup P, of dimension |G:P|,
    with its random source, and keeps the first composition factor found
    for each Brauer vector.  That is every simple module: k[P] has |P|
    trivial composition factors and induction is exact, so k[G] =
    Ind_P^G k[P] has a filtration with |P| factors Ind_P^G(k), and every
    composition factor of k[G] is one of Ind_P^G(k).  (When p does not
    divide |G|, P = 1 and the module is k[G] itself.)  A registry made by
    over_extension chops instead the base simples with scalars extended,
    which is the same set of factors at a fraction of the size.
    Non-isomorphic simples never share a Brauer vector, and the table
    {vector: simple} is sorted by (dim, vector), so the order, the log and
    every class vector are functions of the group and the field, not of
    the MeatAxe's random draws or of the modules chopped.  class_of reads
    the class of any module off its Brauer vector, with no chop, and
    regular_class the class of k[G] off its closed-form vector.  Every
    derived datum is a cached property, and one whose build raises caches
    nothing."""

    def __init__(self, group: FiniteGroup, field: Field,
                 rng: random.Random, *, base: SimpleRegistry | None = None):
        self.group = group
        self.field = field
        self._rng = rng
        self._base = base

    @classmethod
    def over_extension(cls, group: FiniteGroup, field: Field,
                       base: "SimpleRegistry") -> "SimpleRegistry":
        """The registry over an extension field of base.field, saturated
        from the simples of base with base's random source.

        k'[G] = k[G] (x) k' and extending scalars is exact, so every simple
        k'[G]-module is a composition factor of some S (x) k' with S simple
        over k[G].  A missing simple would still be caught: k0.cartan_data
        reads the class of k'[G] off the registry and checks it."""
        if base.group is not group:
            raise InputError("the base registry is over another group")
        _check_extension(base.field, field)
        return cls(group, field, base._rng, base=base)

    @cached_property
    def brauer(self) -> BrauerCharacters:
        return BrauerCharacters(self.group, self.field)

    def _saturate(self) -> dict[tuple, Rep]:
        """{Brauer vector: first simple found with it} over the composition
        factors of the sources, sorted by (dim, vector)."""
        brauer = self.brauer  # an ambient field past TABLE_LIMIT fails first
        if self._base is None:
            P = sylow_p(self.group, self.field.p)
            sources = [rep_induce(rep_trivial(P.as_group(), self.field),
                                  self.group, P)]
        else:
            sources = [extend_scalars(S, self.field)
                       for S in self._base.simples]
        found: dict[tuple, Rep] = {}
        for M in sources:
            for S in chop(M, self._rng):
                found.setdefault(brauer.vector(S), S)
        return dict(sorted(found.items(), key=lambda kv: (kv[1].dim, kv[0])))

    @cached_property
    def _table(self) -> dict[tuple, Rep]:
        return self._saturate()

    @property
    def simples(self) -> list[Rep]:
        return list(self._table.values())

    @property
    def vectors(self) -> list[tuple]:
        """The simples' Brauer vectors, in registry order."""
        return list(self._table)

    @property
    def log(self) -> list[dict]:
        return [{"id": i, "dim": S.dim} for i, S in enumerate(self.simples)]

    def __len__(self):
        return len(self._table)

    @cached_property
    def _end_dims(self) -> list[int]:
        return [hom_dim(S, S) for S in self.simples]

    def end_dim(self, i: int) -> int:
        """dim End(S_i); all of them are computed on the first call."""
        return self._end_dims[i]

    def class_of(self, M: Rep) -> "ClassVector":
        """The class of M in G_0(k[G]): the x with beta(M) = sum_i x_i
        beta(S_i) over the Brauer vectors beta.  The registry holds every
        simple, so M has such an x with nonnegative integer entries; an x
        that fails the exact check on the full vector and on dim M raises
        Inconsistency.

        With B the matrix of the simples' vectors, Lg x = pinv beta(M) for
        the cached integer left inverse pinv = W B^T P of B, read off the
        registry's Gram matrix and its one exact inverse (gram)."""
        if M.group is not self.group or M.field is not self.field:
            raise InputError("module and registry are over different data")
        return self._solve(self.brauer.vector(M), M.dim)

    def class_of_induced(self, M: Rep, H: Subgroup) -> "ClassVector":
        """The class of Ind_H^G M, solved and checked as class_of does, from
        BrauerCharacters.induced_vector: no induced module is built."""
        if M.field is not self.field:
            raise InputError("module and registry are over different data")
        return self._solve(self.brauer.induced_vector(M, H),
                           self.group.order // H.order * M.dim)

    def regular_class(self) -> "ClassVector":
        """The class of k[G], solved and checked as class_of does, from
        BrauerCharacters.regular_vector: no matrix of k[G] is built."""
        return self._solve(self.brauer.regular_vector(), self.group.order)

    def _solve(self, vector, dim: int) -> "ClassVector":
        B, pinv, pinv64, top, L = self._solver
        b = np.array([c for counts in vector for c in counts], dtype=np.int64)
        # |(pinv b)_i| <= max|pinv| sum(b), and sum(b) = dim * #p-regular
        # classes for the vector of a module
        if pinv64 is not None and top * int(b.sum()) < 1 << 63:
            Lx = (pinv64 @ b).tolist()
        else:
            Lx = [sum(p * c for p, c in zip(row, b.tolist())) for row in pinv]
        x = [c // L for c in Lx]
        if (any(c % L for c in Lx) or any(not 0 <= c <= dim for c in x)
                or not np.array_equal(B @ np.array(x, dtype=np.int64), b)
                or sum(c * S.dim for c, S in zip(x, self.simples)) != dim):
            raise Inconsistency(
                f"the Brauer vector of a dim-{dim} module is no "
                "nonnegative integral combination of the simples' vectors")
        return ClassVector(self, x)

    @cached_property
    def gram(self):
        """(B, BtP, gram, W, Lg, L), shared by the class solves and
        k0.cartan_data.  The columns of B are the simples' Brauer vectors
        and P is block diagonal over the p-regular classes, h (L / phi(m))
        galois_pairing(m) for a class of size h and element order m, L =
        lcm(phi(m)); so gram = B^T P B = |G| L M for the Gram matrix M of
        the simples' Brauer characters, and W = Lg gram^-1 comes from its
        one Smith normal form.  BtP = B^T P is built block by block.  Its
        entries, gram's and its column sums are at most (sum of dims)(max
        dim) L |G|: int64 below 2^62, Python ints otherwise."""
        brauer = self.brauer
        B = np.array([[c for counts in key for c in counts]
                      for key in self.vectors], dtype=np.int64).T
        phis = [totient_mobius(m)[0] for m in brauer.orders]
        L = math.lcm(*phis)
        dims = [S.dim for S in self.simples]
        wide = sum(dims) * max(dims) * L * self.group.order >= 1 << 62
        BtP = np.zeros(B.T.shape, dtype=object if wide else np.int64)
        start = 0
        for m, size, phi in zip(brauer.orders, brauer.sizes, phis):
            block = B[start:start + m].T @ galois_pairing(m)
            BtP[:, start:start + m] = (block.astype(BtP.dtype)
                                       * (size * (L // phi)))
            start += m
        gram = (BtP @ B).tolist()
        inverse = snf_inverse(smith_normal_form(gram))
        if inverse is None:
            raise Inconsistency("the Gram matrix of the simples' Brauer "
                                "characters is singular")
        W, Lg = inverse
        return B, BtP, gram, W, Lg, L

    @cached_property
    def _solver(self):
        """(B, pinv, pinv64, max|pinv|, Lg) for the exact left inverse pinv
        = W B^T P of B scaled by Lg (pinv B = W gram = Lg I), from gram:
        Lg x = pinv beta(M).  pinv is Python ints; pinv64 is pinv in int64,
        or None when it does not fit.  The product is taken in int64 while
        max|W| times the largest column sum of |B^T P|, which bounds every
        entry, is below 2^62, and in Python ints otherwise."""
        B, BtP, _, W, Lg, _ = self.gram
        colsum = max(sum(map(abs, column)) for column in BtP.T.tolist())
        bound = max(abs(w) for row in W for w in row) * colsum
        dtype = np.int64 if bound < 1 << 62 else object
        product = np.array(W, dtype=dtype) @ BtP.astype(dtype)
        pinv = product.tolist()
        top = max(abs(c) for row in pinv for c in row)
        pinv64 = product.astype(np.int64) if top < 1 << 63 else None
        return B, pinv, pinv64, top, Lg

    def zero(self) -> "ClassVector":
        return ClassVector(self, [0] * len(self))

    def basis_vector(self, i: int, mult=1) -> "ClassVector":
        coeffs = [0] * len(self)
        coeffs[i] = mult
        return ClassVector(self, coeffs)


def _exact(c) -> int | Fraction:
    """The rational c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class ClassVector:
    """Composition-factor multiplicities over a registry: one coefficient
    per simple, in registry order.

    A coefficient is an int, or a Fraction when it is not integral, never
    an integral Fraction: rational coefficients appear only transiently
    (the 1/f terms of the rational formula), and integrality is asserted
    where a genuine module class is claimed.  An int reads like a Fraction
    for numerator, denominator, ==, hash and str, so the JSON form is the
    same either way."""

    __slots__ = ("registry", "coeffs")

    def __init__(self, registry: SimpleRegistry, coeffs):
        self.registry = registry
        self.coeffs = tuple(map(_exact, coeffs))
        if len(self.coeffs) != len(registry):
            raise InputError(f"{len(self.coeffs)} coefficients over a "
                             f"registry of {len(registry)} simples")

    def _binop(self, other, op):
        if self.registry is not other.registry:
            raise InputError("class vectors over different registries")
        return ClassVector(self.registry, [op(x, y) for x, y in
                                           zip(self.coeffs, other.coeffs)])

    def __add__(self, other):
        return self._binop(other, lambda x, y: x + y)

    def __sub__(self, other):
        return self._binop(other, lambda x, y: x - y)

    def __neg__(self):
        return ClassVector(self.registry, [-c for c in self.coeffs])

    def scale(self, s) -> "ClassVector":
        s = _exact(s)
        return ClassVector(self.registry, [c * s for c in self.coeffs])

    def __eq__(self, other):
        return (isinstance(other, ClassVector)
                and self.registry is other.registry
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.registry), self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.coeffs)

    def to_json(self):
        return [[i, S.dim, str(c)] for i, (S, c) in
                enumerate(zip(self.registry.simples, self.coeffs)) if c != 0]

    def __repr__(self):
        parts = [f"{c}*[S{i}]" for i, c in enumerate(self.coeffs) if c]
        return "ClassVector(" + (" + ".join(parts) or "0") + ")"


# -- direct-sum splitting -----------------------------------------------------


def _simple_head(M: Rep, registry: SimpleRegistry) -> int | None:
    """Registry index i with head(M) = S_i, or None when the head of M is
    not simple: dim Hom(M, S_i) = dim End(S_i) and Hom(M, S_j) = 0 for
    every other simple S_j of the (saturated) registry."""
    head = None
    for i, S in enumerate(registry.simples):
        h = hom_dim(M, S)
        if h == 0:
            continue
        if head is not None or h != registry.end_dim(i):
            return None
        head = i
    return head


def indecomposable_summands(M: Rep, ends: list[Mat],
                            registry: SimpleRegistry,
                            rng: random.Random) -> list[tuple[Rep, int]]:
    """Split a direct summand M of k[G] into indecomposable summands, each
    returned with the registry index of its simple head.  `ends` is the
    basis of End(M) that hom_space(M, M) returns (for M = k[G],
    regular_endomorphisms builds it from the multiplication table).

    Random endomorphisms are decomposed along the distinct irreducible
    factors of their characteristic polynomial (primary decomposition).
    A piece no endomorphism splits is certified by its simple head: a
    decomposition A + B would have head(A) + head(B) as its head, and every
    indecomposable summand of k[G] has a simple head; the registry holds
    every simple of k[G].
    A piece with neither a split nor a simple head raises CapExceeded;
    no uncertified piece is returned.
    """
    if M.dim == 0:
        return []
    if M.dim > SUMMAND_DIM_CAP:
        raise CapExceeded(f"dim {M.dim} exceeds the summand-splitting cap")
    F = M.field

    def combos():
        for X in ends:
            yield X
        for _ in range(SPLIT_ROUNDS):
            acc = Mat.zeros(F, M.dim, M.dim)
            for X in ends:
                c = F.rand_elem(rng)
                if c:
                    acc = acc + X.scale(c)
            yield acc

    facs = []
    if len(ends) > 1:  # End(M) = k is local, so M is indecomposable
        for theta in combos():
            if not theta.is_zero():
                facs = poly_factor(theta.charpoly(), rng)
                if len(facs) >= 2:
                    break
    if len(facs) < 2:
        head = _simple_head(M, registry)
        if head is None:
            raise CapExceeded(
                f"no endomorphism split a dim-{M.dim} module within "
                f"SPLIT_ROUNDS = {SPLIT_ROUNDS} rounds and its head is not "
                "simple; rerun with a different seed")
        return [(M, head)]
    # the primary decomposition along theta
    kernels = [theta.eval_poly(f).pow_(m).nullspace() for f, m in facs]
    cuts = [0]
    for k in kernels:
        cuts.append(cuts[-1] + k.cols)
    if cuts[-1] != M.dim:
        raise Inconsistency("primary decomposition dimensions are wrong")
    stacked = Mat(M.field, np.hstack([k.a for k in kernels]))
    inverse = stacked.inv()
    if inverse is None:
        raise Inconsistency("change of basis is singular")
    images = [inverse @ A @ stacked for A in M.generator_images()]
    parts = [Rep(M.group, F, hi - lo,
                 {t: C.submatrix(range(lo, hi), range(lo, hi))
                  for t, C in enumerate(images)})
             for lo, hi in zip(cuts, cuts[1:])]
    off_diagonal = np.ones((M.dim, M.dim), dtype=bool)
    for lo, hi in zip(cuts, cuts[1:]):
        off_diagonal[lo:hi, lo:hi] = False
    if any(np.any(C.a[off_diagonal]) for C in images):
        raise Inconsistency("primary components are not invariant")
    return [piece for part in parts
            for piece in indecomposable_summands(
                part, hom_space(part, part), registry, rng)]


# -- projectivity -------------------------------------------------------------


def is_projective(M: Rep) -> bool:
    """Projective over k[G] iff free over k[P] for a Sylow p-subgroup P:
    dim M = |P| * dim(M / rad M) with rad spanned by (g-1)v.

    The augmentation ideal is spanned as a vector space by g - 1 over all
    g in P (generators alone would not span a submodule when P is
    nonabelian)."""
    G = M.group
    p = M.field.p
    P = sylow_p(G, p)
    if P.order == 1 or M.dim == 0:
        return True
    eye = Mat.identity(M.field, M.dim)
    stacked = None
    for g in P.indices:
        if g == G.identity:
            continue
        block = M.image(g) - eye
        stacked = block if stacked is None else stacked.hstack(block)
    rad_dim = stacked.rank()
    return M.dim == P.order * (M.dim - rad_dim)

