"""Matrix representations of finite groups over finite fields.

Classes in the Grothendieck group of finitely generated modules are
coordinates over a registry of simple modules, one per simple.  The
Brauer character (BrauerCharacters: eigenvalue multiplicities on
p-regular classes, read off characteristic polynomials) is the
registry's one invariant: it keys, orders and identifies the simples.
When the Sylow p-subgroup P of G is normal and G/P is cyclic, the
simples are written down in closed form, one per irreducible factor of
x^m - 1 over k for m = |G:P| (_cyclic_simples).  Every other group's
simples come from chop(), which returns a module's composition factors
by a Norton/Parker style MeatAxe (random algebra elements, kernel
vectors of the irreducible factors of their characteristic polynomials,
found lazily and shared by the pieces of a split, submodule spinning,
recursion on sub and quotient, split in the submodule's echelon basis),
each certified simple by a Norton kernel that also gives dim End(S)
(end_dim_from_kernel).  Spinning works on whole blocks with Mat.rref as
its only elimination.  A registry is one table {Brauer vector: (simple,
Norton kernel)}, built by one saturation in closed form or from one
chop, and fixed after that.  A registry over an extension field k' is
built instead by Galois descent from the registry over k: a simple S
with e = dim End(S) splits over GF(q^r) into gcd(e, r) Galois
conjugates, so only the S with gcd(e, r) > 1 are chopped again, and the
table files each simple over k' with the base simple it descends from,
which is the base-change map on classes.  Each registry keeps the Gram
matrix of its simples' Brauer characters and the one exact inverse that
snf_inverse gives from its Smith normal form: a batch of class solves is
one matrix product with the left inverse read off it, and
k0.cartan_data reads the Cartan matrix off the same inverse.  Hom spaces
(Kronecker systems) and direct-sum splitting (along random
endomorphisms) are kept apart: no command calls them, and the tests
cross-check dim End(S) and the Cartan matrix with them.

The MeatAxe is the only code a command runs that draws at random, each
chop from a random.Random(0) of its own unless the caller (a test) hands
it one: a chop is a value of its module, a registry of (group, field).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import CapExceeded, Inconsistency, InputError
from .fields import (TABLE_LIMIT, FactorStream, Field, Poly, field_make,
                     galois_pairing, poly_factor, totient_mobius)
from .groups import (FiniteGroup, conjugacy_classes, coset_lookup,
                     cyclic_quotient, sylow_p)
from .matrices import Mat, smith_normal_form, snf_inverse

# Algebra elements the MeatAxe tries on one module before it gives up: a
# round is one element theta, with the irreducible factors of its
# characteristic polynomial tried in turn.  The element inherited from the
# parent's split counts as a round.  A module not decided within the budget
# raises CapExceeded (exit 3) naming the cap and the module's dimension;
# the draws are fixed, so it fails alike on every run for that module.
MEATAXE_ROUNDS = 80
SPLIT_ROUNDS = 60
SUMMAND_DIM_CAP = 400
# Largest Hom system hom_space builds, in int64 cells (256 MiB per copy;
# elimination holds a few copies).  No command solves a Hom system: the
# summand split and the tests' references do.
HOM_CELL_CAP = 1 << 25


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
            first, *rest = self.group.words[i]
            m = self._gen[first]
            for t in rest:
                m = m @ self._gen[t]
            self._images[i] = m
        return self._images[i]

    def check_homomorphism(self):
        """Verify image(a)image(b) = image(ab) on generator pairs, and
        A^ord(g) = I for each generator g with image A.

        image(ab) is rebuilt from the generator word of ab, so a pair
        tests a relation only where that word is not a b; those pairs are
        skipped.  The power check tests each generator's order relation, at
        O(log |G|) products each.  For one generator (a cyclic group) this
        certifies a homomorphism.  For more the checks are necessary, not
        sufficient: a relation of the group that neither tests can fail
        unseen."""
        G = self.group
        for ta, a in enumerate(G.generators):
            for tb, b in enumerate(G.generators):
                ab = G.table[a][b]
                if G.words[ab] == (ta, tb):
                    continue  # image(ab) is rebuilt as this very product
                if self.image(a) @ self.image(b) != self.image(ab):
                    raise Inconsistency("generator images are not a "
                                        "homomorphism")
        eye = Mat.identity(self.field, self.dim)
        for t, g in enumerate(G.generators):
            if self._gen[t].pow_(G.element_order(g)) != eye:
                raise Inconsistency(f"generator {t} image does not have "
                                    f"order dividing {G.element_order(g)}")

    def __repr__(self):
        return (f"Rep(dim {self.dim} of order-{self.group.order} group "
                f"over {self.field})")


# -- constructors ---------------------------------------------------------


def rep_trivial(G: FiniteGroup, field: Field, dim: int = 1) -> Rep:
    return Rep(G, field, dim,
               {t: Mat.identity(field, dim)
                for t in range(len(G.generators))})


def rep_restrict(M: Rep, H: FiniteGroup) -> Rep:
    """Res_H M for a subgroup H of M.group over the same root: the images
    of H's generators, read through H.positions_in(M.group)."""
    in_G = H.positions_in(M.group)
    images = {t: M.image(in_G[h]) for t, h in enumerate(H.generators)}
    return Rep(H, M.field, M.dim, images)


def rep_induce(M: Rep, G: FiniteGroup) -> Rep:
    """Ind_H^G M for H = M.group, a subgroup of G over the same root: the
    block-matrix representation of dimension [G:H] * dim M, blocks laid
    out along the deterministic coset order of coset_lookup(G, H)."""
    reps, where = coset_lookup(G, M.group)
    k = len(reps)
    m = M.dim
    F = M.field
    images = {}
    for t, g in enumerate(G.generators):
        a = np.zeros((k * m, k * m), dtype=np.int64)
        for j, rj in enumerate(reps):
            e = G.table[g][rj]
            i, h = where[e]
            block = M.image(h)
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


def hom_dim(M: Rep, N: Rep) -> int:
    return len(hom_space(M, N))


# -- spinning and the MeatAxe ------------------------------------------------


def _spin(field: Field, dim: int, seeds,
          gen_mats) -> tuple[np.ndarray, list[int]]:
    """Smallest invariant subspace containing the seed column vectors, as
    its (dim x r) reduced column echelon form E and its pivot rows piv
    (E[piv] is the identity).

    Spins whole blocks, with Mat.rref as the only elimination: the basis is
    kept as fully reduced rows, so the rows the last step added, times
    every generator at once, reduce against it with one product by their
    pivot columns.  One rref of what is left gives the next new rows, and
    the basis is back-reduced against them; the spin stops when no row is
    new.  The form is unique for the subspace, however it was reached."""
    F = field
    R, piv = Mat(F, np.array(seeds, dtype=np.int64).reshape(
        len(seeds), dim)).rref()
    basis = new = R.a[:len(piv)]
    gen_t = [A.a.T for A in gen_mats]
    while len(new) and gen_t:
        batch = np.concatenate([F.matmul_array(new, At) for At in gen_t])
        batch = F.sub_array(batch, F.matmul_array(batch[:, piv], basis))
        if not batch.any():
            break
        R, fresh = Mat(F, batch).rref()
        new = R.a[:len(fresh)]
        basis = np.concatenate([F.sub_array(
            basis, F.matmul_array(basis[:, fresh], new)), new])
        piv = piv + fresh
    order = np.argsort(piv)
    return np.ascontiguousarray(basis[order].T), [piv[i] for i in order]


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
    ('simple', U) once Norton's criterion certifies irreducibility, with U
    the kernel that certified it: ker f(theta) as deg f columns (the whole
    space, [[1]], for dim 1).

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
        return "simple", np.ones((1, 1), dtype=np.int64)
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
                return "simple", ker.a
    raise CapExceeded(
        f"MeatAxe did not decide a dim-{d} module within MEATAXE_ROUNDS = "
        f"{MEATAXE_ROUNDS} rounds")


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


def chop(M: Rep, rng: random.Random | None = None
         ) -> list[tuple[Rep, np.ndarray]]:
    """The composition factors of M in the order the MeatAxe finds them,
    each paired with the Norton kernel that certified it simple.  The
    draws come from rng, a fresh random.Random(0) when none is given."""
    rng = rng or random.Random(0)
    factors = []
    stack = [(M, None)]  # (module, MeatAxe seed)
    while stack:
        A, seed = stack.pop()
        if A.dim == 0:
            continue
        res = find_submodule_or_simple(A, rng, seed)
        if res[0] == "simple":
            factors.append((A, res[1]))
        else:
            _, E, piv, seed = res
            stack.extend(_split_pieces(A, E, piv, seed))
    if sum(S.dim for S, _ in factors) != M.dim:
        raise Inconsistency("chop reassembly failed: factor dims do not "
                            f"sum to {M.dim}")
    return factors


def end_dim_from_kernel(S: Rep, U: np.ndarray) -> int:
    """dim End(S) for a simple S from the Norton kernel U = ker f(theta)
    that certified it, columns u_1, ..., u_d (Holt-Rees).

    Every phi in End(S) commutes with theta, so maps U into U, and is
    fixed by phi(v) for v = u_1, which generates S; u is some phi(v)
    exactly when Ann(v) u = 0.  The spin of (v, u_1, ..., u_d) in S^(1+d)
    holds K = Ann(v) (u_1, ..., u_d) as its echelon rows with pivots past
    the first n = dim S coordinates, so dim End(S) is d less the rank of
    the d x (n dim K) matrix of K's blocks.  U is a vector space over the
    field End(S), so dim End(S) divides d, and d = 1 needs no spin."""
    n, d = U.shape
    if d == 1:
        return 1
    F = S.field
    eye = Mat.identity(F, 1 + d)
    E, piv = _spin(F, n * (1 + d), [np.concatenate([U[:, 0], U.T.ravel()])],
                   [eye.kron(A) for A in S.generator_images()])
    K = E[n:, [j for j, row in enumerate(piv) if row >= n]]
    return d - Mat(F, K.reshape(d, n * K.shape[1])).rank()


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


def power_counts(counts: list[int], d: int) -> list[int]:
    """The eigenvalue counts of A^d from those of A over the m-th roots of
    unity (counts[s] for zeta_m^s): the power map zeta^s -> zeta^(s d)."""
    m = len(counts)
    out = [0] * m
    for s, c in enumerate(counts):
        out[s * d % m] += c
    return out


class BrauerCharacters:
    """Brauer characters of k[G]-modules as integer vectors; no random
    draws.

    For each p-regular conjugacy class, in conjugacy_classes order, the
    vector holds the multiplicities of the eigenvalues zeta_m^j (j < m) of
    the image of a class element of order m.  zeta_m is g^((Q-1)/m) for
    the generator g of the ambient field E = GF(Q), the smallest extension
    of k holding every such root of unity.  One characteristic polynomial
    per conjugacy class of maximal cyclic p'-subgroups gives the
    eigenvalues of its generator, by exact division by x - zeta_m^j (a
    1 x 1 image is looked up in the table of roots instead); every
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
        self._exponents: dict[int, dict[int, int]] = {}  # zeta_m^j -> j
        self._walks: dict[FiniteGroup, list[Counter]] = {}  # H -> _cycles

    def _root_table(self, m: int) -> list[int]:
        """zeta_m^j for j < m in the ambient field, cached with the inverse
        table {zeta_m^j: j}."""
        E = self.ambient
        if (E.q - 1) % m:
            raise InputError(f"{E} holds no primitive {m}-th root of unity")
        if m not in self._roots:
            zeta = E.pow_(E.generator, (E.q - 1) // m)
            self._roots[m] = [E.pow_(zeta, j) for j in range(m)]
            self._exponents[m] = {z: j for j, z in enumerate(self._roots[m])}
        return self._roots[m]

    def eigenvalue_counts(self, A: Mat, m: int) -> list[int]:
        """Multiplicity of zeta_m^j (j < m) as an eigenvalue of the square
        matrix A, which must satisfy A^m = 1 for an m whose roots of unity
        the ambient field holds.

        A 1 x 1 matrix [a] reads the exponent of a off the cached table
        {zeta_m^j: j}; a larger one takes its characteristic polynomial and
        divides it exactly by each x - zeta_m^j in turn."""
        E = self.ambient
        roots = self._root_table(m)
        counts = [0] * m
        if A.rows == 1:
            j = self._exponents[m].get(
                int(A.field.embedding_into(E)[A.get(0, 0)]))
            if j is not None:
                counts[j] = 1
        else:
            coeffs = list(A.charpoly().map_field(E).coeffs)
            for j, z in enumerate(roots):
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

    def vector(self, M: Rep, exponents) -> list[tuple[tuple[int, ...], ...]]:
        """The vector of Ind_H^G M^(d) for H = M.group, G itself or a
        subgroup over the same root, and each d in exponents, M^(d) being
        g -> M(g)^d, from one walk of the cosets and no matrix of the
        induced dimension.  An exponent other than 1 needs commuting
        generator images (else InputError).

        A generator g of order m permutes the cosets G/H.  On a cycle of
        length l through xH, g^l x = x h with h in H, and the l-th power of
        g's block matrix there is conjugate to M(h); so g's characteristic
        polynomial on the cycle is that of M(h) evaluated at x^l.  Each
        eigenvalue zeta_m^(l s) of M(h)^d (h has order dividing m / l)
        therefore gives the l eigenvalues zeta_m^(s + (m / l) t), t < l.
        Only dim M x dim M characteristic polynomials are taken, one per
        distinct (h, l).  For H = G there is one coset, and each cycle has
        length 1."""
        # g -> M(g)^d is a module for every d when M's images commute
        if any(d != 1 for d in exponents):
            gens = M.generator_images()
            if any(A @ B != B @ A for i, A in enumerate(gens)
                   for B in gens[i + 1:]):
                raise InputError("a power other than 1 of a module needs "
                                 "commuting generator images")
        cycles = self._cycles(M.group)
        blocks = {(h, step): self.eigenvalue_counts(M.image(h), step)
                  for found in cycles for h, step in found}
        out = []
        for d in exponents:
            vectors = []
            for (_, m), found in zip(self.generators, cycles):
                counts = [0] * m
                for (h, step), n in found.items():
                    block = power_counts(blocks[h, step], d)
                    counts = [c + n * block[t % step]
                              for t, c in enumerate(counts)]
                vectors.append(counts)
            out.append(self._spread(vectors))
        return out

    def _cycles(self, H: FiniteGroup) -> list[Counter]:
        """Per generator g of order m, {(h, m / l): number of cycles} over
        the cycles of g on G/H, as vector reads them; walked once per H."""
        if H not in self._walks:
            G = self.group
            reps, where = coset_lookup(G, H)
            self._walks[H] = []
            for g, m in self.generators:
                row, found, seen = G.table[g], Counter(), [False] * len(reps)
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
                    found[h, m // length] += 1
                self._walks[H].append(found)
        return self._walks[H]

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


def _cyclic_simples(G: FiniteGroup, F: Field, brauer: BrauerCharacters,
                    c: int, j: list[int]) -> list[Rep]:
    """The simple k[G]-modules when the Sylow p-subgroup P is normal and
    G/P is cyclic of order m, generated by cP for c of order m, with j[g]
    the exponent of g's coset (groups.cyclic_quotient).

    P acts trivially on every simple module in characteristic p, so these
    are the simples of k[Z/m], m prime to p: one per q-cyclotomic coset C
    of Z/m, k[x]/(f_C) for f_C, the product of x - zeta_m^t over t in C,
    with zeta_m from the root table of brauer.  f_C is irreducible over k
    and S_C(g) is its companion matrix to the power j[g]; End(S_C) is
    GF(q^|C|).  A coefficient of f_C outside k raises Inconsistency, and
    each S_C is checked as a homomorphism."""
    m = G.element_order(c)
    E = brauer.ambient
    roots = brauer._root_table(m)
    back = {int(e): a for a, e in enumerate(F.embedding_into(E))}
    out, seen = [], set()
    for s in range(m):
        if s in seen:
            continue
        coset = [s]
        while coset[-1] * F.q % m != s:
            coset.append(coset[-1] * F.q % m)
        seen.update(coset)
        f = Poly.one(E)
        for t in coset:
            f = f * Poly(E, [E.neg(roots[t]), 1])
        if any(a not in back for a in f.coeffs):
            raise Inconsistency(f"a factor of x^{m} - 1 over {E} has "
                                f"coefficients outside {F}")
        d = len(coset)
        companion = np.eye(d, d, -1, dtype=np.int64)
        companion[:, -1] = [F.neg(back[a]) for a in f.coeffs[:d]]
        A = Mat(F, companion)
        S = Rep(G, F, d, {t: A.pow_(j[g])
                          for t, g in enumerate(G.generators)})
        S.check_homomorphism()
        out.append(S)
    return out


# -- registry and class vectors ----------------------------------------------


class SimpleRegistry:
    """The simple modules over one (group, field), in canonical order: a
    value, fixed once it is saturated.

    On first use the registry saturates.  When a Sylow p-subgroup P is
    normal and G/P is cyclic (groups.cyclic_quotient), as for every
    inertia group and every decomposition group of a rational place of
    P^1, it writes the simples down with no random draw: P acts trivially
    on each, so they are the simples of the cyclic p'-group G/P
    (_cyclic_simples), each filed with the whole space as its Norton
    kernel.  Otherwise it chops the permutation module Ind_P^G(k) on the
    cosets of P, of dimension |G:P|, and keeps the first composition
    factor found for each Brauer vector.  That is every simple module:
    k[P] has |P| trivial composition factors and induction is exact, so
    k[G] = Ind_P^G k[P] has a filtration with |P| factors Ind_P^G(k), and
    every composition factor of k[G] is one of Ind_P^G(k).  (When p does
    not divide |G|, P = 1 and the module is k[G] itself.)  A registry made
    by over_extension descends instead from the base simples with scalars
    extended, and chops only those that split.
    Non-isomorphic simples never share a Brauer vector, and the table
    {vector: (simple, provenance)} is sorted by (dim, vector), so the
    order, the log and every class vector are functions of the group and
    the field, not of the route or the modules chopped, and so are the
    simples' generator images, as each chop draws afresh.  The provenance
    is the Norton kernel that certified the simple in the chop of
    Ind_P^G(k) (the identity for a simple in closed form), or over an
    extension the index of the base simple it descends from (origins).
    class_of reads the class of any module off its Brauer vector, with no
    chop; classes_of the classes of a batch of modules, their powers g ->
    M(g)^d and their induced modules, in one exact solve; regular_class
    the class of k[G] off its closed-form vector; and end_dim dim End(S_i)
    off S_i's kernel or its base simple's, with no Hom system.  Every
    derived datum is a cached property, and one whose build raises caches
    nothing."""

    def __init__(self, group: FiniteGroup, field: Field, *,
                 base: SimpleRegistry | None = None):
        self.group = group
        self.field = field
        self._base = base

    @classmethod
    def over_extension(cls, group: FiniteGroup, field: Field,
                       base: "SimpleRegistry") -> "SimpleRegistry":
        """The registry over an extension k' = GF(q^r) of k = base.field,
        by Galois descent from the simples of base.

        End(S) of a simple S over k is the field GF(q^e), e = dim End(S),
        and End(S (x) k') = GF(q^e) (x) GF(q^r) is a product of g = gcd(e,
        r) copies of GF(q^lcm(e, r)).  So S (x) k' is the direct sum of g
        pairwise non-isomorphic Galois conjugate simples, each of dim S / g
        with dim End = e / g, and non-isomorphic simples over k share no
        such summand (Curtis-Reiner, Methods of Representation Theory I,
        extension of the ground field).  k'[G] = k[G] (x) k', so these are
        all the simples over k'.  When g = 1, S (x) k' is filed as it
        stands, with no chop and no kernel spin; when g > 1 it is chopped,
        and anything but g pieces of those dims and End dims raises
        Inconsistency, as does a Brauer vector that two pieces share.  A
        missing or extra simple would still be caught: k0.cartan_data
        reads the class of k'[G] off the registry and checks it."""
        if base.group is not group:
            raise InputError("the base registry is over another group")
        _check_extension(base.field, field)
        return cls(group, field, base=base)

    @property
    def base(self) -> SimpleRegistry | None:
        """The registry that this one descends from, or None when it
        saturated over its own field (in closed form or from a chop of
        Ind_P^G(k))."""
        return self._base

    @cached_property
    def brauer(self) -> BrauerCharacters:
        return BrauerCharacters(self.group, self.field)

    def _saturate(self) -> dict[tuple, tuple[Rep, np.ndarray | int]]:
        """{Brauer vector: (simple, provenance)}, sorted by (dim, vector):
        the simples in closed form with the identity as their Norton
        kernel when P is normal and G/P cyclic; else the first composition
        factor found for each vector in the chop of Ind_P^G(k), with its
        Norton kernel; or over an extension each summand of S_i (x) k'
        with its base index i (_descend)."""
        brauer = self.brauer  # an ambient field past TABLE_LIMIT fails first
        if self._base is not None:
            found = self._descend(brauer)
        else:
            G, F = self.group, self.field
            P = sylow_p(G, F.p)
            quotient = cyclic_quotient(G, P, F.p)
            found = {}
            if quotient is None:
                for S, U in chop(rep_induce(rep_trivial(P, F), G)):
                    found.setdefault(brauer.vector(S, [1])[0], (S, U))
            else:
                for S in _cyclic_simples(G, F, brauer, *quotient):
                    vector = brauer.vector(S, [1])[0]
                    if vector in found:
                        raise Inconsistency("two simples of a cyclic "
                                            "quotient share a Brauer vector")
                    found[vector] = (S, np.eye(S.dim, dtype=np.int64))
        return dict(sorted(found.items(),
                           key=lambda kv: (kv[1][0].dim, kv[0])))

    def _descend(self, brauer: BrauerCharacters
                 ) -> dict[tuple, tuple[Rep, int]]:
        """{Brauer vector: (summand of S_i (x) k', i)} over the simples S_i
        of the base, as over_extension states: S_i (x) k' as it stands when
        gcd(e_i, r) = 1, else its chop, checked against the theorem."""
        base = self._base
        r = self.field.n // base.field.n
        found: dict[tuple, tuple[Rep, int]] = {}
        for i, S in enumerate(base.simples):
            e = base.end_dim(i)
            g = math.gcd(e, r)
            ext = extend_scalars(S, self.field)
            pieces = [ext]
            if g > 1:
                chopped = chop(ext)
                if (len(chopped) != g
                        or any(P.dim * g != S.dim
                               or end_dim_from_kernel(P, U) * g != e
                               for P, U in chopped)):
                    raise Inconsistency(
                        f"a dim-{S.dim} simple with dim End = {e} does not "
                        f"split over {self.field} into {g} conjugates with "
                        f"dim {S.dim}/{g} and dim End {e}/{g}: the chop "
                        f"found dims {[P.dim for P, _ in chopped]}")
                pieces = [P for P, _ in chopped]
            for P in pieces:
                vector = brauer.vector(P, [1])[0]
                if vector in found:
                    raise Inconsistency(
                        f"two summands of base simples extended to "
                        f"{self.field} share a Brauer vector")
                found[vector] = (P, i)
        return found

    @cached_property
    def _table(self) -> dict[tuple, tuple[Rep, np.ndarray | int]]:
        return self._saturate()

    @property
    def simples(self) -> list[Rep]:
        return [S for S, _ in self._table.values()]

    @property
    def vectors(self) -> list[tuple]:
        """The simples' Brauer vectors, in registry order."""
        return list(self._table)

    @property
    def log(self) -> list[dict]:
        return [{"id": i, "dim": S.dim} for i, S in enumerate(self.simples)]

    def __len__(self):
        return len(self._table)

    @property
    def origins(self) -> list[int]:
        """For a registry made by over_extension, the index of the base
        simple that each simple descends from, in registry order: S_i (x)
        k' is the sum of the S_j with origins[j] = i, each once."""
        if self._base is None:
            raise InputError("a registry saturated over its own field "
                             "descends from no base")
        return [i for _, i in self._table.values()]

    @cached_property
    def _end_dims(self) -> list[int]:
        """dim End(S) off each simple's Norton kernel, or over an extension
        of degree r e / gcd(e, r) for its base simple's e."""
        if self._base is None:
            return [end_dim_from_kernel(S, U) for S, U in self._table.values()]
        r = self.field.n // self._base.field.n
        ends = [self._base.end_dim(i) for i in self.origins]
        return [e // math.gcd(e, r) for e in ends]

    def end_dim(self, i: int) -> int:
        """dim End(S_i); all of them are computed on the first call."""
        return self._end_dims[i]

    def class_of(self, M: Rep) -> "ClassVector":
        """The class of M in G_0(k[G]): the x with beta(M) = sum_i x_i
        beta(S_i) over the Brauer vectors beta, a one-column _solve.  The
        registry holds every simple, so M has such an x with nonnegative
        integer entries; an x that fails the exact check on the full vector
        and on dim M raises Inconsistency."""
        if M.group is not self.group or M.field is not self.field:
            raise InputError("module and registry are over different data")
        return self.classes_of([M], [1])[0]

    def classes_of(self, modules: list[Rep],
                   exponents) -> list["ClassVector"]:
        """[Ind_H^G M^(d)] for each M in modules (H = M.group, G itself or a
        subgroup over the same root) and each d in exponents, module by
        module, from the Brauer vectors in one batched solve."""
        if any(M.field is not self.field for M in modules):
            raise InputError("module and registry are over different data")
        return self._solve(
            [v for M in modules for v in self.brauer.vector(M, exponents)],
            [self.group.order // M.group.order * M.dim
             for M in modules for _ in exponents])

    @cached_property
    def _regular(self) -> tuple:  # a ClassVector here would be a cycle
        return self._solve([self.brauer.regular_vector()],
                           [self.group.order])[0].coeffs

    def regular_class(self) -> "ClassVector":
        """The class of k[G], solved once and checked as class_of does, from
        BrauerCharacters.regular_vector: no matrix of k[G] is built."""
        return ClassVector(self, self._regular)

    def _solve(self, vectors, dims: list[int]) -> list["ClassVector"]:
        """The class x of each Brauer vector beta of a dim-d module, from
        Lg x = pinv beta: one product for the batch with the integer left
        inverse pinv = W B^T P of B (gram).  A column that fails a check
        (Lg | pinv beta, 0 <= x_i <= d, sum x_i dim S_i = d, B x = beta)
        fails the batch, which must not be empty."""
        B, pinv, pinv64, top, L = self._solver
        rows = [[c for counts in v for c in counts] for v in vectors]
        b = np.array(rows, dtype=np.int64)
        # |(pinv b)_i| <= max|pinv| sum(b), and sum(b) = dim * #p-regular
        # classes for the vector of a module
        if pinv64 is not None and top * max(map(sum, rows)) < 1 << 63:
            Lx = (b @ pinv64.T).tolist()
        else:
            Lx = [[sum(p * c for p, c in zip(row, v)) for row in pinv]
                  for v in rows]
        X = [[c // L for c in row] for row in Lx]
        sizes = [S.dim for S in self.simples]
        ok = [not any(c % L for c in row) and all(0 <= c <= dim for c in x)
              and sum(c * n for c, n in zip(x, sizes)) == dim
              for row, x, dim in zip(Lx, X, dims)]
        if all(ok):  # x is in range, so B x fits in int64
            ok = [bx == row for bx, row in
                  zip((np.array(X, dtype=np.int64) @ B.T).tolist(), rows)]
        if not all(ok):
            raise Inconsistency(
                f"the Brauer vector of a dim-{dims[ok.index(False)]} module "
                "is no nonnegative integral combination of the simples' "
                "vectors")
        return [ClassVector(self, x) for x in X]

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
    basis of End(M) that hom_space(M, M) returns (for M = k[G] the tests
    read it off the multiplication table).

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
                "simple; another source of draws may split it")
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
    """Projective over k[G] iff free over k[P] for a Sylow p-subgroup P,
    iff dim M = |P| * dim M^P: k[P] is self-injective with a simple
    socle, so M embeds in k[P]^(dim M^P), with equality exactly when M is
    free.  M^P is the common kernel of g - 1 over P's generators."""
    G = M.group
    P = sylow_p(G, M.field.p)
    if P.order == 1 or M.dim == 0:
        return True
    eye = Mat.identity(M.field, M.dim)
    in_G = P.positions_in(G)
    stacked = Mat(M.field, np.concatenate(
        [(M.image(in_G[g]) - eye).a for g in P.generators]))
    return M.dim == P.order * (M.dim - stacked.rank())

