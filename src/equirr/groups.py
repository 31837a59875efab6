"""Finite groups presented as subgroups of PGL2(GF(q)) or as abstract
multiplication tables.

PGL2 elements are kept in a canonical normal form (first nonzero entry in
row-major order scaled to 1) so equality of projective classes is plain
tuple equality.  Every group carries a small generating set and a word for
each element in those generators; representations store matrices for the
generators only and rebuild other images from the words.

A group built from generators or a table is its own root.  Every subgroup
is a FiniteGroup over that root (G.subgroup), one object per element set
while anything holds it (the root holds it weakly, so no group is in a
reference cycle), whose elements are root indices in increasing order;
H.positions_in(K) reads H's elements as indices of any overgroup K over
the same root.
"""

from __future__ import annotations

import weakref
from operator import itemgetter

import numpy as np

from .errors import CapExceeded, Inconsistency, InputError
from .fields import Field

DEFAULT_ORDER_CAP = 2000


# -- PGL2 element helpers ------------------------------------------------


def pgl2_normalize(field: Field, m) -> tuple[int, int, int, int]:
    a, b, c, d = m
    det = field.sub(field.mul(a, d), field.mul(b, c))
    if det == 0:
        raise InputError(f"singular matrix {m} is not in PGL2")
    for lead in (a, b, c, d):
        if lead:
            inv = field.inv(lead)
            return tuple(field.mul(inv, x) for x in (a, b, c, d))
    raise InputError("zero matrix")


def pgl2_mul(field: Field, m1, m2) -> tuple[int, int, int, int]:
    a, b, c, d = m1
    e, f, g, h = m2
    return pgl2_normalize(field, (
        field.add(field.mul(a, e), field.mul(b, g)),
        field.add(field.mul(a, f), field.mul(b, h)),
        field.add(field.mul(c, e), field.mul(d, g)),
        field.add(field.mul(c, f), field.mul(d, h)),
    ))


def pgl2_inv(field: Field, m) -> tuple[int, int, int, int]:
    a, b, c, d = m
    return pgl2_normalize(field, (d, field.neg(b), field.neg(c), a))


def mobius_images(F: Field, mats: np.ndarray,
                  points: np.ndarray) -> np.ndarray:
    """(a x + b) / (c x + d) for every row (a, b, c, d) of mats and every
    point x of P^1(F) in points, as one array of shape (len(mats),
    len(points)).  Points and images are encodings of F, with F.q standing
    for infinity; the entries of mats are encodings of F too, so a label
    over k is first pushed through k.embedding_into(F)."""
    a, b, c, d = mats.T[:, :, None]
    x = points[None, :]
    finite = x < F.q
    x = np.where(finite, x, 0)
    num = np.where(finite, F.add_array(F.mul_array(a, x), b), a)
    den = np.where(finite, F.add_array(F.mul_array(c, x), d), c)
    return np.where(den == 0, F.q, F.div_array(num, den))


def _pgl2_table(field: Field, labels, gens, steps) -> list[list[int]]:
    """The Cayley table of the sorted PGL2 labels of a closure, read off
    how the elements permute P^1(k).

    A Mobius map is fixed by its images of 0, 1 and infinity, so each
    element has a key, the number those three images spell in base q + 1.
    The row of a generator g, the index of g b for every b, is the element
    whose key g spells on b's three images: one lookup per cell, and a
    product that is not an element raises Inconsistency.  `steps` maps
    each label, in closure order, to (e, t) with label = e gens[t] (None
    for the identity), and the row of e g is the row of e composed with
    the row of g."""
    q, n = field.q, len(labels)
    points = np.arange(q + 1)
    triples = mobius_images(field, np.array(labels, dtype=np.int64),
                            points[[0, 1, q]])
    perms = mobius_images(field, np.array(gens, dtype=np.int64), points)

    def keys(images):
        return (images[..., 0] * (q + 1) + images[..., 1]) * (q + 1) \
            + images[..., 2]

    order = np.argsort(keys(triples))
    known = keys(triples)[order]
    wanted = keys(perms[:, triples])
    at = np.minimum(np.searchsorted(known, wanted), n - 1)
    if not np.array_equal(known[at], wanted):
        raise Inconsistency("a product of two elements left the group")
    # the row of e g picks the entries of e's row at g's row; the rows
    # share the identity row's int objects
    picks = [itemgetter(*row) for row in order[at].tolist()]
    index = {label: i for i, label in enumerate(labels)}
    rows = [None] * n
    for label, step in steps.items():
        rows[index[label]] = (list(range(n)) if step is None else
                              list(picks[step[1]](rows[index[step[0]]])))
    return rows


# -- finite groups ----------------------------------------------------------


class FiniteGroup:
    """Multiplication-table group with opaque element labels.

    labels[i] identifies element i: a normalized PGL2 tuple for matrix
    groups, an int for abstract tables, or a root-group index for
    subgroups.
    """

    def __init__(self, labels, table, kind: str, field: Field | None = None,
                 root=None):
        self.labels = list(labels)
        self.order = len(self.labels)
        self.table = table
        self.kind = kind
        self.field = field
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        self.generators = self._greedy_generators()
        self.words = self._generator_words()
        self._root = root
        self.root_index = (self.labels if root is not None
                           else list(range(self.order)))
        self._subgroup_cache = weakref.WeakValueDictionary()
        self._order_cache: dict[int, int] = {}

    @property
    def root(self) -> FiniteGroup:
        """The group this one is a subgroup of; a root is its own."""
        return self if self._root is None else self._root

    # construction ---------------------------------------------------------

    @classmethod
    def from_table(cls, table) -> "FiniteGroup":
        n = len(table)
        for row in table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise InputError("multiplication table is not square or "
                                 "has out-of-range entries")
        g = cls(list(range(n)), [list(r) for r in table], kind="table")
        g._check_associativity()
        return g

    @classmethod
    def close_generators(cls, field: Field, gen_matrices,
                         cap: int = DEFAULT_ORDER_CAP) -> "FiniteGroup":
        """Breadth-first closure of PGL2 generators."""
        gens = [pgl2_normalize(field, tuple(m)) for m in gen_matrices]
        ident = pgl2_normalize(field, (1, 0, 0, 1))
        steps = {ident: None}  # label -> (e, t) with label = e gens[t]
        frontier = [ident]
        while frontier:
            nxt = []
            for e in frontier:
                for t, g in enumerate(gens):
                    prod = pgl2_mul(field, e, g)
                    if prod not in steps:
                        if len(steps) >= cap:
                            raise CapExceeded(
                                f"group closure exceeded cap {cap}")
                        steps[prod] = (e, t)
                        nxt.append(prod)
            frontier = nxt
        labels = sorted(steps)
        return cls(labels, _pgl2_table(field, labels, gens, steps),
                   kind="pgl2", field=field)

    def _find_identity(self) -> int:
        for i in range(self.order):
            if all(self.table[i][j] == j for j in range(self.order)):
                if all(self.table[j][i] == j for j in range(self.order)):
                    return i
        raise InputError("multiplication table has no identity")

    def _find_inverses(self):
        """inverse[i], the first j with i j = 1 in row i of the table,
        which must also have j i = 1."""
        inv = []
        e = self.identity
        for i, row in enumerate(self.table):
            try:
                j = row.index(e)
            except ValueError:
                raise InputError(f"element {i} has no inverse") from None
            if self.table[j][i] != e:
                raise InputError("one-sided inverse in table")
            inv.append(j)
        return inv

    def _greedy_generators(self):
        if self.order == 1:
            return ()
        gens = []
        closed = {self.identity}
        for i in range(self.order):
            if i in closed:
                continue
            gens.append(i)
            closed = self._closure_set(gens)
            if len(closed) == self.order:
                break
        return tuple(gens)

    def _closure_set(self, gens):
        out = {self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for e in frontier:
                for g in gens:
                    prod = self.table[e][g]
                    if prod not in out:
                        out.add(prod)
                        nxt.append(prod)
            frontier = nxt
        return out

    def _generator_words(self):
        words = [None] * self.order
        words[self.identity] = ()
        frontier = [self.identity]
        while frontier:
            nxt = []
            for e in frontier:
                for t, g in enumerate(self.generators):
                    prod = self.table[e][g]
                    if words[prod] is None:
                        words[prod] = words[e] + (t,)
                        nxt.append(prod)
            frontier = nxt
        if any(w is None for w in words):
            raise Inconsistency("generator words do not cover the group")
        return words

    def _check_associativity(self):
        """Light's test: (x y) g = x (y g) for all x, y and each generator
        g.  The g for which that holds for all x, y are closed under the
        product, and the generators' words reach every element, so the
        table is associative exactly when the test passes: |G|^2 checks
        per generator."""
        table = np.array(self.table, dtype=np.int32)
        for g in self.generators:
            column = table[:, g]
            bad = np.argwhere(column[table] != table[:, column])
            if len(bad):
                x, y = map(int, bad[0])
                raise InputError(
                    "multiplication table is not associative: "
                    f"({x} {y}) {g} = {int(column[table[x, y]])} but "
                    f"{x} ({y} {g}) = {int(table[x, column[y]])}")

    # queries --------------------------------------------------------------

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.table[self.table[g][x]][self.inverse[g]]

    def element_order(self, i: int) -> int:
        if i not in self._order_cache:
            k = 1
            cur = i
            while cur != self.identity:
                cur = self.table[cur][i]
                k += 1
            self._order_cache[i] = k
        return self._order_cache[i]

    def closure(self, idxs) -> tuple[int, ...]:
        return tuple(sorted(self._closure_set(list(idxs))))

    def subgroup(self, indices) -> "FiniteGroup":
        """The subgroup on the given element indices, as a FiniteGroup over
        the root whose labels are root indices in increasing order.

        The whole root group is the root itself.  Any other subgroup is
        cached weakly per root-index set: every route to the same subgroup
        gives one object while anything holds it.  A set without the
        identity, or one that the table build finds a product outside of,
        raises InputError.
        """
        root = self.root
        root_set = frozenset(self.root_index[i] for i in indices)
        if len(root_set) == root.order:
            return root
        if (sub := root._subgroup_cache.get(root_set)) is not None:
            return sub
        if root.identity not in root_set:
            raise InputError("subgroup must contain the identity")
        ordered = sorted(root_set)
        pos = {ri: k for k, ri in enumerate(ordered)}
        try:
            table = [[pos[root.table[a][b]] for b in ordered]
                     for a in ordered]
        except KeyError:
            raise InputError("element set is not closed under "
                             "multiplication") from None
        sub = FiniteGroup(ordered, table, kind="sub", field=root.field,
                          root=root)
        root._subgroup_cache[root_set] = sub
        return sub

    def positions_in(self, K: "FiniteGroup") -> list[int]:
        """The index in K of each element of this group, for an overgroup
        K over the same root."""
        if K.root is not self.root:
            raise InputError("subgroups live over different root groups")
        if K is self.root:
            return list(self.root_index)
        try:
            return [K.index[r] for r in self.root_index]
        except KeyError:
            raise InputError("subgroup is not contained in the target "
                             "group") from None


# -- classical operations ------------------------------------------------


def conjugacy_classes(G: FiniteGroup) -> list[list[int]]:
    """Partition into conjugation orbits; classes sorted by least element."""
    seen = [False] * G.order
    classes = []
    for i in range(G.order):
        if seen[i]:
            continue
        orbit = sorted({G.conjugate(g, i) for g in range(G.order)})
        for x in orbit:
            seen[x] = True
        classes.append(orbit)
    classes.sort(key=lambda c: c[0])
    return classes


def _p_part(m: int, p: int) -> int:
    out = 1
    while m % p == 0:
        out *= p
        m //= p
    return out


def sylow_p(G: FiniteGroup, p: int) -> FiniteGroup:
    """A Sylow p-subgroup by normalizer climbing; any one is acceptable."""
    target = _p_part(G.order, p)
    current = {G.identity}
    while len(current) < target:
        grew = False
        for g in range(G.order):
            o = G.element_order(g)
            if o == 1 or _p_part(o, p) != o or g in current:
                continue
            if all(G.conjugate(g, h) in current for h in current):
                current = set(G.closure(current | {g}))
                grew = True
                break
        if not grew:
            raise Inconsistency("Sylow climb stalled; table is inconsistent")
    return G.subgroup(current)


def cyclic_quotient(G: FiniteGroup, P: FiniteGroup, p: int):
    """(c, j) when the Sylow p-subgroup P is normal in G and G/P is cyclic:
    c an element of order m = |G:P| and j[g] the exponent with g in c^j P,
    for every element g of G.  None otherwise.

    P is normal when conjugation by each generator keeps it.  Then every
    p-element lies in P, so an element of order p^a m' maps to one of
    order m' in G/P, and G/P is cyclic exactly when some element's order
    has p'-part m; its p^a-th power c has order m."""
    in_G = P.positions_in(G)
    members = set(in_G)
    if any(G.conjugate(g, x) not in members
           for g in G.generators for x in in_G):
        return None
    m = G.order // P.order
    for g in range(G.order):
        a = _p_part(G.element_order(g), p)
        if G.element_order(g) == a * m:
            c = G.identity
            for _ in range(a):
                c = G.table[c][g]
            break
    else:
        return None
    j = [0] * G.order
    y = G.identity
    for s in range(m):
        for x in in_G:
            j[G.table[y][x]] = s
        y = G.table[y][c]
    return c, j


def coset_lookup(G: FiniteGroup, H: FiniteGroup):
    """(reps, where): the left-coset representatives of a subgroup H, the
    identity for H itself and then the least unused element index of G,
    and where[x] = (k, h) for the element x of G in the k-th coset, x =
    reps[k] h with h an index of H."""
    in_G = H.positions_in(G)
    reps, where = [], [None] * G.order
    for g in [G.identity, *range(G.order)]:
        if where[g] is None:
            for h, x in enumerate(in_G):
                where[G.table[g][x]] = (len(reps), h)
            reps.append(g)
    return reps, where
