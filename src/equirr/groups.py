"""Finite groups presented as subgroups of PGL2(GF(q)) or as abstract
multiplication tables.

PGL2 elements are kept in a canonical normal form (first nonzero entry in
row-major order scaled to 1) so equality of projective classes is plain
tuple equality.  Every group carries a small generating set and a word for
each element in those generators; representations store matrices for the
generators only and rebuild other images from the words.
"""

from __future__ import annotations

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


# -- finite groups ----------------------------------------------------------


class FiniteGroup:
    """Multiplication-table group with opaque element labels.

    labels[i] identifies element i: a normalized PGL2 tuple for matrix
    groups, an int for abstract tables, or a root-group index for
    materialized subgroups.
    """

    def __init__(self, labels, table, kind: str, field: Field | None = None,
                 root=None, root_index=None):
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
        self.root = root if root is not None else self
        self.root_index = (root_index if root_index is not None
                           else list(range(self.order)))
        self._subgroup_cache: dict[frozenset, "FiniteGroup"] = {}
        self._order_cache: dict[int, int] = {}

    # construction ---------------------------------------------------------

    @classmethod
    def from_table(cls, table) -> "FiniteGroup":
        n = len(table)
        for row in table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise InputError("multiplication table is not square or "
                                 "has out-of-range entries")
        g = cls(list(range(n)), [list(r) for r in table], kind="table")
        g._spot_check_associativity()
        return g

    @classmethod
    def close_generators(cls, field: Field, gen_matrices,
                         cap: int = DEFAULT_ORDER_CAP) -> "FiniteGroup":
        """Breadth-first closure of PGL2 generators."""
        gens = [pgl2_normalize(field, tuple(m)) for m in gen_matrices]
        ident = pgl2_normalize(field, (1, 0, 0, 1))
        elements = [ident]
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for e in frontier:
                for g in gens:
                    prod = pgl2_mul(field, e, g)
                    if prod not in seen:
                        if len(elements) >= cap:
                            raise CapExceeded(
                                f"group closure exceeded cap {cap}")
                        seen.add(prod)
                        elements.append(prod)
                        nxt.append(prod)
            frontier = nxt
        elements.sort()
        index = {e: i for i, e in enumerate(elements)}
        table = [[index[pgl2_mul(field, a, b)] for b in elements]
                 for a in elements]
        return cls(elements, table, kind="pgl2", field=field)

    def _find_identity(self) -> int:
        for i in range(self.order):
            if all(self.table[i][j] == j for j in range(self.order)):
                if all(self.table[j][i] == j for j in range(self.order)):
                    return i
        raise InputError("multiplication table has no identity")

    def _find_inverses(self):
        inv = [None] * self.order
        e = self.identity
        for i in range(self.order):
            for j in range(self.order):
                if self.table[i][j] == e:
                    if self.table[j][i] != e:
                        raise InputError("one-sided inverse in table")
                    inv[i] = j
                    break
            if inv[i] is None:
                raise InputError(f"element {i} has no inverse")
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

    def _spot_check_associativity(self, samples: int = 200):
        import random as _random
        rng = _random.Random(0)
        n = self.order
        for _ in range(min(samples, n**3)):
            a, b, c = (rng.randrange(n) for _ in range(3))
            if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                raise InputError("multiplication table is not associative")

    # queries --------------------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

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

    def materialize_subgroup(self, indices) -> "FiniteGroup":
        """Subgroup on the given (closed) index set as its own FiniteGroup.

        The whole root group is the root itself.  Any other subgroup is
        cached per root-index set, so two routes to the same subgroup share
        one object; its element labels are root indices.
        """
        root = self.root
        root_set = frozenset(self.root_index[i] for i in indices)
        if len(root_set) == root.order:
            return root
        if root_set in root._subgroup_cache:
            return root._subgroup_cache[root_set]
        ordered = sorted(root_set)
        pos = {ri: k for k, ri in enumerate(ordered)}
        root_table = root.table
        table = [[pos[root_table[a][b]] for b in ordered] for a in ordered]
        sub = FiniteGroup(ordered, table, kind="sub", field=root.field,
                          root=root, root_index=ordered)
        root._subgroup_cache[root_set] = sub
        return sub


class Subgroup:
    """A subgroup given by a sorted tuple of parent element indices."""

    def __init__(self, parent: FiniteGroup, indices, check: bool = True):
        idx = tuple(sorted(set(indices)))
        if check:
            if parent.identity not in idx:
                raise InputError("subgroup must contain the identity")
            idx_set = set(idx)
            for a in idx:
                for b in idx:
                    if parent.table[a][b] not in idx_set:
                        raise InputError("element set is not closed under "
                                         "multiplication")
        self.parent = parent
        self.indices = idx
        self.order = len(idx)

    def as_group(self) -> FiniteGroup:
        return self.parent.materialize_subgroup(self.indices)

    def in_subgroup_of(self, other_parent: FiniteGroup) -> "Subgroup":
        """Re-express this subgroup relative to a materialized overgroup
        that shares the same root."""
        root = self.parent.root
        if other_parent.root is not root:
            raise InputError("subgroups live over different root groups")
        my_roots = {self.parent.root_index[i] for i in self.indices}
        pos = {ri: k for k, ri in enumerate(other_parent.root_index)}
        try:
            idx = tuple(sorted(pos[ri] for ri in my_roots))
        except KeyError:
            raise InputError("subgroup is not contained in the target group")
        return Subgroup(other_parent, idx, check=False)

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.parent is other.parent
                and self.indices == other.indices)

    def __hash__(self):
        return hash((id(self.parent), self.indices))

    def __repr__(self):
        return f"Subgroup(order {self.order} of order-{self.parent.order})"


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


def sylow_p(G: FiniteGroup, p: int) -> Subgroup:
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
    return Subgroup(G, sorted(current), check=False)


def cosets(G: FiniteGroup, H: Subgroup) -> list[int]:
    """Left-coset representatives gH, least unused element index first."""
    if H.parent is not G:
        raise InputError("H is not a subgroup of G")
    reps = []
    assigned = [False] * G.order
    for g in range(G.order):
        if assigned[g]:
            continue
        reps.append(g)
        for h in H.indices:
            assigned[G.table[g][h]] = True
    return reps


def coset_lookup(G: FiniteGroup, H: Subgroup):
    """Map element -> (coset position, H-part) for the deterministic
    coset order of cosets()."""
    reps = cosets(G, H)
    where = [None] * G.order
    for k, r in enumerate(reps):
        for h in H.indices:
            where[G.table[r][h]] = (k, h)
    return reps, where
