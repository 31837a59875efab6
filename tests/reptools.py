"""Module-theoretic tools that only the tests use: an explicit-intertwiner
isomorphism test and the socle dimension."""

import random

from equirr.errors import CapExceeded
from equirr.matrices import Mat
from equirr.reps import Rep, SimpleRegistry, hom_dim, hom_space

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
