"""Gale duality between vector configurations and element collections.

A spanning configuration of r vectors in rank n determines a finitely
generated abelian group (the cokernel of the transposed configuration)
together with r distinguished elements; conversely a generating
collection in such a group determines a configuration in rank
r - free_rank, unique up to a unimodular change of coordinates.  The
rational version replaces the group by the dual of the kernel space.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, permutations, product
from math import factorial, prod

from .errors import InternalError, NotGeneratingError, check_search
from .groups import (
    AbelianGroup,
    ElementCollection,
    GroupElement,
    _relation_basis,
    generates_group,
    group_from_cokernel,
)
from .linalg import IntMatrix, Vector, integer_kernel, row_hermite_form
from .fans import VectorConfiguration


def lattice_gale_transform(config: VectorConfiguration) -> tuple[AbelianGroup, ElementCollection]:
    """Group-with-elements dual to a spanning configuration.

    The i-th element is the image of the i-th coordinate vector in the
    cokernel of the transposed configuration matrix; the collection
    always generates the group.

    >>> g, coll = lattice_gale_transform(VectorConfiguration(2, ((1, 0), (1, 2))))
    >>> (g.free_rank, g.torsion, [e.torsion for e in coll])
    (0, (2,), [(1,), (1,)])
    """
    cok = group_from_cokernel(IntMatrix(config.vectors, config.rank))
    group, f = cok.group, cok.group.free_rank
    # element i is column i of the projection, which has no rows for a trivial group
    cols = zip(*cok.projection.entries) if cok.projection.rows else [()] * len(config)
    return group, ElementCollection(group, tuple([group.element(c[:f], c[f:]) for c in cols]))


def inverse_gale_transform(coll: ElementCollection) -> VectorConfiguration:
    """Configuration whose Gale transform is the given generating collection.

    Vector i lists the i-th entries of a basis of the relations among
    the elements.  Any basis gives the result up to left unimodular
    equivalence; the short one of ``_relation_basis`` keeps searches on
    the rays, such as ``is_suitable``, fast.  The same Smith form decides
    generation and yields the relations.
    """
    relations = _relation_basis(coll)
    if relations is None:
        raise NotGeneratingError("collection does not generate its group")
    return _configuration(coll, relations)


def _configuration(coll: ElementCollection, relations: tuple[Vector, ...]) -> VectorConfiguration:
    # the relations of a generating collection have rank r - free rank
    vectors = tuple(tuple(rel[i] for rel in relations) for i in coll.indices)
    return VectorConfiguration(len(coll) - coll.group.free_rank, vectors)


def linear_gale_transform(config: VectorConfiguration) -> tuple[int, tuple[Vector, ...]]:
    """Rational Gale dual: coordinate functionals restricted to the kernel.

    Returns (dimension, vectors); the defining identity that the sum of
    the tensors v_i (x) w_i vanishes is checked exactly.
    """
    r = len(config)
    kernel = integer_kernel(config.column_matrix())
    dim = len(kernel)
    if dim != r - config.rank:
        raise InternalError("kernel dimension differs from r - rank")
    duals = tuple(tuple(vec[i] for vec in kernel) for i in range(r))
    for row in range(config.rank):
        for col in range(dim):
            if sum(config[i][row] * duals[i][col] for i in range(r)) != 0:
                raise InternalError("Gale identity sum v_i (x) w_i = 0 fails")
    return dim, duals


def canonical_form(config: VectorConfiguration) -> VectorConfiguration:
    """Canonical representative under left unimodular changes of basis.

    Takes the row-style Hermite form of the matrix whose columns are
    the configuration vectors; the vector order is preserved, so two
    configurations are unimodularly equivalent (in the same order) iff
    their canonical forms coincide.

    >>> canonical_form(VectorConfiguration(2, ((1, 0), (-1, 3)))).vectors
    ((1, 0), (2, 3))
    """
    _, h = row_hermite_form(config.column_matrix())
    return VectorConfiguration(config.rank, tuple(h.col(j) for j in range(len(config))))


def configs_equivalent(left: VectorConfiguration, right: VectorConfiguration) -> bool:
    """Same rank, same length, same canonical form (order preserved)."""
    if left.rank != right.rank or len(left) != len(right):
        return False
    return row_hermite_form(left.column_matrix())[1] == row_hermite_form(right.column_matrix())[1]


def pairs_equivalent(left: ElementCollection, right: ElementCollection) -> bool:
    """Is there a group isomorphism carrying one collection onto the
    other as multisets?

    Both collections must generate their groups; the search then runs
    over multiplicity-preserving bijections between the distinct
    values, each of which determines the only possible homomorphism.
    A bijection wins when it preserves every relation among the
    elements; surjectivity onto a group of the same normal form makes
    the induced map an isomorphism.
    """
    if left.group != right.group or len(left) != len(right):
        return False
    relations = _relation_basis(left)
    if (relations is not None) != generates_group(right):
        return False
    if relations is None:
        raise NotGeneratingError(
            "equivalence of non-generating collections is not decided by this routine"
        )

    lcount = Counter(left)
    rcount = Counter(right)
    if sorted(lcount.values()) != sorted(rcount.values()):
        return False
    mults = sorted(set(lcount.values()))
    lgrouped = [sorted((v for v in lcount if lcount[v] == m), key=GroupElement.lift) for m in mults]
    rgrouped = [sorted((v for v in rcount if rcount[v] == m), key=GroupElement.lift) for m in mults]
    sizes = [len(g) for g in lgrouped]
    formula = "*".join("%d!" % k for k in sizes)
    check_search("pair bijection search of %s bijections", formula, prod(map(factorial, sizes)))

    lvalues = list(chain(*lgrouped))
    for perms in product(*(permutations(g) for g in rgrouped)):
        mapping = dict(zip(lvalues, chain(*perms)))
        images = [mapping[e] for e in left]
        if all(right.group.combination(rel, images).is_zero for rel in relations):
            return True
    return False
