"""Parent and children of a node in the implicit heap layout, one node at a
time: the per-node oracle for the kernel's whole-array child sums and gains.

The children of node i are N*i + 1 .. N*i + N; the root's symbolic parent
is the forcing alias, not a stored node.
"""

from __future__ import annotations

from dyadic_cascade import NodeId, generation
from dyadic_cascade.errors import CascadeError, DomainError


class RootHasNoParent(CascadeError):
    """parent() called on the root; its symbolic parent is the forcing alias."""


def parent(index: NodeId, branching: int) -> NodeId:
    """Index of the parent node.  The root has none: its symbolic parent is
    the forcing alias, not a stored node."""
    if index == 0:
        raise RootHasNoParent("node 0 is the root")
    if index < 0:
        raise DomainError(f"negative node index {index}")
    return (index - 1) // branching


def children(index: NodeId, branching: int, depth: int) -> range:
    """Index range of the children, or an empty range at the truncation
    boundary (deepest stored generation)."""
    if generation(index, branching) >= depth:
        return range(0)
    first = branching * index + 1
    return range(first, first + branching)
