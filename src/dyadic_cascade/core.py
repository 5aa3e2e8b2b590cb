"""Tree topology, model parameters and the state container.

The complete N-ary tree is stored as a flat array in implicit heap layout:
the children of node i are the contiguous block N*i + 1 .. N*i + N, so a
generation occupies one contiguous slice and no per-node structure is ever
allocated.  The classic (chain) model is the tree with N = 1: one node per
shell, node n holding shell n, so one state type serves both models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityExceeded, DepthMismatch, DomainError

# Flat-array index of a node. The root is 0.
NodeId = int

#: Default cap on stored values; converts a typo'd depth into a typed error
#: instead of an out-of-memory kill.
DEFAULT_NODE_BUDGET = 2 ** 30

_LN2 = math.log(2.0)


def pow2(x: float) -> float:
    """2**x through a single code path.

    Every coefficient in the models is a power of two (c = 2^{alpha*n},
    d = 2^{gamma*n}, the lift factors, ...).  Routing them all through one
    scalar evaluation keeps every evaluation of a coefficient bit-identical
    and makes integer exponents exact.
    """
    return 2.0 ** float(x)


def one_minus_pow2(x: float) -> float:
    """1 - 2^x as -expm1(x ln 2), without the cancellation of 1 - pow2(x)
    for x near 0."""
    return -math.expm1(x * _LN2)


def node_count(branching: int, depth: int, max_nodes: int = DEFAULT_NODE_BUDGET) -> int:
    """Total number of nodes in generations 0..depth of the complete tree.

    Raises CapacityExceeded if the count would exceed ``max_nodes``; a
    count that cannot fit is rejected from bit lengths, without building it.
    """
    if branching < 1:
        raise DomainError(f"branching must be >= 1, got {branching}")
    if depth < 0:
        raise DomainError(f"depth must be >= 0, got {depth}")
    budget_bits = int(max_nodes).bit_length()
    if branching == 1:
        count = depth + 1
    elif depth * (branching.bit_length() - 1) >= budget_bits:
        count = None  # at least branching**depth >= 2**budget_bits nodes
    else:
        count = (branching ** (depth + 1) - 1) // (branching - 1)
    if count is None or count > max_nodes:
        raise CapacityExceeded(
            f"a tree of branching {branching} and depth {depth} holds more "
            f"than the budget of {max_nodes} nodes ({8 * max_nodes:.3g} bytes)")
    return count


def generation_offsets(branching: int, depth: int) -> tuple[int, ...]:
    """Start index of each generation, plus the total as a sentinel.

    offsets[g] .. offsets[g+1] is the slice of generation g.
    """
    offs = [0]
    width = 1
    for _ in range(depth + 1):
        offs.append(offs[-1] + width)
        width *= branching
    return tuple(offs)


def generation(index: NodeId, branching: int) -> int:
    """Generation number |j| of a node, O(1) via closed-form log with exact
    integer correction."""
    if index < 0:
        raise DomainError(f"negative node index {index}")
    if branching == 1:
        return index
    # index lies in generation g iff (N^g - 1)/(N-1) <= index < (N^{g+1} - 1)/(N-1)
    x = index * (branching - 1) + 1  # = N^g at the generation start
    g = int(math.log2(x) / math.log2(branching))
    # float log can be off by one near boundaries; fix with exact ints
    while branching ** g > x:
        g -= 1
    while branching ** (g + 1) <= x:
        g += 1
    return g


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class ModelParams:
    """All model coefficients plus the Galerkin truncation depth.

    Derived quantities: ``alpha_tilde`` = log2(branching)/2 (so that
    2^{2*alpha_tilde} = branching exactly for powers of two) and
    ``beta`` = alpha - alpha_tilde, the exponent the classic model inherits
    under the generation-symmetric correspondence.

    ``branching`` must be a power of two (1 for the chain), so that
    alpha_tilde is exact.

    ``max_nodes`` is a budget of float64 values, 8 bytes each, for the tree
    and for what integrate holds (dynamics.held_values); the default 2^30
    values is 8.6 GB.
    """

    alpha: float
    gamma: float = 1.0
    nu: float = 0.0
    f: float = 0.0
    branching: int = 2
    depth: int = 0
    max_nodes: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise DomainError(f"alpha must be > 0 and finite, got {self.alpha}")
        if not 0 < self.gamma < math.inf:
            raise DomainError(f"gamma must be > 0 and finite, got {self.gamma}")
        if not 0 <= self.nu < math.inf:
            raise DomainError(f"nu must be >= 0 and finite, got {self.nu}")
        if not 0 <= self.f < math.inf:
            raise DomainError(f"f must be >= 0 and finite, got {self.f}")
        if self.depth < 0:
            raise DomainError(f"depth must be >= 0, got {self.depth}")
        if not _is_power_of_two(self.branching):
            raise DomainError(
                f"branching must be a power of two, got {self.branching}")
        node_count(self.branching, self.depth, self.max_nodes)  # capacity check

    @property
    def alpha_tilde(self) -> float:
        return 0.5 * math.log2(self.branching)

    @property
    def beta(self) -> float:
        return self.alpha - self.alpha_tilde

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return generation_offsets(self.branching, self.depth)

    @cached_property
    def generation_starts(self) -> np.ndarray:
        """offsets[:-1] as a read-only intp array: the segment starts of a
        per-generation np.add.reduceat."""
        starts = np.array(self.offsets[:-1], dtype=np.intp)
        starts.setflags(write=False)
        return starts

    @property
    def n_nodes(self) -> int:
        return self.offsets[-1]

    # coefficient evaluators; powers of two by exponent manipulation
    def c(self, gen: int) -> float:
        """Flow-speed coefficient 2^{alpha*gen}."""
        return pow2(self.alpha * gen)

    def d(self, gen: int) -> float:
        """Viscous coefficient 2^{gamma*gen}."""
        return pow2(self.gamma * gen)


@dataclass(frozen=True)
class TreeState:
    """Intensities on the complete tree, one float per node, heap-indexed.

    With branching 1 this is a chain state: values[n] is shell n.
    Immutable after construction; safe to share across threads.
    """

    values: np.ndarray
    params: ModelParams

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, copy=True)
        n = self.params.n_nodes
        if values.ndim != 1 or values.shape[0] != n:
            raise DepthMismatch(f"TreeState expects {n} values, got shape {values.shape}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, params: ModelParams) -> "TreeState":
        return cls(np.zeros(params.n_nodes), params)

    def generation_slice(self, gen: int) -> np.ndarray:
        offs = self.params.offsets
        return self.values[offs[gen]:offs[gen + 1]]

    @property
    def is_finite(self) -> bool:
        return bool(np.isfinite(self.values).all())
