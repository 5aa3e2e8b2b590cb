import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadic_cascade import (
    LiftSpec,
    ModelParams,
    TreeState,
    generation,
    generation_offsets,
    lift_state,
    node_count,
)
from dyadic_cascade.errors import (
    CapacityExceeded, DepthMismatch, DomainError, ParameterMismatch)
from heap_oracle import RootHasNoParent, children, parent


def brute_force_offsets(branching, depth):
    """Independent offset table: count nodes generation by generation."""
    offs = [0]
    for g in range(depth + 1):
        offs.append(offs[-1] + branching ** g)
    return offs


class TestNodeCount:
    def test_binary_depth3(self):
        assert node_count(2, 3) == 15  # 1+2+4+8

    def test_path_graph(self):
        assert node_count(1, 5) == 6

    def test_octal_depth4_against_bruteforce(self):
        expected = sum(8 ** g for g in range(5))
        assert expected == 4681
        assert node_count(8, 4) == expected

    def test_capacity(self):
        with pytest.raises(CapacityExceeded):
            node_count(2, 40)
        assert node_count(2, 40, max_nodes=2 ** 42) == 2 ** 41 - 1

    @pytest.mark.parametrize("branching, depth", [(2, 20000), (2, 10 ** 12),
                                                  (3, 10 ** 15), (2 ** 40, 1)])
    def test_capacity_without_the_exact_count(self, branching, depth):
        """A count far past the budget is rejected from bit lengths, and the
        message names the budget, not a count of thousands of digits."""
        with pytest.raises(CapacityExceeded, match="budget of 1073741824 nodes") as e:
            node_count(branching, depth)
        assert len(str(e.value)) < 120
        assert str(e.value).endswith("(8.59e+09 bytes)")  # 8 bytes per value

    def test_capacity_edge(self):
        assert node_count(2, 29) == 2 ** 30 - 1
        with pytest.raises(CapacityExceeded):
            node_count(2, 30)
        assert node_count(2, 30, max_nodes=2 ** 31 - 1) == 2 ** 31 - 1

    def test_bad_args(self):
        with pytest.raises(ValueError):
            node_count(0, 3)
        with pytest.raises(ValueError):
            node_count(2, -1)


class TestIndexing:
    def test_parent_examples(self):
        assert parent(5, 2) == 2
        assert parent(1, 4) == 0
        with pytest.raises(RootHasNoParent):
            parent(0, 2)

    def test_children_examples(self):
        assert list(children(0, 2, depth=3)) == [1, 2]
        assert list(children(2, 2, depth=3)) == [5, 6]
        # truncation boundary: explicitly empty, no error
        deepest = node_count(2, 3) - 1
        assert len(children(deepest, 2, depth=3)) == 0

    def test_generation_examples(self):
        assert generation(0, 2) == 0
        assert generation(6, 2) == 2
        # derived via brute-force offset table
        offs = brute_force_offsets(8, 4)
        idx = node_count(8, 4) - 1
        expected = max(g for g in range(5) if offs[g] <= idx)
        assert expected == 4
        assert generation(idx, 8) == expected

    def test_generation_matches_bruteforce_table(self):
        for branching in (1, 2, 4, 8):
            offs = brute_force_offsets(branching, 5)
            for idx in range(offs[-1]):
                expected = next(g for g in range(6) if offs[g] <= idx < offs[g + 1])
                assert generation(idx, branching) == expected

    def test_offsets(self):
        assert generation_offsets(2, 3) == (0, 1, 3, 7, 15)
        assert generation_offsets(1, 4) == (0, 1, 2, 3, 4, 5)


@settings(max_examples=200, derandomize=True)
@given(branching=st.sampled_from([1, 2, 4, 8]), depth=st.integers(1, 6),
       data=st.data())
def test_round_trip_and_generation_consistency(branching, depth, data):
    total = node_count(branching, depth)
    idx = data.draw(st.integers(1, total - 1))
    p = parent(idx, branching)
    assert idx in children(p, branching, depth)
    assert generation(idx, branching) == generation(p, branching) + 1


@settings(max_examples=100, derandomize=True)
@given(branching=st.sampled_from([1, 2, 4, 8]), depth=st.integers(1, 8))
def test_node_count_layering(branching, depth):
    assert node_count(branching, depth) - node_count(branching, depth - 1) \
        == branching ** depth


class TestModelParams:
    def test_derived_fields(self):
        p = ModelParams(alpha=2.0, gamma=1.5, branching=8, depth=2)
        assert 2 ** (2 * p.alpha_tilde) == 8
        assert p.beta == p.alpha - p.alpha_tilde

    def test_power_of_two_required_by_default(self):
        for branching in (0, 3, 9, -4):
            with pytest.raises(DomainError, match="branching must be a power of two"):
                ModelParams(alpha=1.0, branching=branching, depth=1)

    def test_domain_validation(self):
        for kwargs in ({"alpha": 0.0}, {"alpha": 1.0, "gamma": -1.0},
                       {"alpha": 1.0, "nu": -0.1}, {"alpha": 1.0, "f": -0.1},
                       {"alpha": 1.0, "depth": -1}):
            with pytest.raises(ValueError):
                ModelParams(**kwargs)

    def test_capacity_guard(self):
        with pytest.raises(CapacityExceeded):
            ModelParams(alpha=1.0, branching=2, depth=64)

    @pytest.mark.parametrize("name", ["nu", "f"])
    def test_nan_coefficient_rejected(self, name):
        with pytest.raises(DomainError, match=f"^{name} must be >= 0"):
            ModelParams(alpha=1.0, **{name: math.nan})

    @pytest.mark.parametrize("name", ["alpha", "gamma", "nu", "f"])
    def test_infinite_coefficient_rejected(self, name):
        with pytest.raises(DomainError, match=f"^{name} must be .* finite"):
            ModelParams(**{"alpha": 1.0, name: math.inf})

    def test_coefficients_exact_powers(self):
        p = ModelParams(alpha=1.0, gamma=2.0, branching=2, depth=4)
        for g in range(5):
            assert p.c(g) == 2.0 ** g      # exact for integer exponents
            assert p.d(g) == 4.0 ** g
        p2 = ModelParams(alpha=0.5, gamma=1.0, branching=2, depth=4)
        assert p2.c(2) == 2.0  # alpha*gen integer again
        assert p2.c(4) == 4.0


class TestStates:
    def test_tree_state_immutable(self):
        p = ModelParams(alpha=1.0, branching=2, depth=2)
        s = TreeState(np.arange(7, dtype=float), p)
        with pytest.raises(ValueError):
            s.values[0] = 3.0

    def test_tree_state_length_checked(self):
        p = ModelParams(alpha=1.0, branching=2, depth=2)
        with pytest.raises(DepthMismatch):
            TreeState(np.zeros(6), p)

    def test_lift_state_requires_branching_one(self):
        # one state type serves both models; lifting guards the chain input
        p = ModelParams(alpha=1.0, branching=2, depth=2)
        with pytest.raises(ParameterMismatch):
            lift_state(TreeState.zeros(p), LiftSpec(alpha_tilde=0.5, beta=0.5))

    def test_generation_slice(self):
        p = ModelParams(alpha=1.0, branching=2, depth=2)
        s = TreeState(np.arange(7, dtype=float), p)
        assert list(s.generation_slice(1)) == [1.0, 2.0]
        assert s.is_finite
        s2 = TreeState(np.array([np.nan] + [0.0] * 6), p)
        assert not s2.is_finite
