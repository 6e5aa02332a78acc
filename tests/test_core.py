"""Atom identity, distributions, joint masses, and the gluing construction."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glue_oracle import pivot_slice_glue
from mmot import core
from mmot.core import (
    MASS_TOL,
    MAX_ENTRIES,
    ConditionalMass,
    DiscreteDistribution,
    JointMass,
    braket,
    check_cells,
    check_ell,
    conditional,
    glue,
    marginal,
    same_atoms,
)


def random_joint(rng, shape):
    raw = rng.uniform(0.1, 1.0, size=shape)
    return JointMass(raw / raw.sum())


class TestAtom:
    def test_numeric_equality_is_toleranced(self):
        assert same_atoms([1.0], [1.0 + 1e-13]).tolist() == [[True]]
        assert same_atoms([1.0], [1.0 + 1e-11]).tolist() == [[False]]
        assert same_atoms([[0.0, 2.0]], [[0.0, 2.0 + 1e-13]]).tolist() == [[True]]
        assert same_atoms([[0.0, 2.0]], [[0.0, 2.0 + 1e-11]]).tolist() == [[False]]

    def test_dimension_mismatch_raises(self):
        # a real atom is never a planar one; a (m, 1) against (k, 2)
        # broadcast would compare the one coordinate with both
        with pytest.raises(ValueError, match="dimensions differ"):
            same_atoms([1.0], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="dimensions differ"):
            same_atoms([[1.0, 1.0]], [1.0])


class TestDiscreteDistribution:
    def test_masses_must_sum_to_one(self):
        a = [0.0, 1.0]
        with pytest.raises(ValueError):
            DiscreteDistribution(a, [0.5, 0.4])
        d = DiscreteDistribution(a, [0.5, 0.5 + 0.5 * MASS_TOL])
        assert d.size == 2

    def test_negative_mass_rejected(self):
        a = [0.0, 1.0]
        with pytest.raises(ValueError):
            DiscreteDistribution(a, [1.5, -0.5])

    def test_duplicate_atoms_rejected(self):
        a = [0.0, 0.0 + 1e-14]
        with pytest.raises(ValueError):
            DiscreteDistribution(a, [0.5, 0.5])

    @pytest.mark.parametrize("atoms", [
        [np.nan, np.nan, np.inf],
        [0.0, 1.0, -np.inf],
        [[0.0, 0.0], [1.0, np.nan], [2.0, 0.0]],
    ])
    def test_non_finite_atoms_rejected(self, atoms):
        # refused before any atom comparison, so inf - inf warns nowhere
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="finite"):
                DiscreteDistribution(atoms, [0.3, 0.3, 0.4])


class TestJointMass:
    def test_total_mass_validated(self):
        with pytest.raises(ValueError):
            JointMass(np.full((2, 2), 0.3))
        j = JointMass(np.full((2, 2), 0.25))
        assert j.entries.shape == (2, 2)

    def test_negative_entries_rejected(self):
        bad = np.array([[0.6, 0.5], [-0.05, -0.05]])
        with pytest.raises(ValueError):
            JointMass(bad)


class TestMassRule:
    """One rule for DiscreteDistribution, JointMass and ConditionalMass."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mass_refused_by_each_container(self, bad):
        with pytest.raises(ValueError, match="masses must sum to 1"):
            DiscreteDistribution([[0.0], [1.0]], [bad, 0.5])
        with pytest.raises(ValueError, match="joint mass entries must sum to 1"):
            JointMass(np.array([[bad, 0.25], [0.25, 0.25]]))
        with pytest.raises(ValueError, match="columns must sum to 1 .* for sum 1 over axis 0"):
            ConditionalMass(np.array([[0.5, bad], [0.5, 0.5]]))

    def test_rescale_is_one_division_by_the_sum(self):
        rng = np.random.default_rng(30)
        # off from 1 by less than MASS_TOL, so the rescale moves the entries
        m = rng.uniform(0.1, 1.0, size=7)
        m = m / m.sum() * (1 + 0.5 * MASS_TOL)
        e = rng.uniform(0.0, 1.0, size=(3, 4, 2))
        e = e / e.sum() * (1 - 0.5 * MASS_TOL)
        c = rng.uniform(0.0, 1.0, size=(5, 3))
        c = c / c.sum(axis=0) * (1 + 0.5 * MASS_TOL)
        got = (DiscreteDistribution(np.arange(7.0), m).masses, JointMass(e).entries,
               ConditionalMass(c).entries)
        for have, want in zip(got, (m / m.sum(), e / e.sum(), c / c.sum(axis=0))):
            assert np.array_equal(have, want)
            assert not have.flags.writeable

    def test_empty_joint_refused_by_its_zero_sum(self):
        with pytest.raises(ValueError, match="joint mass entries must sum to 1 .* got 0.0"):
            JointMass(np.zeros((0, 3)))

    def test_negative_conditional_entry_refused(self):
        with pytest.raises(ValueError, match="conditional mass columns must be nonnegative"):
            ConditionalMass(np.array([[1.5, 0.5], [-0.5, 0.5]]))


class TestCheckCells:
    def test_the_cap_is_inclusive(self):
        check_cells(MAX_ENTRIES, "a full array")
        with pytest.raises(ValueError, match=f"a full array needs {MAX_ENTRIES + 1} cells, "
                                             f"over the cap {MAX_ENTRIES}"):
            check_cells(MAX_ENTRIES + 1, "a full array")

    def test_joint_mass_and_glue_read_the_one_cap(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_ENTRIES", 7)
        with pytest.raises(ValueError, match="a joint mass needs 8 cells, over the cap 7"):
            JointMass(np.full((2, 2, 2), 0.125))
        half = ConditionalMass(np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="the glued joint needs 8 cells, over the cap 7"):
            glue(np.array([0.5, 0.5]), {0: half, 1: half}, 2)


class TestBraket:
    def test_closed_form(self):
        A = np.array([1.0, 2.0])
        B = np.array([0.5, 0.5])
        assert braket(A, B, 1) == pytest.approx(1.5, abs=1e-15)
        assert braket(A, B, 2) == pytest.approx(2.5, abs=1e-15)
        assert braket(A, B, 3) == pytest.approx(4.5, abs=1e-15)

    def test_matches_einsum_on_tensors(self):
        rng = np.random.default_rng(3)
        A = rng.uniform(size=(3, 4, 2))
        B = rng.uniform(size=(3, 4, 2))
        B /= B.sum()
        for ell in (1, 2, 3):
            assert braket(A, B, ell) == pytest.approx(float((A**ell * B).sum()), rel=1e-14)

    @pytest.mark.parametrize("ell", [0, -1, 1.5, np.nan, np.inf])
    def test_ell_must_be_a_positive_integer(self, ell):
        with pytest.raises(ValueError, match="ell must be a positive integer"):
            braket(np.ones(2), np.ones(2), ell)

    def test_overflowing_power_is_inf_where_it_has_mass(self):
        # 1e200 ** 2 overflows; under the suite's warnings-as-errors that
        # used to raise, and a zero-mass cell made the bracket NaN
        A = np.array([1e200, 1.0])
        assert braket(A, np.array([0.5, 0.5]), 2) == np.inf
        assert braket(A, np.array([0.0, 1.0]), 2) == 1.0

    @pytest.mark.parametrize("where", ["A", "B"])
    def test_nan_refused(self, where):
        A, B = np.array([1.0, 2.0]), np.array([0.5, 0.5])
        (A if where == "A" else B)[0] = np.nan
        with pytest.raises(ValueError, match="must not hold NaN"):
            braket(A, B, 1)

    def test_integral_float_ell_is_an_int(self):
        assert check_ell(2.0) == 2 and type(check_ell(2.0)) is int


class TestMarginal:
    def test_matches_direct_summation(self):
        rng = np.random.default_rng(11)
        j = random_joint(rng, (3, 4, 2))
        m02 = marginal(j, [0, 2])
        np.testing.assert_allclose(m02.entries, j.entries.sum(axis=1), atol=1e-15)
        m1 = marginal(j, [1])
        np.testing.assert_allclose(m1.entries, j.entries.sum(axis=(0, 2)), atol=1e-15)

    def test_axis_order_is_sorted_original_order(self):
        rng = np.random.default_rng(12)
        j = random_joint(rng, (2, 3, 4))
        # requesting [2, 0] must not transpose: axes keep their original order
        m = marginal(j, [2, 0])
        assert m.entries.shape == (2, 4)

    def test_bad_axes_rejected(self):
        rng = np.random.default_rng(13)
        j = random_joint(rng, (2, 2))
        # repeated axes deduplicate; out-of-range axes are an error
        assert marginal(j, [0, 0]).entries.shape == (2,)
        with pytest.raises(ValueError):
            marginal(j, [5])
        with pytest.raises(ValueError):
            marginal(j, [])


class TestConditional:
    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(21)
        j = random_joint(rng, (3, 4))
        q = conditional(j)
        np.testing.assert_allclose(q.entries.sum(axis=0), np.ones(4), atol=1e-12)
        np.testing.assert_allclose(q.entries * j.entries.sum(axis=0), j.entries, atol=1e-15)

    def test_zero_conditioning_mass_rejected(self):
        e = np.array([[0.5, 0.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="zero"):
            conditional(JointMass(e))


def glue_oracle(q_k, conds, k, shape):
    """Direct loop construction of the glued joint, no vectorization."""
    out = np.zeros(shape)
    for idx in np.ndindex(*shape):
        v = q_k[idx[k]]
        for i, q in conds.items():
            v *= q.entries[idx[i], idx[k]]
        out[idx] = v
    return out


class TestGlue:
    @pytest.mark.parametrize("k,shape", [(0, (3, 2, 4)), (1, (2, 3, 4)), (2, (4, 2, 3)), (1, (2, 3))])
    def test_matches_direct_construction(self, k, shape):
        rng = np.random.default_rng(k + sum(shape))
        m_k = shape[k]
        q_k = rng.uniform(0.1, 1.0, size=m_k)
        q_k /= q_k.sum()
        conds = {}
        for i, m_i in enumerate(shape):
            if i == k:
                continue
            raw = rng.uniform(0.1, 1.0, size=(m_i, m_k))
            conds[i] = ConditionalMass(raw / raw.sum(axis=0))
        j = glue(q_k, conds, k)
        np.testing.assert_allclose(j.entries, glue_oracle(q_k, conds, k, shape), atol=1e-15)

    def test_reproduces_pivot_and_pair_marginals(self):
        rng = np.random.default_rng(9)
        shape, k = (3, 4, 2, 3), 2
        q_k = rng.uniform(0.1, 1.0, size=shape[k])
        q_k /= q_k.sum()
        conds = {}
        for i, m_i in enumerate(shape):
            if i == k:
                continue
            raw = rng.uniform(0.1, 1.0, size=(m_i, shape[k]))
            conds[i] = ConditionalMass(raw / raw.sum(axis=0))
        j = glue(q_k, conds, k)
        np.testing.assert_allclose(marginal(j, [k]).entries, q_k, atol=1e-12)
        for i in range(len(shape)):
            if i == k:
                continue
            pair = marginal(j, [i, k]).entries
            want = conds[i].entries * q_k if i < k else (conds[i].entries * q_k).T
            np.testing.assert_allclose(pair, want, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_pivot_slice_loop(self, n):
        # the broadcast product and its contiguous copy give the loop's joint bit for bit
        rng = np.random.default_rng(300 + n)
        for k in range(n):
            for _ in range(50):
                shape = [int(rng.integers(1, 6)) for _ in range(n)]
                q_k = rng.random(shape[k]) + 0.01
                q_k /= q_k.sum()
                conds = {}
                for i in range(n):
                    if i != k:
                        raw = rng.random((shape[i], shape[k])) + 0.01
                        conds[i] = ConditionalMass(raw / raw.sum(axis=0))
                got, want = glue(q_k, conds, k).entries, pivot_slice_glue(q_k, conds, k).entries
                assert got.shape == want.shape == tuple(shape)
                assert (got == want).all()

    def test_pivot_overlap_rejected(self):
        q = ConditionalMass(np.ones((2, 2)) / 2)
        with pytest.raises(ValueError, match="pivot"):
            glue(np.array([0.5, 0.5]), {0: q, 1: q}, 1)

    def test_axes_must_be_contiguous(self):
        q = ConditionalMass(np.ones((2, 2)) / 2)
        with pytest.raises(ValueError, match="contiguous"):
            glue(np.array([0.5, 0.5]), {3: q}, 0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(2, 4),
    st.integers(2, 4),
    st.integers(0, 2),
    st.integers(0, 2**32 - 1),
)
def test_glue_marginal_property(m0, m1, m2, k, seed):
    rng = np.random.default_rng(seed)
    shape = (m0, m1, m2)
    q_k = rng.uniform(0.1, 1.0, size=shape[k])
    q_k /= q_k.sum()
    conds = {}
    for i, m_i in enumerate(shape):
        if i == k:
            continue
        raw = rng.uniform(0.1, 1.0, size=(m_i, shape[k]))
        conds[i] = ConditionalMass(raw / raw.sum(axis=0))
    j = glue(q_k, conds, k)
    assert j.entries.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(marginal(j, [k]).entries, q_k, atol=1e-12)
    # non-pivot axes are conditionally independent given the pivot
    for t in range(shape[k]):
        sl = np.take(j.entries, t, axis=k)
        if q_k[t] > 0:
            rank = np.linalg.matrix_rank(sl.reshape(sl.shape[0], -1), tol=1e-10)
            assert rank == 1
