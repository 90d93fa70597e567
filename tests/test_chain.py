"""Chaining operators against brute-force enumeration."""

import itertools

import numpy as np
import pytest

from oracles import binom_pmf

from bftprob import (
    DomainError,
    JointDistribution,
    NormalizationError,
    Pmf,
    convolve,
    crash_step,
    joint_via_kernel,
    pmf_binomial,
    total_probability,
    total_probability_joint,
)
from bftprob.chain import thinning_matrix


class TestCrashStep:
    def test_identity_when_no_crashes(self):
        prior = Pmf.point(3, 5)
        assert crash_step(prior, 0.0).mass.tolist() == prior.mass.tolist()

    def test_all_crash(self):
        out = crash_step(Pmf.point(3, 5), 1.0)
        assert out.prob(0) == 1.0
        assert out.support_max == 5

    def test_point_mass_becomes_binomial(self):
        out = crash_step(Pmf.point(4, 4), 0.1)
        assert out.prob(4) == pytest.approx(0.6561, abs=1e-12)
        for k in range(5):
            assert out.prob(k) == pytest.approx(binom_pmf(4, 0.9, k), rel=1e-12)

    def test_mixture_matches_direct_sum(self):
        prior = pmf_binomial(6, 0.4)
        out = crash_step(prior, 0.23)
        for j in range(7):
            direct = sum(prior.prob(c) * binom_pmf(c, 0.77, j) for c in range(j, 7))
            assert out.prob(j) == pytest.approx(direct, rel=1e-11, abs=1e-15)

    def test_support_unchanged(self):
        assert crash_step(pmf_binomial(9, 0.5), 0.3).support_max == 9

    def test_invalid_rate(self):
        with pytest.raises(DomainError):
            crash_step(Pmf.point(1, 1), 1.5)

    def test_thinning_matrix_shared_read_only(self):
        mat = thinning_matrix(6, 0.2)
        assert thinning_matrix(6, 0.2) is mat
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-14)
        assert np.all(np.triu(mat, 1) == 0.0)
        with pytest.raises(ValueError):
            mat[0, 0] = 0.5
        assert thinning_matrix.cache_info().maxsize is not None

    def test_stochastic_monotonicity(self):
        # Raising the crash rate never raises any survival tail.
        prior = pmf_binomial(10, 0.7)
        rates = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        outs = [crash_step(prior, r) for r in rates]
        for t in range(11):
            tails = [o.tail(t) for o in outs]
            assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))


class TestTotalProbability:
    def test_identity_kernel(self):
        prior = pmf_binomial(4, 0.3)
        out = total_probability(lambda y: Pmf.point(y, 4), prior)
        assert np.allclose(out.mass, prior.mass, atol=1e-15)

    def test_constant_kernel(self):
        fixed = pmf_binomial(3, 0.25)
        out = total_probability(lambda y: fixed, pmf_binomial(5, 0.8))
        assert np.allclose(out.mass, fixed.mass, atol=1e-15)

    def test_crash_kernel_equals_crash_step(self):
        prior = Pmf.point(4, 4)
        out = total_probability(lambda y: crash_step(Pmf.point(y, 4), 0.1), prior)
        assert np.allclose(out.mass, crash_step(prior, 0.1).mass, atol=1e-15)

    def test_zero_mass_values_skipped(self):
        prior = Pmf.point(2, 3)

        def kernel(y):
            if y != 2:
                raise AssertionError("kernel evaluated on zero-mass value")
            return Pmf.point(1, 3)

        assert total_probability(kernel, prior).prob(1) == 1.0

    def test_inconsistent_support_rejected(self):
        prior = Pmf(np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            total_probability(lambda y: Pmf.point(0, 1 + y), prior)


class TestJointViaKernel:
    def test_deterministic_kernel(self):
        joint = joint_via_kernel(Pmf.point(2, 2), lambda y: Pmf.point(y, 2))
        assert joint.probs[2, 2] == 1.0

    def test_uniform_prior_identity_kernel(self):
        prior = Pmf(np.array([0.5, 0.5]))
        joint = joint_via_kernel(prior, lambda y: Pmf.point(y, 1))
        assert joint.probs[0, 0] == 0.5
        assert joint.probs[1, 1] == 0.5
        assert joint.probs[0, 1] == 0.0

    def test_two_coin_enumeration(self):
        # Two fair arrival coins, then one fair survival coin per arrival.
        prior = pmf_binomial(2, 0.5)
        joint = joint_via_kernel(prior, lambda y: crash_step(Pmf.point(y, 2), 0.5))
        expected = np.zeros((3, 3))
        for arrivals in itertools.product((0, 1), repeat=2):
            for survivals in itertools.product((0, 1), repeat=2):
                y = sum(arrivals)
                z = sum(a & s for a, s in zip(arrivals, survivals))
                expected[y, z] += (0.5**2) * (0.5**2)
        assert np.allclose(joint.probs, expected, atol=1e-12)

    def test_marginals(self):
        prior = pmf_binomial(3, 0.6)
        joint = joint_via_kernel(prior, lambda y: crash_step(Pmf.point(y, 3), 0.2))
        assert np.allclose(joint.probs.sum(axis=1), prior.mass, atol=1e-12)
        mixed = total_probability(lambda y: crash_step(Pmf.point(y, 3), 0.2), prior)
        assert np.allclose(joint.probs.sum(axis=0), mixed.mass, atol=1e-12)


class TestTotalProbabilityJoint:
    def test_sum_kernel_on_point_joint(self):
        probs = np.zeros((2, 3))
        probs[1, 2] = 1.0
        joint = JointDistribution(probs)
        out = total_probability_joint(lambda y, z: Pmf.point(y + z, 4), joint)
        assert out.prob(3) == 1.0

    def test_constant_kernel(self):
        fixed = pmf_binomial(2, 0.3)
        probs = np.full((2, 2), 0.25)
        out = total_probability_joint(lambda y, z: fixed, JointDistribution(probs))
        assert np.allclose(out.mass, fixed.mass, atol=1e-15)

    def test_split_pool_kernel_matches_enumeration(self):
        # Kernel in the two-pool style: z members succeed w.p. 0.7 each,
        # the remaining y+1-z members w.p. 0.2 each; count the successes.
        p_member, p_skip = 0.7, 0.2
        weights = {(1, 1): 0.1, (1, 2): 0.4, (2, 1): 0.3, (2, 2): 0.2}
        probs = np.zeros((3, 3))
        for (y, z), w in weights.items():
            probs[y, z] = w
        joint = JointDistribution(probs)

        def kernel(y, z):
            mass = convolve(pmf_binomial(z, p_member), pmf_binomial(y + 1 - z, p_skip)).mass
            return Pmf(np.pad(mass, (0, 5 - len(mass))))

        out = total_probability_joint(kernel, joint)

        expected = np.zeros(5)
        for (y, z), w in weights.items():
            members, skippers = z, y + 1 - z
            for bits in itertools.product((0, 1), repeat=members + skippers):
                prob = w
                for i, bit in enumerate(bits):
                    p = p_member if i < members else p_skip
                    prob *= p if bit else (1.0 - p)
                expected[sum(bits)] += prob
        assert np.allclose(out.mass, expected, atol=1e-12)


class TestConvolutions:
    def test_convolve_point_masses(self):
        out = convolve(Pmf.point(2, 3), Pmf.point(1, 2))
        assert out.prob(3) == 1.0
        assert out.support_max == 5

    def test_binomials_add(self):
        out = convolve(pmf_binomial(3, 0.4), pmf_binomial(5, 0.4))
        assert np.allclose(out.mass, pmf_binomial(8, 0.4).mass, atol=1e-12)


class TestMassConservation:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_chains_stay_normalized(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.random(8)
        prior = Pmf(raw / raw.sum())
        out = prior
        for rate in rng.random(4) * 0.9:
            out = crash_step(out, float(rate))
            assert float(out.mass.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_joint_requires_unit_mass(self):
        with pytest.raises(NormalizationError):
            JointDistribution(np.full((2, 2), 0.3))

    def test_joint_rejects_bad_entries(self):
        with pytest.raises(DomainError):
            JointDistribution(np.array([[1.5, -0.5], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_joint_rejects_non_finite_entry(self, bad):
        with pytest.raises(DomainError):
            JointDistribution(np.array([[bad, 1.0], [0.0, 0.0]]))
        with pytest.raises(DomainError):
            JointDistribution(np.array([[0.5, 0.0], [bad, 0.5]]))
