"""Pointwise Hermitian algebra against the brute-force exterior oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torma import hermitian as ha
from torma.errors import ValidationError

from .conftest import random_complex, random_hermitian, random_positive
from . import oracle_forms as of


def oracle_star_power(g, a):
    """(1/(n-1)!) star(a^{n-1}) by full wedge expansion."""
    n = g.shape[0]
    psi = (1.0 / math.factorial(n - 1)) * of.wedge_power(of.one_one(a), n - 1)
    return of.star_nm1(g, psi)


# ---------------------------------------------------------------------------
# oracle self-checks against paper-pinned conventions


class TestOracleConventions:
    def test_eigenvalue_law_identity_reference(self, rng):
        # with g = I and a = diag(lambda), star(a^{n-1})/(n-1)! has eigenvalues
        # prod_{j != i} lambda_j
        for n in (2, 3, 4):
            lam = rng.uniform(0.5, 2.0, n)
            s = oracle_star_power(np.eye(n, dtype=complex), np.diag(lam).astype(complex))
            want = np.diag([np.prod(lam) / lam[i] for i in range(n)])
            np.testing.assert_allclose(s, want, atol=1e-12)

    def test_star_wedge_identity(self, rng):
        # star(alpha ^ omega^{n-2}) = (n-2)! ((tr_omega alpha) omega - alpha)
        for n in (3, 4):
            g = random_positive(rng, n)
            alpha = random_hermitian(rng, n)
            psi = of.one_one(alpha).wedge(of.wedge_power(of.one_one(g), n - 2))
            lhs = of.star_nm1(g, psi)
            tr = np.trace(np.linalg.inv(g) @ alpha)
            want = math.factorial(n - 2) * (tr * g - alpha)
            np.testing.assert_allclose(lhs, want, atol=1e-11)

    def test_trace_pairing_with_omega(self, rng):
        # Psi ^ omega = tr_omega(star Psi) dV for random (n-1,n-1) forms
        for n in (2, 3, 4):
            g = random_positive(rng, n)
            a = random_positive(rng, n)
            psi = of.wedge_power(of.one_one(a), n - 1)
            lhs = of.top_ratio(psi.wedge(of.one_one(g)), g)
            s = of.star_nm1(g, psi)
            np.testing.assert_allclose(lhs, np.trace(np.linalg.inv(g) @ s), atol=1e-10)


# ---------------------------------------------------------------------------
# star_power / nm1_root


class TestStarPower:
    def test_identity(self):
        eye = np.eye(3, dtype=complex)
        np.testing.assert_allclose(ha.star_power(eye, eye), eye, atol=1e-14)

    def test_diag_example(self):
        eye = np.eye(3, dtype=complex)
        got = ha.star_power(eye, np.diag([1.0, 2.0, 3.0]).astype(complex))
        np.testing.assert_allclose(got, np.diag([6.0, 3.0, 2.0]), atol=1e-13)

    def test_n2_swaps_eigenvalues(self):
        eye = np.eye(2, dtype=complex)
        got = ha.star_power(eye, np.diag([0.7, 2.5]).astype(complex))
        np.testing.assert_allclose(got, np.diag([2.5, 0.7]), atol=1e-13)

    def test_determinant_convention(self, rng):
        for n in (2, 3, 4):
            a = random_positive(rng, n)
            s = ha.star_power(np.eye(n, dtype=complex), a)
            np.testing.assert_allclose(
                np.linalg.det(s).real, np.linalg.det(a).real ** (n - 1), rtol=1e-12
            )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_oracle_general_reference(self, rng, n):
        for _ in range(5):
            g = random_positive(rng, n)
            a = random_positive(rng, n)
            np.testing.assert_allclose(
                ha.star_power(g, a), oracle_star_power(g, a), atol=1e-10
            )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_roundtrip_hundred_random(self, rng, n):
        g = random_positive(rng, n, shape=(100,))
        a = random_positive(rng, n, shape=(100,))
        back = ha.nm1_root(g, ha.star_power(g, a))
        rel = np.abs(back - a) / np.max(np.abs(a))
        assert rel.max() < 1e-12

    def test_rejects_nonpositive(self):
        eye = np.eye(3, dtype=complex)
        bad = np.diag([1.0, -1.0, 1.0]).astype(complex)
        with pytest.raises(ValidationError):
            ha.star_power(eye, bad)
        with pytest.raises(ValidationError):
            ha.nm1_root(eye, bad)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            ha.star_power(np.eye(3, dtype=complex), np.eye(2, dtype=complex))


class TestNm1Root:
    def test_inverse_of_diag_example(self):
        eye = np.eye(3, dtype=complex)
        got = ha.nm1_root(eye, np.diag([6.0, 3.0, 2.0]).astype(complex))
        np.testing.assert_allclose(got, np.diag([1.0, 2.0, 3.0]), atol=1e-12)

    def test_identity(self):
        eye = np.eye(4, dtype=complex)
        np.testing.assert_allclose(ha.nm1_root(eye, eye), eye, atol=1e-13)

    @given(seed=st.integers(min_value=0, max_value=10_000), n=st.sampled_from([2, 3, 4]))
    @settings(max_examples=40, deadline=None)
    def test_bijection_property(self, seed, n):
        r = np.random.default_rng(seed)
        g = random_positive(r, n)
        a = random_positive(r, n)
        back = ha.nm1_root(g, ha.star_power(g, a))
        assert np.max(np.abs(back - a)) / np.max(np.abs(a)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_eigen_route(self, rng, n):
        # the relative-Cholesky root against the per-node eigendecomposition,
        # on stacks drawn as criterion 01 draws them: positive duals s and
        # star_power duals of positive metrics
        for _ in range(5):
            g = random_positive(rng, n, shape=(100,), spread=0.6)
            a = random_positive(rng, n, shape=(100,), spread=0.6)
            for s in (random_positive(rng, n, shape=(100,), spread=0.6), ha.star_power(g, a)):
                want = of.nm1_root_eigh(g, s)
                assert np.max(np.abs(ha.nm1_root(g, s) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_star_power_of_root(self, rng, n):
        g = random_positive(rng, n, shape=(100,), spread=0.6)
        s = random_positive(rng, n, shape=(100,), spread=0.6)
        back = ha.star_power(g, ha.nm1_root(g, s))
        assert np.max(np.abs(back - s)) <= 1e-12 * np.max(np.abs(s))

    def test_root_is_hermitian_and_rejects_non_finite(self, rng):
        g = random_positive(rng, 3, shape=(10,))
        root = ha.nm1_root(g, random_positive(rng, 3, shape=(10,)))
        np.testing.assert_array_equal(root, np.conj(np.swapaxes(root, -1, -2)))
        s = random_positive(rng, 3, shape=(10,))
        s[4, 2, 1] = np.nan
        with pytest.raises(ValidationError, match="form dual has non-finite"):
            ha.nm1_root(g, s)


# ---------------------------------------------------------------------------
# star_wedge and the S/B contraction family


class TestStarWedge:
    def test_alpha_equals_omega(self, rng):
        for n in (3, 4):
            g = random_positive(rng, n)
            np.testing.assert_allclose(ha.star_wedge(g, g), (n - 1) * g, atol=1e-12)

    def test_diag_example(self):
        eye = np.eye(3, dtype=complex)
        alpha = np.diag([1.0, 2.0, 5.0]).astype(complex)
        np.testing.assert_allclose(
            ha.star_wedge(eye, alpha), np.diag([7.0, 6.0, 3.0]), atol=1e-13
        )

    def test_zero(self, rng):
        g = random_positive(rng, 3)
        np.testing.assert_allclose(ha.star_wedge(g, np.zeros((3, 3))), 0.0, atol=0)

    def test_rejects_n2(self):
        with pytest.raises(ValidationError):
            ha.star_wedge(np.eye(2, dtype=complex), np.eye(2, dtype=complex))

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_oracle(self, rng, n):
        for _ in range(5):
            g = random_positive(rng, n)
            alpha = random_hermitian(rng, n)
            psi = of.one_one(alpha).wedge(of.wedge_power(of.one_one(g), n - 2))
            want = of.star_nm1(g, psi) / math.factorial(n - 2)
            np.testing.assert_allclose(ha.star_wedge(g, alpha), want, atol=1e-11)


class TestContractionFamily:
    """S2/S3/S4 scalars and B2/B3 duals against full wedge expansion."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_s2(self, rng, n):
        g = random_positive(rng, n)
        a, b = random_complex(rng, n, n), random_complex(rng, n, n)
        top = of.one_one(a).wedge(of.one_one(b)).wedge(of.wedge_power(of.one_one(g), n - 2))
        want = of.top_ratio(top, g) / math.factorial(n - 2)
        np.testing.assert_allclose(ha.s2(g, a, b), want, atol=1e-11)

    @pytest.mark.parametrize("n", [3, 4])
    def test_s3(self, rng, n):
        g = random_positive(rng, n)
        a, b, c = (random_complex(rng, n, n) for _ in range(3))
        top = of.one_one(a).wedge(of.one_one(b)).wedge(of.one_one(c))
        if n > 3:
            top = top.wedge(of.wedge_power(of.one_one(g), n - 3))
        want = of.top_ratio(top, g) / math.factorial(n - 3)
        np.testing.assert_allclose(of.s3(g, a, b, c), want, atol=1e-10)

    def test_s4(self, rng):
        n = 4
        g = random_positive(rng, n)
        a, b, c, d = (random_complex(rng, n, n) for _ in range(4))
        top = of.one_one(a).wedge(of.one_one(b)).wedge(of.one_one(c)).wedge(of.one_one(d))
        want = of.top_ratio(top, g)
        np.testing.assert_allclose(of.s4(g, a, b, c, d), want, atol=1e-9)

    @pytest.mark.parametrize("n", [3, 4])
    def test_b2(self, rng, n):
        g = random_positive(rng, n)
        a, b = random_complex(rng, n, n), random_complex(rng, n, n)
        psi = of.one_one(a).wedge(of.one_one(b))
        if n > 3:
            psi = psi.wedge(of.wedge_power(of.one_one(g), n - 3))
        want = of.star_nm1(g, psi) / math.factorial(n - 3)
        np.testing.assert_allclose(ha.b2(g, a, b), want, atol=1e-10)

    def test_b3(self, rng):
        n = 4
        g = random_positive(rng, n)
        a, b, c = (random_complex(rng, n, n) for _ in range(3))
        psi = of.one_one(a).wedge(of.one_one(b)).wedge(of.one_one(c))
        want = of.star_nm1(g, psi)
        np.testing.assert_allclose(of.b3(g, a, b, c), want, atol=1e-9)

    @given(seed=st.integers(min_value=0, max_value=10_000), n=st.sampled_from([2, 3, 4]))
    @settings(max_examples=40, deadline=None)
    def test_pairing_property(self, seed, n):
        # the duals are characterized by tr(g^-1 B_k(..) g^-1 c) = S_{k+1}(.., c)
        r = np.random.default_rng(seed)
        g = random_positive(r, n)
        gi = np.linalg.inv(g)
        a, b, c = (random_complex(r, n, n) for _ in range(3))
        pair = lambda s, x: np.trace(gi @ s @ gi @ x)
        assert abs(pair(ha.b1(g, a), c) - ha.s2(g, a, c)) < 1e-10
        assert abs(pair(ha.b2(g, a, b), c) - of.s3(g, a, b, c)) < 1e-9
        if n >= 2:
            d = random_complex(r, n, n)
            assert abs(pair(of.b3(g, a, b, c), d) - of.s4(g, a, b, c, d)) < 1e-8

    @pytest.mark.parametrize("n", [3, 4])
    def test_inverse_star_sigma(self, rng, n):
        # sigma-rep reproduces the original dual under the star machinery
        g = random_positive(rng, n)
        s = random_hermitian(rng, n)
        sigma = of.inverse_star_sigma(g, s)
        psi = of.one_one(sigma).wedge(of.wedge_power(of.one_one(g), n - 2))
        got = of.star_nm1(g, psi) / math.factorial(n - 2)
        np.testing.assert_allclose(got, s, atol=1e-10)


# ---------------------------------------------------------------------------
# positivity: screened eigenvalue margin, Cholesky test and log det


@st.composite
def hermitian_fields(draw, indefinite=True, nan_node=True):
    """A stack of random Hermitian n x n nodes, n = 2, 3, 4, with optional
    indefinite nodes, nodes whose diagonals agree to ~1e-11 (Gershgorin
    bounds within the screen's slack of each other) and a NaN entry."""
    n = draw(st.sampled_from([2, 3, 4]))
    nodes = draw(st.integers(min_value=1, max_value=48))
    r = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    a = random_positive(r, n, shape=(nodes,), spread=draw(st.sampled_from([0.05, 0.3, 1.0])))
    if draw(st.booleans()):
        near = r.random(nodes) < 0.5
        diag = 1.0 + 3e-11 * r.integers(-3, 4, size=(near.sum(), n))
        a[near] = (diag[..., None] * np.eye(n)
                   + random_hermitian(r, n, scale=1e-13, shape=(near.sum(),)))
    if indefinite and draw(st.booleans()):
        low = r.random(nodes) < 0.3
        a[low] -= r.uniform(0.0, 4.0, size=(low.sum(), 1, 1)) * np.eye(n)
    if nan_node and draw(st.booleans()):
        i, j = sorted(r.integers(0, n, size=2))[::-1]  # diagonal or lower triangle
        a[r.integers(0, nodes), i, j] = np.nan
    return a * 10.0 ** draw(st.integers(min_value=-6, max_value=6))


def margin_outcome(fn, a):
    """fn(a), or the LinAlgError eigvalsh raises on some non-finite nodes."""
    try:
        return fn(a)
    except np.linalg.LinAlgError as exc:
        return str(exc)


class TestPositivity:
    @given(a=hermitian_fields())
    @settings(max_examples=300, deadline=None)
    def test_screened_margin_equals_full_eigvalsh(self, a):
        np.testing.assert_array_equal(
            margin_outcome(ha.min_eigenvalue, a), margin_outcome(of.min_eigenvalue_full, a)
        )

    @given(a=hermitian_fields(nan_node=False))
    @settings(max_examples=200, deadline=None)
    def test_screened_margin_ignores_upper_triangle(self, a):
        # eigvalsh reads the lower triangle; so does the screen
        n = a.shape[-1]
        b = a + np.triu(np.full((n, n), 7.0 - 3.0j), 1)
        assert ha.min_eigenvalue(b) == of.min_eigenvalue_full(b)

    def test_screened_margin_keeps_shape_and_non_finite_nodes(self, rng):
        a = random_positive(rng, 3, shape=(4, 5, 6))
        assert ha.min_eigenvalue(a) == of.min_eigenvalue_full(a)
        assert ha.min_eigenvalue(a[0, 0, 0]) == of.min_eigenvalue_full(a[0, 0, 0])
        a[1, 2, 3, 2, 0] = np.inf
        np.testing.assert_array_equal(
            margin_outcome(ha.min_eigenvalue, a), margin_outcome(of.min_eigenvalue_full, a)
        )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_screened_margin_reads_entrywise_fields(self, rng, n):
        # the (*nodes, n, n) view of an entrywise (n, n, *nodes) buffer, as
        # tilde_metric and inverse return, is read in place; some nodes are
        # indefinite, so eigvalsh runs beyond the candidates
        a = random_hermitian(rng, n, shape=(6, 7)) + 2.5 * np.eye(n)
        buf = np.ascontiguousarray(np.moveaxis(a, (-2, -1), (0, 1)))
        view = np.moveaxis(buf, (0, 1), (-2, -1))
        assert not view.flags.c_contiguous
        assert of.min_eigenvalue_full(a) < 0.0 < np.max(np.linalg.eigvalsh(a)[..., 0])
        assert ha.min_eigenvalue(view) == of.min_eigenvalue_full(a)
        # one node, with and without a node axis
        assert ha.min_eigenvalue(view[2:3, 4]) == of.min_eigenvalue_full(a[2:3, 4])
        assert ha.min_eigenvalue(view[2, 4]) == of.min_eigenvalue_full(a[2, 4])
        buf[n - 1, 0, 3, 5] = np.nan
        np.testing.assert_array_equal(
            margin_outcome(ha.min_eigenvalue, view), margin_outcome(of.min_eigenvalue_full, view)
        )

    @given(a=hermitian_fields())
    @settings(max_examples=300, deadline=None)
    def test_cholesky_test_agrees_with_eigenvalues(self, a):
        if not np.all(np.isfinite(a)):
            assert ha.cholesky(a) is None
            with pytest.raises(ValidationError, match="non-finite"):
                ha.require_positive(a)
            return
        lam = of.min_eigenvalue_full(a)
        scale = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        assume(abs(lam) > 1e-12 * scale)
        if lam > 0.0:
            # a Cholesky factor to roundoff: lower triangular with a positive
            # real diagonal, and L L^* = a + E on the triangle read with
            # |E| <= gamma_{n+1} |L||L^*| <= 4 n eps max|a| (Higham, Thm 10.3)
            factor = ha.require_positive(a)
            n = a.shape[-1]
            diag = np.diagonal(factor, axis1=-2, axis2=-1)
            assert np.all(np.triu(factor, 1) == 0)
            assert np.all(diag.real > 0.0) and np.all(diag.imag == 0.0)
            error = np.tril(factor @ np.conj(np.swapaxes(factor, -1, -2)) - a)
            bound = 4 * n * np.finfo(np.float64).eps * np.max(np.abs(a), axis=(-2, -1))
            assert np.all(np.abs(error) <= bound[..., None, None])
        else:
            assert ha.cholesky(a) is None
            with pytest.raises(ValidationError, match="not positive definite"):
                ha.require_positive(a)

    @given(a=hermitian_fields(indefinite=False, nan_node=False))
    @settings(max_examples=300, deadline=None)
    def test_cholesky_log_det_matches_det(self, a):
        want = np.log(np.linalg.det(a).real)
        got = ha.log_det(ha.cholesky(a))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


# ---------------------------------------------------------------------------
# the entrywise factor kernel: inverse from the factor, failures, exact margin


@st.composite
def adversarial_fields(draw):
    """hermitian_fields plus the cases that stress the margin screen: exact
    and permuted copies of the node with the smallest eigenvalue (tied minima
    whose eigvalsh values may differ in the last bits), nodes whose minimum
    hides behind a large diagonal, and an infinite entry."""
    a = draw(hermitian_fields())
    n = a.shape[-1]
    r = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    finite = np.all(np.isfinite(a), axis=(-2, -1))
    if draw(st.booleans()) and finite.any():
        lam = np.where(finite, np.min(np.linalg.eigvalsh(np.where(
            finite[:, None, None], a, 0.0)), axis=-1), np.inf)
        low = a[np.argmin(lam)]
        for k in r.integers(0, len(a), size=r.integers(1, 4)):
            perm = r.permutation(n)
            a[k] = low[np.ix_(perm, perm)] if r.random() < 0.5 else low
    if draw(st.booleans()):
        # diagonal d + c, off-diagonal coupling c: eigenvalues d and d + n c
        k = r.integers(0, len(a))
        c = np.max(np.abs(a), where=np.isfinite(a), initial=1.0) * r.uniform(1.0, 10.0)
        a[k] = (np.full((n, n), -c / n) + (c + r.uniform(0.0, 1e-3 * c)) * np.eye(n))
    if draw(st.booleans()):
        i, j = sorted(r.integers(0, n, size=2))[::-1]
        a[r.integers(0, len(a)), i, j] = draw(st.sampled_from([np.inf, -np.inf]))
    return a


def positive_fields():
    return hermitian_fields(indefinite=False, nan_node=False)


class TestFactorKernel:
    @given(a=positive_fields())
    @settings(max_examples=200, deadline=None)
    def test_inverse_from_factor_matches_inv(self, a):
        got = ha.inverse(ha.cholesky(a))
        assert got.shape == a.shape
        np.testing.assert_array_equal(got, np.conj(np.swapaxes(got, -1, -2)))
        # forward error of an inverse: a few n eps times cond(a) |a^{-1}|
        lam = np.linalg.eigvalsh(a)
        cond = lam[..., -1] / lam[..., 0]
        want = np.linalg.inv(a)
        bound = 16 * a.shape[-1] * np.finfo(np.float64).eps * cond / lam[..., 0]
        assert np.all(np.max(np.abs(got - want), axis=(-2, -1)) <= bound)

    @given(a=positive_fields(), bad=st.sampled_from(["nan", "inf", "-inf", "indefinite"]),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_cholesky_none_for_bad_node(self, a, bad, seed):
        r = np.random.default_rng(seed)
        n = a.shape[-1]
        k = r.integers(0, len(a))
        if bad == "indefinite":
            a[k] -= 1.5 * np.max(np.linalg.eigvalsh(a[k])) * np.eye(n)
        else:
            i, j = sorted(r.integers(0, n, size=2))[::-1]  # read: the lower triangle
            a[k, i, j] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[bad]
        assert ha.cholesky(a) is None
        assert ha.positive_log_det(a) is None
        with pytest.raises(ValidationError):
            ha.require_positive(a)

    @given(a=adversarial_fields())
    @settings(max_examples=300, deadline=None)
    def test_min_eigenvalue_exact_on_adversarial_fields(self, a):
        np.testing.assert_array_equal(
            margin_outcome(ha.min_eigenvalue, a), margin_outcome(of.min_eigenvalue_full, a)
        )

    def test_min_eigenvalue_tied_minima(self, rng):
        # many nodes share the minimum, most of them far from the smallest
        # diagonal that the candidates come from
        for n in (2, 3, 4):
            a = random_positive(rng, n, shape=(200,))
            low = np.diag(np.linspace(0.01, 1.0, n)).astype(complex)
            unitary = np.linalg.qr(random_complex(rng, n, n))[0]
            a[::3] = unitary @ low @ np.conj(unitary.T)
            a[1::3] += 5.0 * np.eye(n)
            assert ha.min_eigenvalue(a) == of.min_eigenvalue_full(a)

    def test_relative_eigenvalues_rejects_non_positive_metric(self):
        eye = np.eye(3, dtype=complex)
        bad = np.diag([1.0, -1.0, 1.0]).astype(complex)
        with pytest.raises(ValidationError, match="not positive definite"):
            ha.relative_eigenvalues(bad, eye)
        np.testing.assert_allclose(
            ha.relative_eigenvalues(np.diag([1.0, 2.0, 4.0]).astype(complex), eye),
            [0.25, 0.5, 1.0], rtol=1e-15)
