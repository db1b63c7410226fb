import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import embed_before
from xxz_metrology.model import (ChainParams, embed, eta_from_delta,
                                 hamiltonian_xxz, hs_norm, lindblad_jump_ops,
                                 magnetization_z, pauli)


def test_pauli_z_convention():
    assert np.array_equal(pauli("z"), np.diag([1, -1]))


def test_pauli_ladder_algebra():
    sp, sm = pauli("+"), pauli("-")
    assert np.allclose(sp @ sm + sm @ sp, np.eye(2))
    assert np.allclose(sp, (pauli("x") + 1j * pauli("y")) / 2)


def test_pauli_x_involution():
    assert np.allclose(pauli("x") @ pauli("x"), np.eye(2))


def test_pauli_unknown_axis():
    with pytest.raises(ValueError):
        pauli("w")


def test_embed_kronecker_positions():
    assert np.array_equal(embed(2, 1, pauli("z")), np.diag([1, 1, -1, -1]))
    assert np.array_equal(embed(2, 2, pauli("z")), np.diag([1, -1, 1, -1]))


def test_embed_traceless_factor():
    assert abs(np.trace(embed(3, 2, pauli("x")))) == 0


def test_embed_site_range():
    with pytest.raises(ValueError):
        embed(3, 0, pauli("x"))
    with pytest.raises(ValueError):
        embed(3, 4, pauli("x"))
    with pytest.raises(ValueError):
        embed(3, 3, np.kron(pauli("x"), pauli("x")))
    # malformed operators: not square, not a power of two, or spanning no site
    for op in (np.eye(3), np.ones((2, 4)), np.eye(1), np.ones(4), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="2\\*\\*k"):
            embed(3, 1, op)


def test_embed_two_site_operator_is_product_of_single_sites():
    xz = np.kron(pauli("x"), pauli("z"))
    assert np.array_equal(embed(4, 2, xz), embed(4, 2, pauli("x")) @ embed(4, 3, pauli("z")))


_BONDS = [np.array([[1, -2, 0, 0.5j], [-1j, 0, -3, 0], [0, 2 - 1j, -0.0, 1],
                    [-1 - 1j, 0, 0, -4]]),
          np.kron(pauli("y"), -pauli("z")),
          sum(np.kron(pauli(ax), pauli(ax)) for ax in "xy") - 0.3 * np.kron(pauli("z"), pauli("z"))]


@pytest.mark.parametrize("n", range(2, 8))
def test_embed_is_the_two_kron_embedding_bit_for_bit(n):
    # zero signs included: kron(eye, kron(op, eye)) multiplies in the other
    # order and gives -0 where this gives +0 on -sigma^z
    for op in [pauli(ax) for ax in "xyz+-"] + [-pauli("z")] + _BONDS:
        span = op.shape[0].bit_length() - 1
        for site in range(1, n - span + 2):
            assert embed(n, site, op).tobytes() == embed_before(n, site, op).tobytes()


def test_embed_rejects_oversized_chain():
    with pytest.raises(ValueError, match="capped"):
        embed(13, 1, pauli("x"))


@given(st.integers(min_value=2, max_value=5), st.data())
def test_embed_preserves_hs_norm_up_to_dimension(n, data):
    site = data.draw(st.integers(min_value=1, max_value=n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.isclose(hs_norm(embed(n, site, op)),
                      hs_norm(op) * np.sqrt(2 ** (n - 1)))


def test_hamiltonian_two_site_xxx_spectrum():
    H = hamiltonian_xxz(ChainParams(n=2, delta=1.0))
    eigs = np.sort(np.linalg.eigvalsh(H))
    assert np.allclose(eigs, [-3, 1, 1, 1])


def test_hamiltonian_two_site_xx_spectrum():
    H = hamiltonian_xxz(ChainParams(n=2, delta=0.0))
    eigs = np.sort(np.linalg.eigvalsh(H))
    assert np.allclose(eigs, [-2, 0, 0, 2])


def hamiltonian_by_embeds(params):
    """sum_j (sx sx + sy sy + Delta sz sz) as products of single-site embeds."""
    n = params.n
    H = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for j in range(1, n):
        for ax in ("x", "y"):
            H += embed(n, j, pauli(ax)) @ embed(n, j + 1, pauli(ax))
        H += params.delta * embed(n, j, pauli("z")) @ embed(n, j + 1, pauli("z"))
    return H


@pytest.mark.parametrize("n", range(2, 9))
def test_hamiltonian_matches_embed_products(n):
    for delta in (0.5, -0.8, 2.0, 100.0):
        params = ChainParams(n=n, delta=delta)
        assert np.array_equal(hamiltonian_xxz(params), hamiltonian_by_embeds(params))


def test_hamiltonian_hermitian():
    H = hamiltonian_xxz(ChainParams(n=3, delta=0.7))
    assert hs_norm(H - H.conj().T) < 1e-12


def test_magnetization_values():
    assert np.array_equal(magnetization_z(1), np.diag([1, -1]))
    assert np.array_equal(magnetization_z(2), np.diag([2, 0, 0, -2]))


def test_u1_symmetry():
    for delta in (0.0, 0.5, 2.0):
        H = hamiltonian_xxz(ChainParams(n=3, delta=delta))
        M = magnetization_z(3)
        assert hs_norm(H @ M - M @ H) < 1e-12


def test_jump_ops_extreme_driving():
    ops = lindblad_jump_ops(ChainParams(n=2, mu=1.0))
    assert hs_norm(ops[1]) == 0
    assert hs_norm(ops[2]) == 0


def test_jump_ops_unbiased_sum():
    ops = lindblad_jump_ops(ChainParams(n=2, mu=0.0))
    total = sum(op.conj().T @ op for op in ops)
    assert np.allclose(total, np.eye(4))


def test_jump_ops_mu_validation():
    with pytest.raises(ValueError):
        ChainParams(n=2, mu=1.5)


def test_hs_norm_examples():
    assert np.isclose(hs_norm(np.eye(8)), np.sqrt(8))
    assert np.isclose(hs_norm(pauli("+")), 1.0)
    assert hs_norm(np.zeros((4, 4))) == 0


def test_eta_branches():
    assert np.isclose(eta_from_delta(0.5), np.arccos(0.5))
    eta = eta_from_delta(2.0)
    assert eta.real == 0 and np.isclose(np.cosh(eta.imag), 2.0)
    eta = eta_from_delta(-3.0)
    assert np.isclose(eta.real, np.pi) and np.isclose(np.cos(eta).real, -3.0)


@given(st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_eta_always_inverts_cosine(delta):
    assert abs(np.cos(eta_from_delta(delta)) - delta) < 1e-10


def test_params_validation():
    with pytest.raises(ValueError):
        ChainParams(n=1)
    with pytest.raises(ValueError):
        ChainParams(n=2, lam=-0.1)
    with pytest.raises(ValueError):
        ChainParams(n=2, j_coupling=0.0)


@pytest.mark.parametrize("n", [2.5, 4.0])
def test_params_reject_non_integer_n(n):
    with pytest.raises(ValueError, match=f"n={n}"):
        ChainParams(n=n)


def test_params_take_numpy_integer_n():
    params = ChainParams(n=np.int64(4))
    assert params.n == 4 and type(params.n) is int


@pytest.mark.parametrize("delta", [2000.0, -2000.0, 1e6, -1e6])
def test_params_accept_large_anisotropy(delta):
    # cos(eta) returns Delta to ~1e-16 relative, past 1e-12 absolute here
    assert ChainParams(n=4, delta=delta).eta == eta_from_delta(delta)


def test_replace_changes_only_the_named_field():
    base = ChainParams(n=4, j_coupling=2.0, delta=0.5, lam=0.1, mu=-0.3, omega=0.7)
    kept = {f.name: getattr(base, f.name) for f in dataclasses.fields(base) if f.init}
    for name, value in dict(n=5, j_coupling=1.5, delta=2.0, lam=0.2, mu=0.4,
                            omega=-1.0).items():
        assert base.replace(**{name: value}) == ChainParams(**{**kept, name: value})
    assert base.replace(delta=2.0).eta == eta_from_delta(2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_raise(bad):
    with pytest.raises(ValueError, match="Delta must be finite"):
        eta_from_delta(bad)
    for name in ("delta", "lam", "j_coupling", "omega"):
        with pytest.raises(ValueError, match="finite"):
            ChainParams(n=3, **{name: bad})
    with pytest.raises(ValueError, match="mu must lie"):
        ChainParams(n=3, mu=bad)
