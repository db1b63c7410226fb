import math
import time

import numpy as np
import pytest

from xxz_metrology.model import eta_from_delta, hs_norm, pauli
from xxz_metrology.mpo import (AuxMatrices, _contract_blocks, build_aux_A, build_aux_B,
                               contract_to_dense, hs_norm_sq_via_transfer,
                               popcount_sectors, solve_s, validity_threshold)


def kron_all(*ops):
    out = np.eye(1, dtype=complex)
    for op in ops:
        out = np.kron(out, op)
    return out


def contract_by_kron(aux, n):
    """Reference contraction: every reachable state, one np.kron per term."""
    if aux.conjugate_paulis:
        pairs = (("0", aux.a0), ("-", aux.a_plus), ("+", aux.a_minus))
    else:
        pairs = (("0", aux.a0), ("+", aux.a_plus), ("-", aux.a_minus))
    sigma = {"0": np.eye(2, dtype=complex), "+": pauli("+"), "-": pauli("-")}
    partial = {aux.right_index: np.eye(1, dtype=complex)}
    for _ in range(n):
        step = {}
        for label, mat in pairs:
            rows, cols = np.nonzero(mat)
            for a, b in zip(rows, cols):
                block = partial.get(b)
                if block is None:
                    continue
                contrib = mat[a, b] * np.kron(sigma[label], block)
                if a in step:
                    step[a] += contrib
                else:
                    step[a] = contrib
        partial = step
    dim = 2 ** n
    return partial.get(aux.left_index, np.zeros((dim, dim), dtype=complex))


def test_aux_A_two_site_path():
    aux = build_aux_A(2, eta_from_delta(0.5))
    L, R, one = aux.left_index, aux.right_index, 2
    # A_+|R> = |1> and <L|A_- = <1|
    assert aux.a_plus[one, R] == 1.0
    assert aux.a_minus[L, one] == 1.0


def test_aux_A_isotropic_diagonal_is_identity():
    aux = build_aux_A(6, 0.0)
    assert np.allclose(aux.a0, np.eye(aux.dim_aux))


def test_aux_A_diagonal_at_half_pi():
    aux = build_aux_A(4, np.pi / 2)
    # basis [L, R, 1, 2]: cos(pi/2 * k) for k = 1, 2
    assert np.allclose(np.diag(aux.a0), [1, 1, 0, -1], atol=1e-15)


def test_aux_B_entries():
    eta = eta_from_delta(2.0)
    s = solve_s(0.01, eta)
    aux = build_aux_B(4, eta, s)
    assert np.isclose(aux.a_minus[1, 0], np.sin(eta))
    assert np.isclose(aux.a0[0, 0], np.sin(eta * s))
    assert np.all(np.isfinite(aux.a0[np.nonzero(aux.a0)]))


def test_aux_B_rejects_isotropic():
    with pytest.raises(ValueError):
        build_aux_B(4, 0.0, 1.0)


def test_solve_s_small_epsilon_limit():
    eta = np.pi / 3
    s = solve_s(1e-14, eta)
    assert np.isclose(s.real, np.pi / (2 * eta), atol=1e-10)


def test_solve_s_roundtrip():
    for eps, delta in [(0.1, 0.5), (0.01, 2.0), (0.3, -0.8)]:
        eta = eta_from_delta(delta)
        s = solve_s(eps, eta)
        residual = 1 / np.tan(s * eta) * 4j * np.sin(eta) - eps
        assert abs(residual) < 1e-12


def test_contract_two_site_operator():
    # the only two-step auxiliary path pairs sigma^+ on site 1 with
    # sigma^- on site 2; the paired assignment is pinned by the
    # steady-state fixed-point tests in test_lindblad.py
    for delta in (0.0, 0.5, 2.0):
        Z = contract_to_dense(build_aux_A(2, eta_from_delta(delta)), 2)
        assert np.allclose(Z, kron_all(pauli("+"), pauli("-")))


def test_contract_norm_two_site():
    Z = contract_to_dense(build_aux_A(2, eta_from_delta(0.3)), 2)
    assert np.isclose(hs_norm(Z) ** 2, 1.0)


@pytest.mark.parametrize("n", range(2, 7))
def test_contract_traceless(n):
    Z = contract_to_dense(build_aux_A(n, eta_from_delta(0.7)), n)
    assert abs(np.trace(Z)) < 1e-12


def test_contract_conserves_magnetization():
    # every contributing string balances raising and lowering factors
    from xxz_metrology.model import magnetization_z
    for n in (3, 4, 5):
        Z = contract_to_dense(build_aux_A(n, eta_from_delta(0.4)), n)
        M = magnetization_z(n)
        assert hs_norm(M @ Z - Z @ M) < 1e-12


def test_aux_boundaries_and_pairing_follow_the_family():
    eta = eta_from_delta(2.0)
    a, b = build_aux_A(5, eta), build_aux_B(5, eta, solve_s(0.01, eta))
    assert (a.dim_aux, a.left_index, a.right_index, a.conjugate_paulis) == (4, 0, 1, True)
    assert (b.dim_aux, b.left_index, b.right_index, b.conjugate_paulis) == (3, 0, 0, False)
    with pytest.raises(AttributeError):
        a.conjugate_paulis = False
    with pytest.raises(ValueError, match="family"):
        AuxMatrices(family="C", a0=b.a0, a_plus=b.a_plus, a_minus=b.a_minus)


def test_contract_isotropic_structure():
    # at eta = 0 only single +- pairs survive: Z = sum_{i<j} sp_i sm_j
    n = 4
    Z = contract_to_dense(build_aux_A(n, 0.0), n)
    expected = np.zeros((2 ** n, 2 ** n), dtype=complex)
    from xxz_metrology.model import embed
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            expected += embed(n, i, pauli("+")) @ embed(n, j, pauli("-"))
    assert np.allclose(Z, expected)


def test_widening_auxiliary_space_changes_nothing():
    # clamping drops terms that reference |n//2 + 1>; states above n//2
    # are unreachable in n steps, so widening by two must be a no-op
    n, eta = 5, eta_from_delta(0.6)
    base = build_aux_A(n, eta)
    wide = build_aux_A(n + 4, eta)  # two more auxiliary levels
    narrow = contract_to_dense(base, n)
    assert wide.dim_aux == base.dim_aux + 2
    assert np.array_equal(narrow, contract_to_dense(wide, n))


# the quadrant writes add the same terms in the same order as the kron
# loop, so every entry is equal (np.array_equal: signed zeros may differ)
@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("delta", [0.0, 0.5, -0.8, 2.0, -3.0])
def test_contract_A_equals_kron_reference(n, delta):
    aux = build_aux_A(n, eta_from_delta(delta))
    assert np.array_equal(contract_to_dense(aux, n), contract_by_kron(aux, n))


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("delta", [0.5, 2.0, 10.0, 100.0])
def test_contract_B_equals_kron_reference(n, delta):
    eta = eta_from_delta(delta)
    for epsilon in (1e-3, 1e-2):
        aux = build_aux_B(n, eta, solve_s(epsilon, eta))
        assert np.array_equal(contract_to_dense(aux, n), contract_by_kron(aux, n))


def contract_by_quadrants(aux, n):
    """Reference contraction: the dense quadrant loop, one 2**site x 2**site
    block per auxiliary state and site."""
    needed = n // 2 + (2 if aux.family == "A" else 1)
    if aux.dim_aux < needed:
        raise ValueError(f"auxiliary space of dim {aux.dim_aux} too small for "
                         f"an {n}-site contraction (need >= {needed})")
    # the quadrants (row, col) where the paired Pauli factor is 1
    one, plus, minus = ((0, 0), (1, 1)), ((0, 1),), ((1, 0),)
    if aux.conjugate_paulis:
        plus, minus = minus, plus
    pairs = ((aux.a0, one), (aux.a_plus, plus), (aux.a_minus, minus))
    # reaches_left[r]: the states with a path of r steps to the left boundary
    moves = (aux.a0 != 0) | (aux.a_plus != 0) | (aux.a_minus != 0)
    reaches_left = [np.arange(aux.dim_aux) == aux.left_index]
    for _ in range(n - 1):
        reaches_left.append(moves.T @ reaches_left[-1])
    partial: dict[int, np.ndarray] = {aux.right_index: np.eye(1, dtype=complex)}
    for site in range(n):
        keep, half = reaches_left[n - 1 - site], 2 ** site
        step: dict[int, np.ndarray] = {}
        for mat, quadrants in pairs:
            rows, cols = np.nonzero(mat)
            for a, b in zip(rows, cols):
                block = partial.get(b)
                if block is None or not keep[a]:
                    continue
                if a not in step:
                    step[a] = np.zeros((2 * half, 2 * half), dtype=complex)
                contrib = mat[a, b] * block
                for i, j in quadrants:
                    step[a][i * half:(i + 1) * half, j * half:(j + 1) * half] += contrib
        partial = step
    dim = 2 ** n
    return partial.get(aux.left_index, np.zeros((dim, dim), dtype=complex))


def aux_families(n, delta):
    eta = eta_from_delta(delta)
    return [build_aux_A(n, eta)] + [build_aux_B(n, eta, solve_s(epsilon, eta))
                                    for epsilon in (1e-3, 1e-2)]


# the same bits as the dense loop, signed zeros included, from M_z blocks only
@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("delta", [0.5, -0.8, 2.0, 100.0])
def test_block_contraction_is_the_quadrant_loop_bit_for_bit(n, delta):
    for aux in aux_families(n, delta):
        dense = contract_to_dense(aux, n)
        assert np.array_equal(dense.view(np.int64),
                              contract_by_quadrants(aux, n).view(np.int64))
        blocks = _contract_blocks(aux, n)
        assert blocks and all(row == col for row, col in blocks)
        sectors = popcount_sectors(n)
        assert sum(block.size for block in blocks.values()) <= math.comb(2 * n, n)
        for (k, _), block in blocks.items():
            assert np.array_equal(block, dense[np.ix_(sectors[k], sectors[k])])


def test_block_contraction_keeps_every_zero_positive():
    # -0 * x and x * -0 terms land in blocks the dense loop starts at +0
    aux = build_aux_B(6, eta_from_delta(-0.8), solve_s(1e-2, eta_from_delta(-0.8)))
    dense = contract_to_dense(aux, 6)
    assert not np.any(np.signbit(dense.real[dense.real == 0]))
    assert not np.any(np.signbit(dense.imag[dense.imag == 0]))


def test_popcount_sectors_partition_the_basis():
    for n in (1, 4, 9):
        sectors = popcount_sectors(n)
        assert popcount_sectors(n) is sectors  # cached per n
        assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(2 ** n))
        for k, idx in enumerate(sectors):
            assert len(idx) == math.comb(n, k) and np.all(np.diff(idx) > 0)
            assert all(bin(i).count("1") == k for i in idx)
            assert not idx.flags.writeable


@pytest.mark.parametrize("delta", [0.0, 0.5, 1.0, 2.0])
def test_norm_identity_dense_vs_transfer(delta):
    eta = eta_from_delta(delta)
    for n in range(3, 9):
        dense = hs_norm(contract_to_dense(build_aux_A(n, eta), n)) ** 2
        via_transfer = hs_norm_sq_via_transfer(n, eta).value
        assert abs(dense - via_transfer) / dense < 1e-10


def test_norm_identity_examples():
    assert np.isclose(hs_norm_sq_via_transfer(2, eta_from_delta(0.5)).value, 1.0)
    assert np.isclose(hs_norm_sq_via_transfer(4, 0.0).value, 24.0)


def test_norm_past_the_double_range_keeps_its_log():
    norm = hs_norm_sq_via_transfer(1000, eta_from_delta(2.0))
    assert norm.value == math.inf
    assert norm.sign == 1.0 and math.isfinite(norm.log)


def test_validity_threshold_examples():
    thr = validity_threshold(2, eta_from_delta(0.5), 1.0).value
    assert np.isclose(thr, np.sqrt(8.0))
    assert np.isclose(validity_threshold(2, eta_from_delta(0.5), 0.5).value, 2 * thr)


def test_validity_threshold_mu_zero():
    with pytest.raises(ValueError):
        validity_threshold(4, eta_from_delta(0.5), 0.0)
    for bad in (float("nan"), 1.5, -1.0 - 1e-12):
        with pytest.raises(ValueError, match=r"mu must lie in \[-1, 1\]"):
            validity_threshold(4, eta_from_delta(0.5), bad)


def test_validity_threshold_superexponential_decay():
    eta = eta_from_delta(2.0)
    logs = [validity_threshold(n, eta, 1.0).log for n in range(2, 21)]
    diffs = np.diff(logs)
    assert np.all(diffs < 0)
    # decrements themselves keep growing in magnitude
    assert np.all(np.diff(diffs) < 0)


def test_contraction_speed_n10():
    start = time.monotonic()
    Z = contract_to_dense(build_aux_A(10, eta_from_delta(0.5)), 10)
    elapsed = time.monotonic() - start
    assert Z.shape == (1024, 1024)
    assert elapsed < 30.0


def test_contract_rejects_oversized():
    with pytest.raises(ValueError):
        contract_to_dense(build_aux_A(4, 0.5), 13)
