"""Exact enumeration and the transfer dynamic program."""

import cmath
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icewall import enumeration
from icewall.checks import DELTA_HALF_WEIGHTS, delta_half_log_z, three_enumeration
from icewall.enumeration import (ASM_COUNTS, ENUM_LIMIT, config_iterator,
                                 dump_configs, enumerate_configs, partition_dp,
                                 type_histogram)
from icewall.logscale import LogScaledValue
from icewall.params import ModelParams, symmetric_weights

weight_value = st.complex_numbers(min_magnitude=0.2, max_magnitude=2.0,
                                  allow_nan=False, allow_infinity=False)


def test_alternating_sign_matrix_counts():
    for n in range(1, 6):
        assert sum(1 for _ in config_iterator(n)) == ASM_COUNTS[n]


def term_by_term(n: int, w: tuple) -> LogScaledValue:
    """The reference sum, one configuration at a time, with the same
    power-of-two rescaling as enumerate_configs."""
    given = [complex(x) for x in w]
    e = math.frexp(max(abs(x) for x in given))[1]
    weights = [x / 2.0 ** e for x in given]
    total = 0j
    for cfg in config_iterator(n):
        term = 1.0 + 0j
        for wi, ni in zip(weights, cfg.type_counts()):
            term *= wi ** ni
        total += term
    return LogScaledValue.from_complex(total).scale_log(n * n * e * math.log(2))


def seeded_weights(seed: int) -> tuple:
    rng = random.Random(seed)
    return tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(6))


@pytest.mark.parametrize("w", [seeded_weights(s) for s in (1, 2, 3)]
                         + [(1, 1, 1j, 1j, 1, 1)])
def test_histogram_sum_matches_term_by_term_sum(w):
    for n in range(1, 7):
        res = enumerate_configs(n, w)
        assert res.config_count == ASM_COUNTS[n]
        assert res.z_value.rel_diff(term_by_term(n, w)) < 1e-13


def test_type_histogram_counts_every_configuration():
    for n in range(1, 7):
        hist = type_histogram(n)
        assert hist == Counter(cfg.type_counts() for cfg in config_iterator(n))
        assert sum(hist.values()) == ASM_COUNTS[n]


def test_type_histogram_is_built_once_per_size(monkeypatch):
    # a second call rebuilds no row table, and what a caller does to the
    # returned dict never reaches the next caller
    first = type_histogram(5)
    calls = []
    fillings = enumeration._row_fillings
    monkeypatch.setattr(enumeration, "_row_fillings",
                        lambda n, state: calls.append(state) or fillings(n, state))
    first.clear()
    again = type_histogram(5)
    assert calls == []
    assert again == Counter(cfg.type_counts() for cfg in config_iterator(5))
    assert calls   # config_iterator still builds its own table
    assert type_histogram(5) is not again


def test_packed_type_counts_fit_their_fields():
    # a lattice holds ENUM_LIMIT^2 vertices of one type at most
    assert ENUM_LIMIT ** 2 < 2 ** enumeration._FIELD_BITS


def test_single_vertex_lattice():
    configs = list(config_iterator(1))
    assert len(configs) == 1
    # the lone boundary-compatible vertex is the c-type with outgoing
    # horizontal arrows (type 6 in our ordering)
    assert configs[0].type_counts() == (0, 0, 0, 0, 0, 1)


def test_c_type_excess_is_n():
    for n in range(1, 6):
        for cfg in config_iterator(n):
            counts = cfg.type_counts()
            assert counts[5] - counts[4] == n


def test_vertex_count_conservation():
    for cfg in config_iterator(4):
        assert sum(cfg.type_counts()) == 16


def bit_sliced_dp(n: int, w: tuple) -> LogScaledValue:
    """The reference transfer: the same vertex updates as partition_dp, on
    four dense 2^N arrays with bit c of the index sliced out by a reshape,
    and the same per-row rescaling."""
    given = np.array(w, dtype=complex)
    scale = np.max(np.abs(given)) or 1.0
    ws = (given if given.imag.any() else given.real) / scale
    w1, w2, w3, w4, w5, w6 = ws
    log_z = n * n * math.log(scale)
    a0, a1, b0, b1 = (np.zeros(1 << n, dtype=ws.dtype) for _ in range(4))
    a0[0] = 1.0
    for _row in range(n):
        for c in range(n):
            x0, x1, y0, y1 = (v.reshape(-1, 2, 1 << c) for v in (a0, a1, b0, b1))
            y0[:, 0] = w2 * x0[:, 0] + w5 * x1[:, 1]
            y0[:, 1] = w4 * x0[:, 1]
            y1[:, 0] = w3 * x1[:, 0]
            y1[:, 1] = w6 * x0[:, 0] + w1 * x1[:, 1]
            a0, a1, b0, b1 = b0, b1, a0, a1
        a0, a1 = a1, np.zeros_like(a1)
        peak = np.max(np.abs(a0)) or 1.0
        a0 /= peak
        log_z += math.log(peak)
    return LogScaledValue.from_complex(a0[-1]).scale_log(log_z)


@pytest.mark.parametrize("w", [
    tuple(random.Random(5).uniform(0.2, 2.0) for _ in range(6)),
    seeded_weights(4),
    (2, 1, 0, 1, 1, 3),
    (1,) * 6,
    (0.7, 1.3, 0.4, 2.1, 0.9, 0),   # w6 = 0: every configuration has a type-6 vertex
], ids=["real", "complex", "w3=0", "ones", "zero"])
def test_dp_equals_the_bit_sliced_reference(w):
    # the sector transfer does each state's arithmetic in the same order, so
    # it gives the very same doubles, a zero Z included
    for n in range(1, 14):
        z = partition_dp(n, w)
        ref = bit_sliced_dp(n, w)
        assert (z.log_magnitude, z.angle) == (ref.log_magnitude, ref.angle), n
    if w[5] == 0:
        assert z.log_magnitude == -math.inf


def test_dp_memory_stays_within_its_sectors():
    # four dense complex 2^16 arrays alone take 4 MB; the popcount sectors
    # and the O(2^N) index tables stay under 3 MB at their peak
    w = seeded_weights(4)
    tracemalloc.start()
    try:
        partition_dp(16, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6, f"{peak / 1e6:.2f} MB"


@settings(max_examples=25, deadline=None)
@given(ws=st.tuples(*[weight_value] * 6))
def test_dp_matches_enumeration(ws):
    for n in (2, 3, 4):
        ref = enumerate_configs(n, ws).z_value
        assert partition_dp(n, ws).rel_diff(ref) < 1e-12


@settings(max_examples=25, deadline=None)
@given(s=st.complex_numbers(min_magnitude=0.3, max_magnitude=3.0,
                            allow_nan=False, allow_infinity=False))
def test_gauge_scaling(s):
    w = symmetric_weights(ModelParams(0.9, 0.3))
    n = 3
    base = enumerate_configs(n, w).z_value
    scaled = enumerate_configs(n, tuple(s * x for x in w)).z_value
    expected = base.scale_log(n * n * cmath.log(s))
    assert scaled.rel_diff(expected) < 1e-12


@pytest.mark.parametrize("x", [1e40, 1e-30])
def test_enumeration_takes_weights_beyond_double_range(x):
    # each term x^16 overflows (1e640) or underflows (1e-480) a double
    w = (x,) * 6
    z = enumerate_configs(4, w).z_value
    assert z.rel_diff(partition_dp(4, w)) < 1e-12
    assert z.rel_diff(LogScaledValue(math.log(42) + 16 * math.log(x), 0.0)) < 1e-12


def test_enumeration_keeps_a_zero_from_cancelling_terms():
    # N=2 has the terms w3 w4 w6^2 and w1 w2 w6^2: here i*i + 1 = 0 exactly
    w = (1, 1, 1j, 1j, 1, 1)
    assert enumerate_configs(2, w).z_value.log_magnitude == -math.inf
    assert partition_dp(2, w).log_magnitude == -math.inf


def test_dp_refuses_a_weight_its_rescaling_takes_to_zero():
    # Z = 2 here: both configurations weigh w3 w4 w6^2 = w1 w2 w6^2 = 1
    # before the division by 1e300 takes w5 = w6 = 1e-300 to 0
    with pytest.raises(ValueError, match="dp: .* takes w5, w6 below the smallest normal"):
        partition_dp(2, (1e300, 1e300, 1e300, 1e300, 1e-300, 1e-300))
    # dividing by 1e10 takes w5 = w6 = 1e-305 to subnormals, which keep too
    # few bits: Z = 2e-590 came out 3.0e-9 off
    with pytest.raises(ValueError, match="dp: .* takes w5, w6 below the smallest normal"):
        partition_dp(2, (1e10, 1e10, 1e10, 1e10, 1e-305, 1e-305))
    # a weight given as 0 stays allowed: Z = w1 w2 w6^2 = 18
    z = partition_dp(2, (2, 1, 0, 1, 1, 3))
    assert z.rel_diff(LogScaledValue(math.log(18), 0.0)) < 1e-15
    # a spread within the double range is taken: Z = 2 e600 e-10
    z = partition_dp(2, (1e300, 1e300, 1e300, 1e300, 1e-5, 1e-5))
    assert z.rel_diff(LogScaledValue(math.log(2) + 590 * math.log(10), 0.0)) < 1e-12


def test_ice_point_factorization():
    p = ModelParams(math.pi / 2, math.pi / 6)
    for n in range(1, 6):
        z = enumerate_configs(n, symmetric_weights(p)).z_value.value
        expected = (math.sqrt(3) / 2) ** (n * n) * ASM_COUNTS[n]
        assert z.real == pytest.approx(expected, rel=1e-12)
        assert abs(z.imag) < 1e-12


def log_asm(n: int) -> float:
    # A_N = prod_{k<N} (3k+1)!/(N+k)!, exact in integers
    num = den = 1
    for k in range(n):
        num *= math.factorial(3 * k + 1)
        den *= math.factorial(n + k)
    assert num % den == 0
    return math.log(num // den)


def test_three_enumeration_product_formula_matches_the_histogram():
    # A_N(3) sums 3^(number of -1 entries) over the ASMs; a -1 entry is a
    # type-5 vertex
    for n in range(1, ENUM_LIMIT + 1):
        brute = sum(m * 3 ** counts[4] for counts, m in type_histogram(n).items())
        assert three_enumeration(n) == brute
    for n in (7, 8, 9):   # beyond enumeration, the DP's Z_N 2^(N^2) 3^(-N/2) rounds to it
        z = partition_dp(n, DELTA_HALF_WEIGHTS)
        assert round(math.exp(z.log_magnitude + n * n * math.log(2) - n * math.log(3) / 2)) \
            == three_enumeration(n)


@pytest.mark.parametrize("n", [6, 12, 18])
def test_dp_matches_the_three_enumeration_at_delta_minus_half(n):
    # a = b = 1/2, c = sqrt3/2: Z_N = 2^(-N^2) 3^(N/2) A_N(3)
    exact = delta_half_log_z(n)
    z = partition_dp(n, DELTA_HALF_WEIGHTS)
    assert z.rel_diff(LogScaledValue(exact, 0.0)) <= 1e-15 * abs(exact)


def test_dp_handles_larger_sizes():
    # exact anchors at the largest sizes: the gauge weights
    # (s t, s/t, s u, s/u, s v, s/v) give Z = v^{-N} s^{N^2} A_N, since
    # n1 = n2, n3 = n4 and n6 - n5 = N; the free-fermion weights
    # (eta = pi/4) give Z = c^N (a^2 + b^2)^{N(N-1)/2}
    s, t, u, v = 0.8, 1.3, 0.6, 1.25
    gauge = (s * t, s / t, s * u, s / u, s * v, s / v)
    for n in (14, 16, 18):
        exact = LogScaledValue(n * n * math.log(s) - n * math.log(v) + log_asm(n), 0.0)
        assert partition_dp(n, gauge).rel_diff(exact) < 1e-12
        for lam in (0.9, 0.5 + 0.1j):
            w = symmetric_weights(ModelParams(lam, math.pi / 4))
            a, _, b, _, c, _ = w
            log_z = n * cmath.log(c) + n * (n - 1) / 2 * cmath.log(a * a + b * b)
            exact = LogScaledValue(log_z.real, log_z.imag)
            z = partition_dp(n, w)
            assert z.rel_diff(exact) < 1e-12


def test_dump_text_and_json():
    text = dump_configs(2, fmt="text")
    assert text.count("# configuration") == 2
    blob = dump_configs(2, fmt="json")
    assert len(blob) == 2
    assert all(len(c["type_counts"]) == 6 for c in blob)


def test_dump_size_limit():
    with pytest.raises(ValueError, match="configuration dump supports N <= 4"):
        dump_configs(5)


def test_enumeration_size_limit():
    with pytest.raises(ValueError, match="explicit enumeration supports"):
        list(config_iterator(7))
