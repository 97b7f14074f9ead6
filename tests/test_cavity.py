"""Reflection coefficient checks: hand-computed points, symmetries,
and passivity."""

from dataclasses import replace

import numpy as np
import pytest

from cavsim import (
    CavityParams,
    ReflectionPair,
    reflection_amplitudes,
    reflection_lossless,
    reflection_lossy,
)
from conftest import random_cavity_params


def test_resonant_lossy_point():
    # on resonance: r_c = 1 - 2*(kr/k)/(1 + 2C), r_nc = 1 - 2*(kr/k)
    refl = reflection_lossy(CavityParams(c=4.0, kappa_ratio=0.916))
    assert refl.r_c == pytest.approx(1.0 - 2.0 * 0.916 / 9.0, abs=1e-15)
    assert refl.r_nc == pytest.approx(-0.832, abs=1e-15)
    assert refl.r_c.imag == 0.0
    assert refl.t_c_sq == pytest.approx(1.0 - abs(refl.r_c) ** 2, abs=1e-15)


@pytest.mark.parametrize("r_c, r_nc", [(float("nan"), -1.0), (1.0, complex(0.0, float("nan")))])
def test_nan_reflection_amplitude_is_refused(r_c, r_nc):
    with pytest.raises(ValueError, match=r"\|r\| <= 1"):
        ReflectionPair.from_amplitudes(r_c, r_nc)


def test_lossless_resonant_cooperativity_one():
    refl = reflection_lossless(1.0)
    assert refl.r_c == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert refl.r_nc == pytest.approx(-1.0, abs=1e-15)
    assert refl.t_nc_sq == 0.0


def test_uncoupled_resonant_reflection():
    for kr in (0.0, 0.25, 0.5, 0.916, 1.0):
        _, r_nc = reflection_amplitudes(5.0, 0.0, 0.0, kr)
        assert r_nc == pytest.approx(1.0 - 2.0 * kr, abs=1e-15)


def test_lossy_agrees_with_lossless_at_unit_mirror_ratio():
    rng = np.random.default_rng(7)
    for _ in range(200):
        c = 10.0 ** rng.uniform(-1, 2)
        dc = rng.uniform(-3, 3)
        da = rng.uniform(-3, 3)
        a = reflection_lossy(CavityParams(c=c, delta_c=dc, delta_a=da, kappa_ratio=1.0))
        b = reflection_lossless(c, dc, da)
        assert abs(a.r_c - b.r_c) < 1e-12
        assert abs(a.r_nc - b.r_nc) < 1e-12


def test_passivity():
    # a passive mirror never reflects more than it receives
    rng = np.random.default_rng(8)
    for _ in range(500):
        p = random_cavity_params(rng)
        refl = reflection_lossy(p)
        assert abs(refl.r_c) <= 1.0 + 1e-12
        assert abs(refl.r_nc) <= 1.0 + 1e-12
        assert 0.0 <= refl.t_c_sq <= 1.0
        assert 0.0 <= refl.t_nc_sq <= 1.0


def test_conjugate_symmetry():
    # flipping both detunings conjugates the response
    rng = np.random.default_rng(9)
    for _ in range(200):
        c = 10.0 ** rng.uniform(-1, 2)
        dc = rng.uniform(-3, 3)
        da = rng.uniform(-3, 3)
        kr = rng.uniform(0, 1)
        rc, rnc = reflection_amplitudes(c, dc, da, kr)
        rc2, rnc2 = reflection_amplitudes(c, -dc, -da, kr)
        assert abs(rc2 - rc.conjugate()) < 1e-14
        assert abs(rnc2 - rnc.conjugate()) < 1e-14


def test_large_cooperativity_limit():
    refl = reflection_lossy(CavityParams(c=1e9, kappa_ratio=1.0))
    assert abs(refl.r_c - 1.0) < 1e-8
    assert abs(refl.r_nc + 1.0) < 1e-15


def test_vectorized_matches_scalar():
    c = np.array([0.5, 4.0, 40.0])
    dc = np.array([0.0, 0.3, -1.0])
    da = np.array([0.1, 0.0, 2.0])
    kr = np.array([1.0, 0.916, 0.5])
    rc, rnc = reflection_amplitudes(c, dc, da, kr)
    for i in range(3):
        sc, snc = reflection_amplitudes(c[i], dc[i], da[i], kr[i])
        assert rc[i] == sc
        assert rnc[i] == snc


def test_ideal_pair():
    refl = ReflectionPair.ideal()
    assert refl.r_c == 1.0 and refl.r_nc == -1.0
    assert refl.t_c_sq == 0.0 and refl.t_nc_sq == 0.0


def test_reflection_pair_rejects_gain():
    with pytest.raises(ValueError):
        ReflectionPair.from_amplitudes(1.2, 0.5)
    with pytest.raises(ValueError):
        ReflectionPair.from_amplitudes(0.5, -1.0001)


def test_reflection_lossy_keeps_bits_where_r_rounds_above_one():
    # at c = 0 and kappa_ratio = 1 both |r| are 1 exactly and round to
    # 1 + 2.2e-16 here, below the 1e-15 at which from_amplitudes rescales
    p = CavityParams(c=0.0, delta_c=-0.5073478390316644, kappa_ratio=1.0)
    r_c, r_nc = reflection_amplitudes(p.c, p.delta_c, p.delta_a, p.kappa_ratio)
    assert abs(r_c) > 1.0 and abs(r_nc) > 1.0
    refl = reflection_lossy(p)
    assert (refl.r_c, refl.r_nc) == (r_c, r_nc)
    assert refl.t_c_sq == 0.0 and refl.t_nc_sq == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(c=-0.1),
        dict(c=float("nan")),
        dict(c=1.0, kappa_ratio=1.2),
        dict(c=1.0, kappa_ratio=-0.2),
        dict(c=1.0, zeta=1.5),
        dict(c=1.0, delta_c=float("inf")),
    ],
)
def test_cavity_params_validation(kwargs):
    with pytest.raises(ValueError):
        CavityParams(**kwargs)


def _pair_bits(refl):
    return [x.hex() for x in (refl.r_c.real, refl.r_c.imag, refl.r_nc.real, refl.r_nc.imag,
                              refl.t_c_sq, refl.t_nc_sq)]


def _unmemoized(p):
    return ReflectionPair.from_amplitudes(
        *reflection_amplitudes(p.c, p.delta_c, p.delta_a, p.kappa_ratio)
    )


MEMO_POINTS = [
    CavityParams(c=4.0, kappa_ratio=0.916, zeta=0.92),
    CavityParams(c=4, kappa_ratio=0.916),
    CavityParams(c=np.float64(4.0), kappa_ratio=0.916),
    CavityParams(c=2.5, delta_c=0.4, delta_a=-0.3, kappa_ratio=0.8, zeta=0.5),
] + [
    CavityParams(**{name: sign * 0.0 for name in zeros}, **{
        name: value for name, value in
        {"c": 3.0, "delta_c": 0.2, "delta_a": -0.1, "kappa_ratio": 0.9}.items()
        if name not in zeros
    })
    for zeros in (("c",), ("delta_c",), ("delta_a",), ("kappa_ratio",),
                  ("c", "delta_c", "delta_a", "kappa_ratio"))
    for sign in (1.0, -1.0)
]


def test_reflection_memo_is_exact_whatever_came_before():
    # every ordered pair of points, then alternating calls between two
    for first in MEMO_POINTS:
        for second in MEMO_POINTS:
            reflection_lossy(first)
            assert _pair_bits(reflection_lossy(second)) == _pair_bits(_unmemoized(second))
    a, b = MEMO_POINTS[0], MEMO_POINTS[3]
    for p in (a, b, a, b, a, a, b, b):
        assert _pair_bits(reflection_lossy(p)) == _pair_bits(_unmemoized(p))


def test_reflection_memo_ignores_zeta_and_keys_on_type_and_zero_sign():
    a = CavityParams(c=4.0, kappa_ratio=0.916, zeta=0.92)
    assert reflection_lossy(a) is reflection_lossy(replace(a, zeta=0.5))
    for other in (replace(a, c=4), replace(a, c=np.float64(4.0)), replace(a, delta_c=-0.0)):
        refl = reflection_lossy(a)
        assert reflection_lossy(other) is not refl
