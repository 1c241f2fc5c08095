import math

import numpy as np
import pytest

from wigner_witness import (
    IDENTITY, NEG_IDENTITY, P_REFLECT, PRESETS, FULL_PLANE,
    Region, RegionError, SymplecticParam, Transform2, TransformError,
    compose_transforms, disk_union, invert_transform, make_transform,
    params_from_symplectic, rectangle, symplectic_from_params,
)
from wigner_witness.core import apply_transform, rotation


def test_presets_have_unit_determinant_magnitude():
    for name, t in PRESETS.items():
        assert abs(abs(t.a * t.d - t.b * t.c) - 1.0) < 1e-12, name


def test_p_reflect_flips_momentum_only():
    x, p = apply_transform(P_REFLECT, 1.3, -0.7)
    assert (x, p) == (1.3, 0.7)


def test_neg_identity_negates_both():
    x, p = apply_transform(NEG_IDENTITY, 1.3, -0.7)
    assert (x, p) == (-1.3, 0.7)


def test_determinant_validation():
    with pytest.raises(TransformError):
        make_transform(1.0, 0.0, 0.0, 2.0)
    # |det| = 1 with det = -1 is allowed
    make_transform(1.0, 0.0, 0.0, -1.0)


def _rotation_transform(phi: float):
    m = rotation(phi)
    return make_transform(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def test_compose_then_invert_is_identity():
    t1 = make_transform(2.0, 0.0, 0.0, 0.5, x0=1.0, p0=-2.0)
    t2 = _rotation_transform(0.6)
    t = compose_transforms(t1, t2)
    ti = invert_transform(t)
    x, p = apply_transform(ti, *apply_transform(t, 0.37, -1.2))
    np.testing.assert_allclose([x, p], [0.37, -1.2], atol=1e-12)


def test_compose_applies_right_then_left():
    t1 = make_transform(1.0, 0.0, 0.0, 1.0, x0=1.0, p0=0.0)
    t2 = _rotation_transform(math.pi / 2)
    t = compose_transforms(t1, t2)
    # rotation first, then shift
    x, p = apply_transform(t, 1.0, 0.0)
    np.testing.assert_allclose([x, p], [1.0, 1.0], atol=1e-12)


def test_symplectic_param_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(25):
        par = SymplecticParam(
            phi1=rng.uniform(0, math.pi), phi2=rng.uniform(0, math.pi),
            t=math.exp(rng.uniform(-1.5, 1.5)), reflect=bool(rng.integers(2)))
        tr = symplectic_from_params(par, x0=rng.normal(), p0=rng.normal())
        back = params_from_symplectic(tr)
        tr2 = symplectic_from_params(back, x0=tr.x0, p0=tr.p0)
        for field in ("a", "b", "c", "d", "x0", "p0"):
            assert abs(getattr(tr, field) - getattr(tr2, field)) < 1e-9


def test_symplectic_reflect_flips_determinant_sign():
    par = SymplecticParam(phi1=0.3, phi2=1.1, t=1.7, reflect=True)
    tr = symplectic_from_params(par)
    assert tr.a * tr.d - tr.b * tr.c < 0


def test_region_builders():
    r = rectangle(-1.0, 2.0, 0.0, 3.0)
    assert r.kind == "rectangle"
    d = disk_union((0.0, 0.0, 1.0), (3.0, 0.0, 0.5))
    assert d.kind == "disk-union" and len(d.disks) == 2
    assert FULL_PLANE.kind == "full-plane"


def test_region_rejects_bad_input():
    with pytest.raises(RegionError):
        rectangle(2.0, -1.0, 0.0, 1.0)
    with pytest.raises(RegionError):
        disk_union((0.0, 0.0, -1.0))
    with pytest.raises(RegionError):
        disk_union()


@pytest.mark.parametrize("build", [
    lambda: rectangle(-math.inf, math.inf, -1.0, 1.0),
    lambda: rectangle(0.0, 1.0, math.nan, 1.0),
    lambda: disk_union((math.nan, 0.0, 1.0)),
    lambda: disk_union((math.inf, 0.0, 1.0)),
    lambda: disk_union((0.0, 0.0, 1.0), (0.0, -math.inf, 1.0)),
    lambda: disk_union((0.0, 0.0, math.inf)),
], ids=["rect-infinite", "rect-nan", "disk-nan-centre", "disk-infinite-centre",
        "second-disk-infinite-centre", "disk-infinite-radius"])
def test_region_rejects_non_finite_input(build):
    with pytest.raises(RegionError):
        build()


def test_region_to_dict_round_trips_values():
    d = disk_union((0.5, -0.5, 1.5)).to_dict()
    assert d == {"kind": "disk-union", "disks": [[0.5, -0.5, 1.5]]}
    assert FULL_PLANE.to_dict() == {"kind": "full-plane"}


def test_transform_is_frozen():
    with pytest.raises(Exception):
        IDENTITY.a = 2.0


@pytest.mark.parametrize("x0, p0", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_transform_rejects_nonfinite_offsets(x0, p0):
    with pytest.raises(TransformError):
        Transform2(1.0, 0.0, 0.0, 1.0, x0, p0)
