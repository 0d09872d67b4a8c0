"""Random system generation and shrinking."""

import pytest

import besmin as bm
from besmin import Const


def _has_constant(f) -> bool:
    if isinstance(f, Const):
        return True
    if isinstance(f, (bm.And, bm.Or)):
        return _has_constant(f.left) or _has_constant(f.right)
    return False


def test_determinism():
    cfg = bm.GenConfig(variable_count=6, max_rhs_depth=4, seed=99)
    assert bm.gen_bes(cfg) == bm.gen_bes(cfg)
    assert bm.gen_srf_bes(cfg) == bm.gen_srf_bes(cfg)
    assert bm.gen_bes(cfg) != bm.gen_bes(bm.GenConfig(variable_count=6, seed=100))


def test_generated_systems_are_closed_and_well_formed():
    for seed in range(50):
        es = bm.gen_bes(bm.GenConfig(variable_count=1 + seed % 8, seed=seed))
        assert bm.is_closed(es)
        assert len(es.equations) == 1 + seed % 8


def test_constant_probability_zero():
    for seed in range(20):
        es = bm.gen_bes(bm.GenConfig(constant_probability=0.0, seed=seed))
        assert not any(_has_constant(eq.rhs) for eq in es)


def test_srf_generator():
    for seed in range(30):
        es = bm.gen_srf_bes(bm.GenConfig(variable_count=1 + seed % 6, seed=seed))
        assert bm.is_srf(es)
        assert bm.is_closed(es)
    single = bm.gen_srf_bes(bm.GenConfig(variable_count=1, seed=0))
    assert len(single.equations) == 1
    assert bm.occ(single) == bm.bnd(single)  # self-referential by closedness


def test_config_validation():
    with pytest.raises(ValueError):
        bm.GenConfig(variable_count=0)
    with pytest.raises(ValueError):
        bm.GenConfig(max_rhs_depth=0)
    with pytest.raises(ValueError):
        bm.GenConfig(constant_probability=1.5)
    with pytest.raises(ValueError):
        bm.GenConfig(operator_bias=-0.1)
