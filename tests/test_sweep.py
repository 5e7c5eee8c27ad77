import pytest

import oscillax.norms as norms
import oscillax.sweep as sweep
from oscillax.sweep import SweepConfig, run_sweep


@pytest.fixture
def no_time_refinement(monkeypatch):
    """converged_maximal_field capped at its first time level, so never converged."""
    original = norms.converged_maximal_field

    def capped(g, p, **kw):
        return original(g, p, **{**kw, "max_level": kw.get("t_level0", 4)})

    monkeypatch.setattr(norms, "converged_maximal_field", capped)
    monkeypatch.setattr(sweep, "converged_maximal_field", capped)


@pytest.mark.parametrize("modulated", [False, True])
def test_unconverged_fields_flag_their_cells(no_time_refinement, modulated):
    cfg = SweepConfig(a=0.5, n=2, s_list=(0.1,), N_list=(4.0,),
                      range_kind="local", modulated=modulated, y_count=2)
    records, _ = run_sweep(cfg, workers=0)
    assert records
    assert not any(r.converged for r in records)
    assert all(r.t_level == 4 for r in records)


def test_records_carry_radial_grid_size():
    cfg = SweepConfig(a=0.5, n=2, s_list=(0.1,), N_list=(4.0,),
                      range_kind="local")
    records, _ = run_sweep(cfg, workers=0)
    assert records
    assert all(r.r_points > 0 and r.r_max == 1.0 for r in records)
