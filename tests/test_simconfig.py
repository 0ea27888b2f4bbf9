"""SimConfig: validation, replace semantics, and construction paths."""

import warnings

import numpy as np
import pytest

from repro import FUSED_FULL, SimConfig, Simulation, get_config
from repro.grid.geometry import wall_refinement
from repro.grid.multigrid import DomainBC, FaceBC, RefinementSpec


def cavity_spec():
    base = (16, 16)
    bc = DomainBC({"y+": FaceBC("moving", velocity=(0.06, 0.0))})
    return RefinementSpec(base, wall_refinement(base, 2, [3.0]), bc=bc)


class TestValidation:
    def test_requires_exactly_one_relaxation_input(self):
        with pytest.raises(ValueError, match="exactly one"):
            SimConfig(lattice="D2Q9")
        with pytest.raises(ValueError, match="exactly one"):
            SimConfig(lattice="D2Q9", viscosity=0.05, omega0=1.2)

    def test_fusion_preset_name_resolves(self):
        cfg = SimConfig(viscosity=0.05, fusion="ours-4f")
        assert cfg.fusion is get_config("ours-4f")

    def test_bad_fusion_type_rejected(self):
        with pytest.raises(TypeError, match="fusion"):
            SimConfig(viscosity=0.05, fusion=42)

    def test_bad_preset_name_rejected(self):
        with pytest.raises(KeyError):
            SimConfig(viscosity=0.05, fusion="no-such-preset")

    def test_force_normalized_to_tuple(self):
        cfg = SimConfig(viscosity=0.05, force=np.array([1e-5, 0.0, 0.0]))
        assert cfg.force == (1e-5, 0.0, 0.0)
        hash(cfg)  # stays hashable

    def test_dtype_string_resolves(self):
        cfg = SimConfig(viscosity=0.05, dtype="float32")
        assert cfg.dtype is np.float32


class TestReplace:
    def test_replace_swaps_viscosity_for_omega(self):
        cfg = SimConfig(lattice="D2Q9", viscosity=0.05)
        safe = cfg.replace(viscosity=None, omega0=1.1)
        assert safe.omega0 == 1.1 and safe.viscosity is None
        assert cfg.viscosity == 0.05  # original untouched

    def test_replace_revalidates(self):
        cfg = SimConfig(lattice="D2Q9", viscosity=0.05)
        with pytest.raises(ValueError):
            cfg.replace(omega0=1.2)  # both set now

    def test_as_dict_is_json_ready(self):
        import json
        cfg = SimConfig(lattice="D2Q9", viscosity=0.05, fusion=FUSED_FULL,
                        dtype=np.float32)
        d = cfg.as_dict()
        json.dumps(d)
        assert d["lattice"] == "D2Q9"
        assert d["fusion"] == FUSED_FULL.name
        assert d["dtype"] == "float32"
        assert len(d) == 9  # one entry per SimConfig field


class TestShim:
    """Keyword overrides and a prebuilt SimConfig build the same run."""

    def test_from_config_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim = Simulation.from_config(
                cavity_spec(), SimConfig(lattice="D2Q9", viscosity=0.05))
        sim.close()

    def test_keyword_and_config_paths_are_bit_identical(self):
        spec = cavity_spec()
        keyword = Simulation.from_config(spec, lattice="D2Q9", viscosity=0.05,
                                         fusion=FUSED_FULL)
        config = Simulation.from_config(
            spec, SimConfig(lattice="D2Q9", collision="bgk", viscosity=0.05,
                            fusion=FUSED_FULL))
        keyword.run(5)
        config.run(5)
        for a, b in zip(keyword.engine.levels, config.engine.levels):
            assert np.array_equal(a.f[:, :a.n_owned], b.f[:, :b.n_owned])
        keyword.close()
        config.close()

    def test_from_config_overrides_apply_via_replace(self):
        base = SimConfig(lattice="D2Q9", viscosity=0.05)
        sim = Simulation.from_config(cavity_spec(), base, fusion="fuse-SE")
        assert sim.sim_config.fusion is get_config("fuse-SE")
        assert base.fusion is FUSED_FULL  # base profile untouched
        sim.close()

    def test_simulation_records_its_config(self):
        cfg = SimConfig(lattice="D2Q9", viscosity=0.05)
        sim = Simulation.from_config(cavity_spec(), cfg)
        assert sim.sim_config == cfg
        sim.close()
