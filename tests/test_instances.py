import pytest

from pareto_kcenter.instances import (PARAMS, InstanceSpec,
                                      fixed_skyline_fill, generate)
from pareto_kcenter.oracle import brute_skyline


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["uniform-square", "clustered",
                                      "staircase", "circle-quadrant"])
    def test_same_spec_same_points(self, kind):
        a = generate(InstanceSpec(kind, 200, seed=31))
        b = generate(InstanceSpec(kind, 200, seed=31))
        assert a.points == b.points

    def test_different_seed_differs(self):
        a = generate(InstanceSpec("uniform-square", 50, seed=1))
        b = generate(InstanceSpec("uniform-square", 50, seed=2))
        assert a.points != b.points


class TestShapes:
    def test_staircase_is_all_skyline(self):
        P = generate(InstanceSpec("staircase", 300, seed=5))
        assert len(brute_skyline(P)) == 300

    def test_circle_quadrant_is_all_skyline(self):
        P = generate(InstanceSpec("circle-quadrant", 200, seed=5))
        assert len(brute_skyline(P)) == len(P)

    def test_fixed_skyline_fill_pins_h(self):
        for h, n in ((16, 500), (64, 4000)):
            P = fixed_skyline_fill(h, n, seed=77)
            assert len(P) == n
            assert len(brute_skyline(P)) == h

    def test_validation(self):
        with pytest.raises(ValueError):
            InstanceSpec("unknown", 10)
        with pytest.raises(ValueError):
            InstanceSpec("staircase", 0)

    @pytest.mark.parametrize("kind, params", [
        ("clustered", {"clusters": 0}),
        ("clustered", {"clusters": -2}),
        ("clustered", {"clusters": 2.5}),
        ("uniform-square", {"scale": float("nan")}),
        ("staircase", {"step": float("inf")}),
        ("uniform-square", {"foo": 1.0}),
        ("staircase", {"scale": 10.0}),
    ])
    def test_rejects_bad_params(self, kind, params):
        with pytest.raises(ValueError):
            InstanceSpec(kind, 10, params=params)

    def test_accepts_each_generators_params(self):
        values = {"scale": 10.0, "clusters": 3.0, "spread": 0.5,
                  "step": 2.0, "radius": 5.0}
        for kind, keys in PARAMS.items():
            spec = InstanceSpec(kind, 50, params={k: values[k] for k in keys})
            assert len(generate(spec)) == 50
