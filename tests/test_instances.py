import hashlib

import pytest

from pareto_kcenter.cli import main
from pareto_kcenter.instances import InstanceSpec, generate

from conftest import fixed_skyline_fill
from oracle import brute_skyline


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

    @pytest.mark.parametrize("kind, digest", [
        ("uniform-square", "872698b3acc84d2b"),
        ("clustered", "5e322edf3d100f19"),
        ("staircase", "dc0cfb082acfdd54"),
        ("circle-quadrant", "b61f2957ee4c2622"),
    ])
    def test_gen_output_is_pinned(self, capsys, kind, digest):
        # Every draw and every coordinate of each generator's stream.
        assert main(["gen", "--generator", kind, "--n", "1000",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest()[:16] == digest


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
