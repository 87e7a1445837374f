"""The limits of the test oracles themselves."""

import numpy as np
import pytest

from dfgof.transport import AnchorSet, generate_anchors
from oracles import brute_force_assignment


class TestBruteForce:
    def test_single_point(self):
        anchors = AnchorSet(points=np.array([[0.3]]))
        out = brute_force_assignment(np.array([[0.9]]), anchors)
        assert np.array_equal(out.sigma, np.array([0]))

    def test_never_worse_than_identity(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0.0, 1.0, size=(6, 2))
        anchors = generate_anchors(6, 2, "halton")
        out = brute_force_assignment(x, anchors)
        identity_cost = np.linalg.norm(x - anchors.points, axis=1).sum()
        assert out.cost <= identity_cost + 1e-12

    def test_size_guard(self):
        anchors = generate_anchors(9, 1, "halton")
        with pytest.raises(ValueError, match="n <= 8"):
            brute_force_assignment(np.linspace(0, 1, 9)[:, None], anchors)
