"""Tests for the comparison framework and scaling study."""

import pytest

from repro.experiments.ext_scaling import (
    run_request_scaling,
    run_size_scaling,
)
from repro.hardware.soc import get_soc
from repro.models.zoo import get_model
from repro.runtime.metrics import compare_schemes, standard_schemes


@pytest.fixture(scope="module")
def kirin():
    return get_soc("kirin990")


class TestComparisonFramework:
    @pytest.fixture(scope="class")
    def matrix(self, kirin):
        schemes = standard_schemes(kirin)
        workloads = [
            [get_model(n) for n in ("vit", "resnet50")],
            [get_model(n) for n in ("bert", "squeezenet", "googlenet")],
        ]
        return compare_schemes(schemes, workloads)

    def test_shape(self, matrix):
        assert matrix.num_workloads == 2
        assert set(matrix.scheme_names) == {
            "mnn", "pipe_it", "band", "h2p_no_ct", "h2p",
        }

    def test_speedup_summary(self, matrix):
        gm, hi, lo = matrix.speedup_summary("mnn", "h2p")
        assert lo <= gm <= hi
        assert gm > 1.0

    def test_leaderboard_sorted(self, matrix):
        board = matrix.leaderboard()
        values = [v for _, v in board]
        assert values == sorted(values)
        assert board[0][0] in ("h2p", "band", "h2p_no_ct")

    def test_win_rate_bounds(self, matrix):
        rate = matrix.win_rate("h2p", "mnn")
        assert rate == 1.0
        assert 0.0 <= matrix.win_rate("mnn", "h2p") <= 1.0

    def test_mean_metrics_positive(self, matrix):
        for name in matrix.scheme_names:
            assert matrix.mean_latency_ms(name) > 0
            assert matrix.mean_throughput(name) > 0

    def test_validation(self, kirin):
        with pytest.raises(ValueError):
            compare_schemes([], [[get_model("vit")]])
        scheme = standard_schemes(kirin)[0]
        with pytest.raises(ValueError):
            compare_schemes([scheme], [])
        with pytest.raises(ValueError):
            compare_schemes([scheme, scheme], [[get_model("vit")]])


class TestScalingStudy:
    def test_throughput_plateaus(self, kirin):
        points = run_request_scaling(kirin, counts=(4, 8, 16))
        # Longer streams amortize fill/drain: throughput non-decreasing
        # (within tolerance) after the first point.
        assert points[-1].throughput_per_s >= points[0].throughput_per_s * 0.95

    def test_latency_grows_with_count(self, kirin):
        points = run_request_scaling(kirin, counts=(2, 8))
        assert points[1].latency_ms > points[0].latency_ms

    def test_size_scaling_tiers(self, kirin):
        points = run_size_scaling(kirin)
        assert [p.tier for p in points] == ["small", "base", "large"]
        for point in points:
            assert point.speedup > 1.0
            assert point.h2p_ms < point.serial_ms
