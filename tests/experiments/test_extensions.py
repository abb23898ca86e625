"""Extension experiments from the paper's Discussion (§VI)."""

from pathlib import Path

import pytest

from repro.experiments import attacks_study, dynamic_push, lossy_ablation


class TestAttacksStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return attacks_study.run()

    def test_slow_read_exposure_and_defence(self, result):
        slow = result.data["slow_read"]
        assert slow["exposed_peak"] > 0.9 * slow["theoretical_max"]
        assert slow["defended_peak"] == 0
        assert slow["defence_fired"]

    def test_table_flood_asymmetry(self, result):
        flood = result.data["table_flood"]
        # Decoder side inherently bounded; encoder side only with the cap.
        assert flood["decoder"] <= flood["decoder_limit"]
        assert flood["exposed_encoder"] > flood["defended_encoder"]

    def test_churn_bound(self, result):
        churn = result.data["priority_churn"]
        assert churn["defended_tracked"] < churn["exposed_tracked"]

    def test_renders_table(self, result):
        assert "attack surface" in result.text
        assert "GOAWAY" in result.text
        # The recorded study (seed 0), byte for byte.
        recorded = Path(__file__).parents[2] / "benchmarks/results/attacks_study.txt"
        assert result.text == recorded.read_text()


class TestLossyAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return lossy_ablation.run(repeats=2)

    def test_h2_competitive_on_clean_path(self, result):
        assert result.data["points"][0]["advantage"] > 0.9

    def test_h2_degrades_faster_under_loss(self, result):
        points = result.data["points"]
        assert points[-1]["advantage"] < points[0]["advantage"]

    def test_loss_hurts_everyone(self, result):
        points = result.data["points"]
        assert points[-1]["h2"] > points[0]["h2"]
        assert points[-1]["h1"] > points[0]["h1"]


class TestDynamicPush:
    @pytest.fixture(scope="class")
    def result(self):
        return dynamic_push.run(visits=4)

    def test_learned_starts_cold(self, result):
        series = result.data["series"]
        assert series["learned manifest"][0] == pytest.approx(
            series["no push"][0], rel=0.05
        )

    def test_learned_converges_below_static(self, result):
        series = result.data["series"]
        assert series["learned manifest"][-1] < series["static manifest"][-1]

    def test_static_beats_no_push(self, result):
        series = result.data["series"]
        assert series["static manifest"][-1] < series["no push"][-1]


class TestLongitudinal:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import longitudinal

        return longitudinal.run(n_sites=120, seed=6)

    def test_adoption_grows(self, result):
        assert result.data["second"]["headers"] > result.data["first"]["headers"]
        assert result.data["second"]["npn"] > result.data["first"]["npn"]

    def test_nginx_surges_tengine_migrates(self, result):
        first, second = result.data["first"], result.data["second"]
        assert second["nginx"] > first["nginx"]
        assert second["tengine_aserver"] > 0
        assert first["tengine_aserver"] == 0

    def test_selfdep_compliance_improves(self, result):
        assert (
            result.data["second"]["selfdep_rst_fraction"]
            > result.data["first"]["selfdep_rst_fraction"]
        )

    def test_renders(self, result):
        assert "Longitudinal change report" in result.text
