"""Experiment runners: each table/figure regenerates with the paper's shape.

These are the headline reproduction assertions.  Small scales keep them
fast; the benchmark harness runs the same code at larger scale.
"""

import pytest

from repro.experiments import (
    adoption,
    fig2,
    fig3,
    fig45,
    fig6,
    flowcontrol_scan,
    priority_scan,
    push_scan,
    settings_tables,
    table3,
    table4,
)
from tests.support.readers import clear_scan_cache

N_SITES = 150
SEED = 17


@pytest.fixture(scope="module", autouse=True)
def _fresh_cache():
    clear_scan_cache()
    yield
    clear_scan_cache()


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return table3.run()

    def test_no_mismatches_with_paper(self, result):
        assert result.data["mismatches"] == []

    def test_all_rows_and_vendors_present(self, result):
        measured = result.data["measured"]
        assert set(measured) == set(table3.VENDORS)
        for cells in measured.values():
            assert set(cells) == {row.label for row in table3.ROWS}

    def test_text_renders_matrix(self, result):
        assert "Nginx" in result.text
        assert "Priority Mechanism Testing (Algorithm 1)" in result.text


class TestAdoption:
    def test_counts_within_sampling_tolerance(self):
        result = adoption.run(experiment=1, n_sites=N_SITES, seed=SEED)
        paper = result.data["paper"]
        scaled = result.data["scaled"]
        for key in ("npn", "alpn", "headers"):
            assert scaled[key] == pytest.approx(paper[key], rel=0.15), key

    def test_headers_never_exceed_negotiated(self):
        result = adoption.run(experiment=1, n_sites=N_SITES, seed=SEED)
        raw = result.data["raw"]
        assert raw["headers"] <= max(raw["npn"], raw["alpn"])


class TestTable4:
    def test_big_families_recovered(self):
        result = table4.run(experiment=1, n_sites=N_SITES, seed=SEED)
        scaled = result.data["scaled"]
        paper = result.data["paper"]
        for family in ("litespeed", "nginx", "gse"):
            assert scaled.get(family, 0) == pytest.approx(
                paper[family], rel=0.45
            ), family

    def test_litespeed_and_nginx_lead(self):
        result = table4.run(experiment=1, n_sites=N_SITES, seed=SEED)
        counts = result.data["counts"]
        top = sorted(counts, key=counts.get, reverse=True)[:4]
        assert "litespeed" in top and "nginx" in top


class TestSettingsTables:
    def test_dominant_buckets_recovered(self):
        result = settings_tables.run(experiment=1, n_sites=N_SITES, seed=SEED)
        iws = result.data["iws"]
        scale = result.data["scale"]
        # 65,536 dominates Table V (20,477 of 44,390).
        assert iws.get(65_536, 0) / scale == pytest.approx(20_477, rel=0.35)
        mfs = result.data["mfs"]
        assert mfs.get(16_384, 0) / scale == pytest.approx(24_781, rel=0.3)

    def test_null_consistent_across_tables(self):
        result = settings_tables.run(experiment=1, n_sites=N_SITES, seed=SEED)
        assert (
            result.data["iws"].get("NULL", 0)
            == result.data["mfs"].get("NULL", 0)
            == result.data["mhls"].get("NULL", 0)
        )

    def test_unlimited_mhls_majority(self):
        # Paper: 73.4% of sites use the suggested (unlimited) value.
        result = settings_tables.run(experiment=1, n_sites=N_SITES, seed=SEED)
        mhls = result.data["mhls"]
        total = sum(mhls.values())
        assert mhls.get("unlimited", 0) / total > 0.55


class TestFig2:
    def test_majority_at_least_100(self):
        result = fig2.run(n_sites=N_SITES, seed=SEED)
        for exp in ("experiment one", "experiment two"):
            assert result.data[exp]["fraction_at_least_100"] > 0.8

    def test_popular_values_are_100_and_128(self):
        result = fig2.run(n_sites=N_SITES, seed=SEED)
        popular = [v for v, _ in result.data["experiment one"]["popular"]]
        assert set(popular) == {100, 128}


class TestFlowControlScan:
    @pytest.fixture(scope="class")
    def result(self):
        return flowcontrol_scan.run(experiment=1, n_sites=N_SITES, seed=SEED)

    def test_window_sized_majority(self, result):
        tiny = result.data["tiny"]
        responsive = result.data["responsive"]
        assert tiny["window_sized"] / responsive == pytest.approx(
            37_525 / 44_390, abs=0.1
        )

    def test_zero_wu_split(self, result):
        zero = result.data["zero_wu"]
        responsive = result.data["responsive"]
        assert zero["rst"] / responsive == pytest.approx(23_673 / 44_390, abs=0.12)

    def test_connection_zero_wu_nearly_all_goaway(self, result):
        zero = result.data["zero_wu"]
        assert zero["connection_goaway"] / result.data["responsive"] > 0.85

    def test_large_wu_stream_rst_majority(self, result):
        large = result.data["large_wu"]
        responsive = result.data["responsive"]
        assert large["stream_rst"] / responsive == pytest.approx(
            36_619 / 44_390, abs=0.12
        )


class TestPriorityScan:
    def test_priority_adoption_is_rare(self):
        result = priority_scan.run(experiment=1, n_sites=N_SITES, seed=SEED)
        responsive = result.data["responsive"]
        assert result.data["by_last"] / responsive < 0.1
        assert result.data["by_first"] <= result.data["by_last"] + 1

    def test_selfdep_rst_fraction(self):
        result = priority_scan.run(experiment=1, n_sites=N_SITES, seed=SEED)
        fraction = result.data["selfdep_rst"] / result.data["responsive"]
        assert fraction == pytest.approx(18_237 / 44_390, abs=0.12)

    def test_experiment2_more_compliant(self):
        r1 = priority_scan.run(experiment=1, n_sites=N_SITES, seed=SEED)
        r2 = priority_scan.run(experiment=2, n_sites=N_SITES, seed=SEED)
        f1 = r1.data["selfdep_rst"] / r1.data["responsive"]
        f2 = r2.data["selfdep_rst"] / r2.data["responsive"]
        assert f2 > f1  # "servers are getting better implementation"


class TestPushScan:
    def test_push_is_rare(self):
        result = push_scan.run(experiment=2, n_sites=N_SITES, seed=SEED)
        assert result.data["pushing_sites"] <= 2


class TestFig3:
    def test_push_helps_most_sites(self):
        result = fig3.run(visits=5, seed=3)
        assert result.data["improved"] >= result.data["sites"] * 0.7

    def test_plt_range_matches_paper(self):
        result = fig3.run(visits=5, seed=3)
        medians = [m for pair in result.data["medians"].values() for m in pair]
        assert min(medians) > 1.0
        assert max(medians) < 20.0


class TestFig45:
    @pytest.fixture(scope="class")
    def result(self):
        return fig45.run(experiment=1, n_sites=N_SITES, seed=SEED)

    def test_gse_all_below_03(self, result):
        assert result.data["checks"]["gse_below_0.3"] == 1.0

    def test_nginx_pinned_at_one(self, result):
        assert result.data["checks"]["nginx_ratio_one"] > 0.8

    def test_litespeed_mostly_below_03(self, result):
        assert result.data["checks"]["litespeed_below_0.3"] == pytest.approx(
            0.8, abs=0.15
        )

    def test_cookie_sites_filtered(self, result):
        for ratios in result.data["series"].values():
            assert all(r <= 1.0 for r in ratios)


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6.run(sites_per_family=3, seed=5)

    def test_ping_matches_tcp_and_icmp(self, result):
        medians = result.data["medians"]
        assert medians["h2-ping"] == pytest.approx(medians["tcp-rtt"], rel=0.05)
        assert medians["h2-ping"] == pytest.approx(medians["icmp"], rel=0.05)

    def test_http1_is_the_outlier(self, result):
        medians = result.data["medians"]
        assert medians["h2-request"] > medians["h2-ping"] * 1.1


class TestTable3Conformance:
    def test_no_vendor_is_fully_conformant(self):
        result = table3.run()
        scores = result.data["conformance"]
        assert all(compliant < total for compliant, total in scores.values())

    def test_strict_priority_vendors_rank_highest(self):
        result = table3.run()
        scores = {v: c for v, (c, _) in result.data["conformance"].items()}
        assert scores["h2o"] == max(scores.values())
        assert scores["nginx"] == min(scores.values())
        assert scores["nginx"] == scores["tengine"]  # same lineage

    def test_matrix_stable_across_seeds(self):
        # The testbed characterization is behaviour, not luck: different
        # RNG seeds (processing jitter, connection seeds) must not
        # change any cell.
        a = table3.run(seed=0)
        b = table3.run(seed=99)
        assert a.data["measured"] == b.data["measured"]
