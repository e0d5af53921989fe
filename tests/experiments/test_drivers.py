"""Smoke tests for the figure, table and ablation artefacts.

Each artefact runs at a tiny effort and must return well-formed,
paper-comparable output.  Shape assertions (who wins) are reserved for
the benchmarks, which run at higher effort; here we assert structure
and basic sanity so the artefacts stay correct under refactoring.
"""

import pytest

from repro.experiments.common import Effort
from repro.experiments.evaluation import run_artefact

TINY = Effort(runs=1, sim_time=120.0, message_count=20)


class TestFig1:
    def test_structure_and_story(self):
        # Five static topologies per effort run.
        result = run_artefact("fig1", TINY, seed=1)
        assert result.xs == [250.0, 100.0]
        comp_250, comp_100 = result.series["components"]
        assert comp_250.mean < comp_100.mean  # 250 m far more connected
        frac_250, frac_100 = result.series["reachable_pair_fraction"]
        assert frac_250.mean > frac_100.mean
        assert "fig1" in result.render()


class TestFig3:
    @pytest.mark.slow
    def test_returns_one_latency_per_interval(self):
        result = run_artefact("fig3", TINY, values=(0.6, 1.2))
        assert result.xs == [0.6, 1.2]
        assert len(result.series["glr_latency_s"]) == 2
        for ci in result.series["glr_latency_s"]:
            assert ci.mean >= 0.0


class TestLoadFigures:
    @pytest.mark.slow
    def test_fig5_structure(self):
        result = run_artefact("fig5", TINY, values=(10, 20))
        assert result.xs == [10.0, 20.0]
        assert set(result.series) == {"glr_latency_s", "epidemic_latency_s"}

    @pytest.mark.slow
    def test_fig4_uses_50m(self):
        result = run_artefact("fig4", TINY, values=(10,))
        assert "50m" in result.title


class TestFig6:
    @pytest.mark.slow
    def test_latency_decreases_with_radius(self):
        result = run_artefact("fig6", TINY, values=(100.0, 250.0))
        glr = result.series["glr_latency_s"]
        assert glr[1].mean <= glr[0].mean * 1.5  # broadly non-increasing


class TestFig7:
    @pytest.mark.slow
    def test_delivery_ratios_in_range(self):
        result = run_artefact("fig7", TINY, values=(5, 50))
        for series in result.series.values():
            for ci in series:
                assert 0.0 <= ci.mean <= 1.0


class TestTables:
    @pytest.mark.slow
    def test_table2_has_four_rows(self):
        result = run_artefact("table2", TINY)
        assert len(result.rows) == 4
        rendered = result.render()
        assert "all nodes know" in rendered
        assert "no nodes know" in rendered

    @pytest.mark.slow
    def test_table3_custody_rows(self):
        result = run_artefact("table3", TINY)
        labels = [row[0] for row in result.rows]
        assert labels == ["without", "with"]

    @pytest.mark.slow
    def test_table4_rows_per_load(self):
        result = run_artefact("table4", TINY, values=(10, 20))
        assert [row[0] for row in result.rows] == ["10", "20"]

    @pytest.mark.slow
    def test_table5_rows_per_radius(self):
        result = run_artefact("table5", TINY, values=(250.0, 100.0))
        assert [row[0] for row in result.rows] == ["250", "100"]

    @pytest.mark.slow
    def test_table6_has_both_protocols(self):
        result = run_artefact("table6", TINY, values=(150.0,))
        assert result.headers == ["radius_m", "glr_hops", "epidemic_hops"]
        assert len(result.rows) == 1


class TestAblations:
    @pytest.mark.slow
    def test_copies_ablation_includes_algorithm1(self):
        # None is Algorithm 1's adaptive decision.
        result = run_artefact("ablation-copies", TINY, values=(1, None))
        labels = [row[0] for row in result.rows]
        assert labels == ["1", "algorithm-1"]

    @pytest.mark.slow
    def test_spanner_ablation_rows(self):
        result = run_artefact("ablation-spanner", TINY)
        assert [row[0] for row in result.rows] == ["ldt", "udg"]

    @pytest.mark.slow
    def test_protocol_comparison_covers_all(self):
        result = run_artefact("ablation-protocols", TINY)
        assert len(result.rows) == 5
