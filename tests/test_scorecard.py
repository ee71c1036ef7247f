"""Tests for the paper-fidelity scorecard and its paper-target data.

The simulations run at tiny scale, so these tests assert the scorecard's
*machinery* (grading rubric, shape-check plumbing, JSON shape, CLI exit
codes), never the tiny-input grades themselves.
"""

import json
import math

import pytest

from repro.cli import main
from repro.experiments import paper_targets as targets
from repro.experiments.figures import ALL_APPS, GEOMEAN_APPS
from repro.obs.runstore import RunStore
from repro.obs.scorecard import (
    FIGURES,
    Scorecard,
    grade_datapoint,
    ratio_error,
)


class TestRatioError:
    def test_perfect_is_one(self):
        assert ratio_error(3.0, 3.0) == 1.0

    def test_symmetric(self):
        assert ratio_error(2.0, 4.0) == ratio_error(4.0, 2.0) == 2.0

    def test_sign_miss_is_infinite(self):
        assert math.isinf(ratio_error(3.0, -1.0))
        assert math.isinf(ratio_error(3.0, 0.0))


class TestGradeRubric:
    def test_tight_band_is_a(self):
        error, grade = grade_datapoint("table4", 4.0, 4.0 * 1.10)
        assert grade == "A"

    def test_figure_budget_is_b(self):
        error, grade = grade_datapoint("table4", 4.0, 4.0 * 1.40)
        assert grade == "B"

    def test_same_side_of_pivot_is_c(self):
        # Off by 3x but both sides agree "faster than the baseline".
        error, grade = grade_datapoint("table4", 4.0, 4.0 / 3.0, pivot=1.0)
        assert grade == "C"

    def test_crossing_the_pivot_caps_the_grade(self):
        # The paper says speedup, we measured a slowdown: direction miss.
        # Numerically close still caps at C; beyond budget it is an F.
        _, near = grade_datapoint("table4", 1.2, 0.9, pivot=1.0)
        _, far = grade_datapoint("table4", 2.0, 0.9, pivot=1.0)
        assert near == "C"
        assert far == "F"

    def test_without_pivot_triple_budget_is_c_then_f(self):
        budget = targets.ERROR_BUDGETS["fig8"]["budget"]
        _, grade_c = grade_datapoint("fig8", 1.0, 1.0 + 2 * budget)
        _, grade_f = grade_datapoint("fig8", 1.0, 1.0 + 4 * budget)
        assert grade_c == "C"
        assert grade_f == "F"


class TestPaperTargets:
    def test_table4_covers_every_kernel(self):
        assert set(targets.TABLE4_SPEEDUP_VS_IV) == set(ALL_APPS)
        for row in targets.TABLE4_SPEEDUP_VS_IV.values():
            assert set(row) == {"DV", "E-1", "E-8", "E-32"}
            assert all(v > 0 for v in row.values())

    def test_table4_geomean_matches_the_paper_headline(self):
        assert targets.TABLE4_GEOMEAN_VS_IV["E-8"] == 4.59

    def test_fig6_derived_targets_are_flagged(self):
        assert set(targets.FIG6_DERIVED) < set(targets.FIG6_GEOMEAN_VS_IO)

    def test_known_deviations_lookup(self):
        assert targets.is_known_deviation("fig8", "k-means")
        assert targets.deviation_note("fig8", "k-means")
        assert not targets.is_known_deviation("table4", "vvadd")
        assert targets.deviation_note("table4", "vvadd") == ""

    def test_error_budgets_cover_every_graded_figure(self):
        assert set(targets.ERROR_BUDGETS) >= {"fig6", "table4", "fig8"}
        for budgets in targets.ERROR_BUDGETS.values():
            assert 0 < budgets["tight"] < budgets["budget"]


class TestScorecardAggregation:
    def test_geomean_and_grade_counts(self):
        card = Scorecard(figures=("table4",), apps=("vvadd",))
        card.add_datapoint("table4", "vvadd", "DV", 4.0, 4.0)
        card.add_datapoint("table4", "vvadd", "E-8", 2.0, 4.0)
        assert card.geomean_error() == pytest.approx(math.sqrt(2.0))
        counts = card.grade_counts()
        assert counts["A"] == 1
        assert sum(counts.values()) == 2

    def test_known_deviation_excluded_from_core_geomean(self):
        card = Scorecard(figures=("fig8",), apps=("k-means",))
        card.add_datapoint("fig8", "k-means", "stall", 0.45, 0.045)
        card.add_datapoint("fig8", "backprop", "stall", 0.93, 0.93)
        assert card.entries[0].known_deviation
        assert card.geomean_error() > card.geomean_error(core_only=True)

    def test_failed_gating_check_fails_the_verdict(self):
        card = Scorecard(figures=("fig6",), apps=())
        card.add_check("fig6", "always true", True)
        assert card.passed
        card.add_check("fig6", "advisory miss", False, gate=False)
        assert card.passed
        card.add_check("fig6", "gating miss", False)
        assert not card.passed

    def test_geomean_over_budget_fails_the_verdict(self):
        card = Scorecard(figures=("table4",), apps=("vvadd",))
        bad = targets.GEOMEAN_ERROR_BUDGET * 2
        card.add_datapoint("table4", "vvadd", "DV", 1.0, bad)
        assert not card.passed

    def test_kernel_summary_groups(self):
        card = Scorecard(figures=("table4",), apps=("vvadd",))
        card.add_datapoint("table4", "vvadd", "DV", 4.0, 4.0)
        card.add_datapoint("table4", "vvadd", "E-8", 4.0, 4.0)
        rows = card.kernel_summary()
        assert len(rows) == 1
        assert rows[0]["grades"] == "AA"
        assert rows[0]["geomean_error"] == pytest.approx(1.0)

    def test_json_shape(self):
        card = Scorecard(figures=("table4",), apps=("vvadd",), tiny=True)
        card.add_datapoint("table4", "vvadd", "DV", 4.0, 4.1)
        card.add_check("table4", "shape", True)
        doc = card.to_json_dict()
        assert doc["tiny"] is True
        assert set(doc) >= {"entries", "checks", "kernel_summary", "grades",
                            "geomean_error", "geomean_error_core",
                            "failed_checks", "passed"}
        assert doc["entries"][0]["grade"] in "ABCF"


class TestScorecardCli:
    """``repro scorecard`` end-to-end at tiny scale (machinery only)."""

    def test_json_output_shape(self, capsys):
        code = main(["scorecard", "--tiny", "--no-cache", "--json",
                     "--apps", "vvadd", "--figures", "table4"])
        assert code == 0    # no --gate: tiny grades never fail the build
        doc = json.loads(capsys.readouterr().out)
        assert doc["figures"] == ["table4"]
        assert doc["apps"] == ["vvadd"]
        assert doc["tiny"] is True
        kernels = {e["kernel"] for e in doc["entries"]}
        assert "vvadd" in kernels
        assert isinstance(doc["passed"], bool)

    def test_table_output_mentions_verdict(self, capsys):
        assert main(["scorecard", "--tiny", "--no-cache",
                     "--apps", "vvadd", "--figures", "table4"]) == 0
        out = capsys.readouterr().out
        assert "fidelity verdict" in out
        assert "geomean error" in out
        assert "tiny inputs" in out

    def test_figures_outside_requested_apps_are_skipped(self, capsys):
        # vvadd is not a Figure 7 kernel, so restricting to it leaves
        # fig7 with nothing to run (and nothing in the report).
        assert "vvadd" not in GEOMEAN_APPS
        code = main(["scorecard", "--tiny", "--no-cache", "--json",
                     "--apps", "vvadd", "--figures", "fig7"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"] == [] and doc["checks"] == []

    def test_record_appends_to_store(self, tmp_path, capsys):
        store_dir = str(tmp_path / "runs")
        code = main(["scorecard", "--tiny", "--no-cache", "--apps", "vvadd",
                     "--figures", "table4", "--record",
                     "--store", store_dir])
        assert code == 0
        record = RunStore(store_dir).latest(kind="scorecard")
        assert record.tiny
        assert record.extra["scorecard"]["figures"] == ["table4"]

    def test_json_out_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "scorecard.json"
        assert main(["scorecard", "--tiny", "--no-cache", "--apps", "vvadd",
                     "--figures", "table4",
                     "--json-out", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["figures"] == ["table4"]

    def test_all_figures_are_valid_choices(self):
        assert set(FIGURES) == {"fig6", "table4", "fig7", "fig8"}
