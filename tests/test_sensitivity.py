"""Sensitivity regression: exact recovery, bootstrap behaviour, trends."""
import csv
import json

import numpy as np
import pytest

from instasim.bundle import make_bundle
from instasim.errors import FormatError, InvalidInput, SingularDesign
from instasim.reporting import canonical_json
from instasim.sensitivity import (
    EditGrid,
    GridPoint,
    analyze_grids,
    bootstrap_aggregate,
    fit_instance,
    grid_scores,
    load_grids,
    similarity_trend,
    write_trend_csv,
)


def _point(image_id, factor, identity, name="viewpoint"):
    return GridPoint(
        image_id=image_id,
        identity_change=identity,
        factor_change=factor,
        factor_name=name,
    )


def _exact_grid():
    """Integer 2-D embeddings whose cosines against [5, 0] are exact
    rationals realizing sim = 1 - 0.1 * factor - 0.5 * identity."""
    vecs = {
        "anchor": [5, 0],
        "p1": [4, 3],  # cos 0.8  = 1 - 0.1 * 2
        "p2": [3, 4],  # cos 0.6  = 1 - 0.1 * 4
        "p3": [8, -6],  # cos 0.8  = 1 + 0.3 - 0.5
        "p4": [6, -8],  # cos 0.6  = 1 + 0.1 - 0.5
        "p5": [24, 7],  # cos 0.96 = 1 - 0.04
        "p6": [7, 24],  # cos 0.28 = 1 - 0.22 - 0.5
    }
    items = {
        k: np.asarray(v, dtype=np.float32).reshape(1, 2) for k, v in vecs.items()
    }
    bundle = make_bundle("CLS", 2, items)
    grid = EditGrid(
        anchor="anchor",
        points=[
            _point("p1", 2.0, 0.0),
            _point("p2", 4.0, 0.0),
            _point("p3", -3.0, 1.0),
            _point("p4", -1.0, 1.0),
            _point("p5", 0.4, 0.0),
            _point("p6", 2.2, 1.0),
        ],
    )
    return grid, bundle


def _planted_instance(rng, anchor_id, betas, levels, noise=0.0, dim=16, name="viewpoint"):
    """Build one grid plus embeddings realizing sim = b0 + bf*f + bi*i.

    Each target cosine t is embedded exactly as t * a + sqrt(1-t^2) * u
    with u unit and orthogonal to the anchor direction a.
    """
    b0, bf, bi = betas
    a = rng.normal(size=dim)
    a /= np.linalg.norm(a)
    items = {anchor_id: a.astype(np.float32).reshape(1, -1)}
    points = []
    for k, (f, i) in enumerate(levels):
        t = b0 + bf * f + bi * i + (noise * rng.normal() if noise else 0.0)
        assert abs(t) <= 1.0
        u = rng.normal(size=dim)
        u -= (u @ a) * a
        u /= np.linalg.norm(u)
        v = t * a + np.sqrt(max(0.0, 1.0 - t * t)) * u
        image_id = f"{anchor_id}_pt{k}"
        items[image_id] = v.astype(np.float32).reshape(1, -1)
        points.append(_point(image_id, f, i, name=name))
    return EditGrid(anchor=anchor_id, points=points), items


class TestFitInstance:
    def test_exact_recovery_of_planted_coefficients(self):
        grid, bundle = _exact_grid()
        fit = fit_instance(grid, grid_scores([grid], bundle))
        assert abs(fit.beta0 - 1.0) < 1e-10
        assert abs(fit.beta_factor - (-0.1)) < 1e-10
        assert abs(fit.beta_identity - (-0.5)) < 1e-10
        assert fit.r2 > 1.0 - 1e-12
        assert fit.factor_name == "viewpoint"

    def test_implicit_anchor_row_completes_the_design(self, rng):
        # these three points are affinely dependent ((0.5, 0.5) is the
        # midpoint of (1, 0) and (0, 1)), so the explicit rows alone are
        # rank 2; only the implicit anchor point at (0, 0) makes the fit
        # identifiable, and it pins the intercept at the self-similarity
        levels = [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)]
        grid, items = _planted_instance(rng, "inst0", betas=(1.0, -0.1, -0.5), levels=levels)
        bundle = make_bundle("CLS", 16, items)
        fit = fit_instance(grid, grid_scores([grid], bundle))
        assert abs(fit.beta0 - 1.0) < 1e-5
        assert abs(fit.beta_factor - (-0.1)) < 1e-5
        assert abs(fit.beta_identity - (-0.5)) < 1e-5

    def test_constant_similarity_gives_zero_r2_by_convention(self):
        vecs = {"anchor": [5, 0], "c1": [1, 0], "c2": [2, 0], "c3": [10, 0]}
        items = {k: np.asarray(v, dtype=np.float32).reshape(1, 2) for k, v in vecs.items()}
        bundle = make_bundle("CLS", 2, items)
        grid = EditGrid(
            anchor="anchor",
            points=[_point("c1", 1.0, 0.0), _point("c2", 0.0, 1.0), _point("c3", 2.0, 1.0)],
        )
        fit = fit_instance(grid, grid_scores([grid], bundle))
        assert fit.r2 == 0.0
        assert abs(fit.beta0 - 1.0) < 1e-12
        assert abs(fit.beta_factor) < 1e-12
        assert abs(fit.beta_identity) < 1e-12

    def test_collinear_design_raises(self):
        # no identity variation anywhere: the identity column is zero
        vecs = {"anchor": [5, 0], "d1": [4, 3], "d2": [3, 4]}
        items = {k: np.asarray(v, dtype=np.float32).reshape(1, 2) for k, v in vecs.items()}
        bundle = make_bundle("CLS", 2, items)
        grid = EditGrid(
            anchor="anchor", points=[_point("d1", 1.0, 0.0), _point("d2", 2.0, 0.0)]
        )
        with pytest.raises(SingularDesign):
            fit_instance(grid, grid_scores([grid], bundle))

    def test_noisy_grid_recovers_within_tolerance(self, rng):
        # (0, 0) is left to the implicit anchor row; planted intercept 1
        # keeps the cloud consistent with the self-similarity point
        levels = [
            (f, i) for f in (0.0, 1.0, 2.0) for i in (0.0, 0.5, 1.0) if (f, i) != (0.0, 0.0)
        ]
        grid, items = _planted_instance(
            rng, "inst0", betas=(1.0, -0.1, -0.3), levels=levels, noise=0.005
        )
        bundle = make_bundle("CLS", 16, items)
        fit = fit_instance(grid, grid_scores([grid], bundle))
        assert abs(fit.beta_factor - (-0.1)) < 0.02
        assert abs(fit.beta_identity - (-0.3)) < 0.04
        assert fit.r2 > 0.95

    def test_grid_validation(self):
        with pytest.raises(InvalidInput):
            EditGrid(anchor="a", points=[])
        with pytest.raises(InvalidInput):
            EditGrid(
                anchor="a",
                points=[_point("x", 1.0, 0.0, name="f1"), _point("y", 1.0, 0.0, name="f2")],
            )
        with pytest.raises(InvalidInput):
            EditGrid(anchor="a", points=[_point("x", np.nan, 0.0)])


class TestBootstrapAggregate:
    def _fits(self, rng, n_inst=8, spread=0.01):
        levels = [
            (f, i) for f in (0.0, 1.0, 2.0) for i in (0.0, 0.5, 1.0) if (f, i) != (0.0, 0.0)
        ]
        fits = []
        all_items = {}
        for k in range(n_inst):
            grid, items = _planted_instance(
                rng, f"inst{k}", betas=(1.0, -0.1, -0.3), levels=levels, noise=spread
            )
            all_items.update(items)
            bundle = make_bundle("CLS", 16, items)
            fits.append(fit_instance(grid, grid_scores([grid], bundle)))
        return fits

    def test_recovers_planted_sensitivities(self, rng):
        fits = self._fits(rng)
        report = bootstrap_aggregate(fits, n_boot=500, seed=0)
        factor = report["factors"]["viewpoint"]
        assert abs(factor["mean"] - 0.1) < 0.02
        assert factor["ci_low"] < 0.1 < factor["ci_high"]
        assert factor["n_instances"] == 8
        identity = report["identity"]
        assert abs(identity["mean"] - 0.3) < 0.04
        assert report["n_boot"] == 500

    def test_deterministic_and_order_free(self, rng):
        fits = self._fits(rng, n_inst=5)
        r1 = bootstrap_aggregate(fits, n_boot=200, seed=3)
        r2 = bootstrap_aggregate(list(reversed(fits)), n_boot=200, seed=3)
        assert canonical_json(r1) == canonical_json(r2)
        r3 = bootstrap_aggregate(fits, n_boot=200, seed=4)
        assert canonical_json(r1) != canonical_json(r3)

    def test_stat_block_keys(self, rng):
        fits = self._fits(rng, n_inst=3)
        report = bootstrap_aggregate(fits, n_boot=50, seed=0)
        for block in (report["factors"]["viewpoint"], report["identity"]):
            assert set(block) == {"mean", "std", "ci_low", "ci_high", "n_instances"}
            assert block["ci_low"] <= block["mean"] <= block["ci_high"]

    def test_single_instance_pool_rejected(self, rng):
        fits = self._fits(rng, n_inst=1) * 2  # same anchor twice pools to one
        with pytest.raises(InvalidInput):
            bootstrap_aggregate(fits, n_boot=10)

    def test_empty_and_bad_nboot(self, rng):
        with pytest.raises(InvalidInput):
            bootstrap_aggregate([], n_boot=10)
        fits = self._fits(rng, n_inst=2)
        with pytest.raises(InvalidInput):
            bootstrap_aggregate(fits, n_boot=0)


class TestTrend:
    def test_monotone_decay_and_group_by(self, rng):
        levels = [(float(f), 0.0) for f in range(4)]
        grids = []
        all_items = {}
        for k in range(3):
            grid, items = _planted_instance(
                rng, f"inst{k}", betas=(0.95, -0.15, 0.0), levels=levels
            )
            grids.append(grid)
            all_items.update(items)
        bundle = make_bundle("CLS", 16, all_items)
        trend = similarity_trend(grids, "viewpoint", grid_scores(grids, bundle))
        assert [lvl for lvl, _, _ in trend] == [0.0, 1.0, 2.0, 3.0]
        assert all(count == 3 for _, _, count in trend)
        means = [m for _, m, _ in trend]
        assert all(a > b for a, b in zip(means, means[1:]))
        for lvl, mean, _ in trend:
            assert abs(mean - (0.95 - 0.15 * lvl)) < 1e-6

    def test_unknown_factor_rejected(self, rng):
        grid, items = _planted_instance(
            rng, "inst0", betas=(0.9, -0.1, 0.0), levels=[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
        )
        bundle = make_bundle("CLS", 16, items)
        with pytest.raises(InvalidInput):
            similarity_trend([grid], "lighting", grid_scores([grid], bundle))

    def test_trend_csv_layout(self, tmp_path):
        path = tmp_path / "trend.csv"
        write_trend_csv(
            path,
            {"viewpoint": [(0.0, 0.5, 3), (1.0, 0.25, 3)], "blur": [(0.0, 0.9, 1)]},
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "factor,level,mean_similarity,count"
        assert lines[1].startswith("blur,0.0,")
        assert lines[2] == "viewpoint,0.0,0.5,3"
        assert len(lines) == 4

    def test_trend_csv_quotes_a_factor_name_that_needs_it(self, tmp_path):
        path = tmp_path / "trend.csv"
        names = ["light, warm", "two\nlines", "plain"]
        write_trend_csv(path, {name: [(0.0, 0.5, 3)] for name in names})
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["factor", "level", "mean_similarity", "count"]
        assert rows[1:] == [[name, "0.0", "0.5", "3"] for name in sorted(names)]
        assert "\nplain,0.0,0.5,3\n" in path.read_text(encoding="utf-8")

    def test_trend_csv_rejects_a_lone_carriage_return_before_opening(self, tmp_path):
        path = tmp_path / "trend.csv"
        with pytest.raises(InvalidInput, match="lone carriage return"):
            write_trend_csv(path, {"plain": [(0.0, 0.5, 3)], "a\rb": [(0.0, 0.5, 3)]})
        assert list(tmp_path.iterdir()) == []
        # a CRLF pair holds a newline, so the writer quotes it and the row survives
        write_trend_csv(path, {"a\r\nb": [(0.0, 0.5, 3)]})
        with open(path, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh))[1:] == [["a\r\nb", "0.0", "0.5", "3"]]


class TestGridIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "grids.jsonl"
        path.write_text(
            '{"anchor": "a", "points": [{"image_id": "x", "identity_change": 0.0, '
            '"factor_change": 1.0, "factor_name": "blur"}]}\n'
        )
        grids = load_grids(path)
        assert len(grids) == 1
        assert grids[0].anchor == "a"
        assert grids[0].points[0] == _point("x", 1.0, 0.0, name="blur")

    def test_lone_carriage_return_in_a_factor_name_names_its_line(self, tmp_path):
        path = tmp_path / "grids.jsonl"
        point = {"image_id": "x", "identity_change": 0, "factor_change": 1, "factor_name": "f"}
        lines = [{"anchor": "a", "points": [point]},
                 {"anchor": "b", "points": [{**point, "factor_name": "f\rg"}]}]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(FormatError) as exc:
            load_grids(path)
        assert str(exc.value).startswith(f"{path}:2: factor_name 'f\\rg' ")
        lines[1]["points"][0]["factor_name"] = "f\r\ng"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert load_grids(path)[1].factor_name == "f\r\ng"

    def test_loader_errors(self, tmp_path):
        path = tmp_path / "grids.jsonl"
        path.write_text("nope\n")
        with pytest.raises(FormatError):
            load_grids(path)
        path.write_text('{"anchor": "a"}\n')
        with pytest.raises(FormatError):
            load_grids(path)
        path.write_text('{"anchor": "a", "points": [{"image_id": "x"}]}\n')
        with pytest.raises(FormatError):
            load_grids(path)
        point = {"image_id": "x", "identity_change": 0, "factor_change": 1, "factor_name": "f"}
        for bad in (
            {"anchor": "a", "points": 5},
            {"anchor": "a", "points": {"x": point}},
            {"anchor": "a", "points": ["x"]},
            {"anchor": "a", "points": [{**point, "factor_change": 10**400}]},
            {"anchor": "a", "points": [{**point, "identity_change": True}]},
            {"anchor": "a", "points": [{**point, "factor_change": "1"}]},
            {"anchor": 5, "points": [point]},
            {"anchor": "a", "points": [{**point, "image_id": 5}]},
            {"anchor": "a", "points": [{**point, "factor_name": None}]},
        ):
            path.write_text(json.dumps(bad) + "\n")
            with pytest.raises(FormatError, match="grids.jsonl:1:"):
                load_grids(path)


class TestAnalyzeGrids:
    def test_report_envelope_and_determinism(self, rng):
        levels = [(f, i) for f in (0.0, 1.0) for i in (0.0, 1.0) if (f, i) != (0.0, 0.0)]
        grids = []
        all_items = {}
        for k in range(4):
            grid, items = _planted_instance(
                rng, f"inst{k}", betas=(1.0, -0.1, -0.2), levels=levels
            )
            grids.append(grid)
            all_items.update(items)
        bundle = make_bundle("CLS", 16, all_items)
        report = analyze_grids(grids, grid_scores(grids, bundle), n_boot=100, seed=1)
        assert set(report) == {
            "config_hash",
            "factors",
            "format_version",
            "identity",
            "n_boot",
            "per_instance",
            "seed",
            "tool_version",
        }
        assert len(report["per_instance"]) == 4
        again = analyze_grids(grids, grid_scores(grids, bundle), n_boot=100, seed=1)
        assert canonical_json(report) == canonical_json(again)

    def test_empty_rejected(self, rng):
        with pytest.raises(InvalidInput):
            analyze_grids([], {})
