"""Selective-sensitivity analysis over joint edit grids.

Each grid anchors one instance and varies its images jointly along
identity change and one contextual factor. Anchor similarity is
regressed as

    sim_i = beta0 + beta_factor * factor_change_i + beta_identity * identity_change_i

by ordinary least squares with an intercept; sensitivity to a
dimension is the negative slope, so similarity falling as a factor
grows reads as positive sensitivity. The anchor itself enters the
regression as the implicit point (factor 0, identity 0) with its own
self-similarity.

Instance-level sensitivities are aggregated per factor by bootstrap
resampling instances with replacement; identity sensitivity is pooled
as each instance's mean identity slope across its grids.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .bundle import EmbeddingBundle
from .errors import FormatError, InvalidInput, SingularDesign
from .records import _require_str
from .reporting import atomic_write, iter_jsonl, report_envelope
from .rng import derived_rng
from .protocols import score_pairs
from .sinkhorn import SinkhornConfig

IDENTITY_KEY = "identity"


@dataclass(frozen=True)
class GridPoint:
    image_id: str
    identity_change: float
    factor_change: float
    factor_name: str


@dataclass(frozen=True)
class EditGrid:
    anchor: str
    points: tuple[GridPoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise InvalidInput(f"grid {self.anchor!r} has no points")
        names = {p.factor_name for p in self.points}
        if len(names) != 1:
            raise InvalidInput(f"grid {self.anchor!r} mixes factors {sorted(names)}")
        for p in self.points:
            if not np.isfinite(p.identity_change) or not np.isfinite(p.factor_change):
                raise InvalidInput(f"grid {self.anchor!r} has non-finite coordinates")

    @property
    def factor_name(self) -> str:
        return self.points[0].factor_name


@dataclass(frozen=True)
class InstanceFit:
    anchor: str
    factor_name: str
    beta0: float
    beta_factor: float
    beta_identity: float
    r2: float


def load_grids(path) -> list[EditGrid]:
    """Grid JSONL: {"anchor": id, "points": [{"image_id", "identity_change",
    "factor_change", "factor_name"}, ...]} per line."""
    grids: list[EditGrid] = []
    for lineno, obj in iter_jsonl(path):
        points = obj.get("points")
        if not isinstance(points, list):
            raise FormatError(f"{path}:{lineno}: need anchor and a points array")
        try:
            points = [
                GridPoint(
                    image_id=_require_str(p, "image_id", path, lineno),
                    identity_change=_grid_number(p, "identity_change", path, lineno),
                    factor_change=_grid_number(p, "factor_change", path, lineno),
                    factor_name=_factor_name(p, path, lineno),
                )
                for p in points
            ]
        except (KeyError, TypeError, OverflowError) as exc:
            raise FormatError(f"{path}:{lineno}: bad grid point: {exc}") from exc
        grids.append(EditGrid(anchor=_require_str(obj, "anchor", path, lineno), points=points))
    return grids


def _lone_cr(name: str) -> bool:
    """Whether ``name`` holds a carriage return outside a CRLF pair: the
    trend CSV writes such a name unquoted, and a CSV reader ends the row
    at that return."""
    return "\r" in name.replace("\r\n", "")


def _factor_name(point: dict, path, lineno) -> str:
    name = _require_str(point, "factor_name", path, lineno)
    if _lone_cr(name):
        raise FormatError(f"{path}:{lineno}: factor_name {name!r} holds a lone carriage return")
    return name


def _grid_number(point: dict, key: str, path, lineno) -> float:
    val = point[key]
    # bool is an int subclass; a grid coordinate is a JSON number only
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise FormatError(f"{path}:{lineno}: {key} must be a number")
    return float(val)


def grid_scores(
    grids: list[EditGrid],
    bundle: EmbeddingBundle,
    sink_cfg: SinkhornConfig = SinkhornConfig(),
) -> dict[tuple[str, str], float]:
    """Anchor similarity of every (anchor, image) pair the grids use, the
    anchor's pair with itself included. One engine pass scores them all,
    so fits and trends over the same grids share each pair and each
    item's self term."""
    pairs = list(dict.fromkeys(
        (g.anchor, image_id) for g in grids for image_id in [g.anchor] + [p.image_id for p in g.points]
    ))
    return dict(zip(pairs, score_pairs(bundle, pairs, sink_cfg)))


def _design_and_targets(grid: EditGrid, scores: dict[tuple[str, str], float]):
    rows = [(0.0, 0.0, scores[grid.anchor, grid.anchor])]
    for p in grid.points:
        rows.append((p.factor_change, p.identity_change, scores[grid.anchor, p.image_id]))
    X = np.array([[1.0, f, i] for f, i, _ in rows])
    y = np.array([s for _, _, s in rows])
    return X, y


def fit_instance(grid: EditGrid, scores: dict[tuple[str, str], float]) -> InstanceFit:
    """OLS fit of anchor similarity over one grid.

    Solved by SVD least squares (rank-revealing); a design of rank < 3
    raises SingularDesign. R^2 is conventionally 0 when the target has
    zero variance. ``scores`` is a ``grid_scores`` result covering the
    grid.
    """
    X, y = _design_and_targets(grid, scores)
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        raise SingularDesign(
            f"grid {grid.anchor!r} has a rank-{rank} design; need 3 non-collinear points"
        )
    residuals = y - X @ beta
    sse = float(residuals @ residuals)
    sst = float(((y - y.mean()) ** 2).sum())
    r2 = 0.0 if sst == 0.0 else 1.0 - sse / sst
    r2 = min(max(r2, 0.0), 1.0)
    return InstanceFit(
        anchor=grid.anchor,
        factor_name=grid.factor_name,
        beta0=float(beta[0]),
        beta_factor=float(beta[1]),
        beta_identity=float(beta[2]),
        r2=r2,
    )


def _bootstrap_values(values: np.ndarray, n_boot: int, rng) -> dict:
    n = values.size
    if n < 2:
        raise InvalidInput(f"bootstrap needs >= 2 instances, got {n}")
    if n_boot < 1:
        raise InvalidInput(f"n_boot must be >= 1, got {n_boot}")
    idx = rng.integers(0, n, size=(n_boot, n))
    means = values[idx].mean(axis=1)
    ci = np.percentile(means, [2.5, 97.5])
    return {
        "mean": float(means.mean()),
        "std": float(means.std(ddof=1)) if n_boot > 1 else 0.0,
        "ci_low": float(ci[0]),
        "ci_high": float(ci[1]),
        "n_instances": int(n),
    }


def bootstrap_aggregate(fits: list[InstanceFit], n_boot: int = 1000, seed: int = 0) -> dict:
    """Aggregate per-instance fits into a SensitivityReport dict.

    For each factor, the sensitivities -beta_factor of its fits are
    resampled over instances with replacement n_boot times; the report
    carries the bootstrap mean, std (ddof 1), and the 2.5/97.5
    percentile CI. Identity sensitivity pools each instance's mean
    -beta_identity across grids and is aggregated the same way under
    the "identity" key. Instance order never matters: everything is
    sorted before resampling.
    """
    if not fits:
        raise InvalidInput("no instance fits to aggregate")
    ordered = sorted(fits, key=lambda f: (f.anchor, f.factor_name))

    by_factor: dict[str, list[tuple[str, float]]] = {}
    identity_by_instance: dict[str, list[float]] = {}
    for f in ordered:
        by_factor.setdefault(f.factor_name, []).append((f.anchor, -f.beta_factor))
        identity_by_instance.setdefault(f.anchor, []).append(-f.beta_identity)

    factors: dict[str, dict] = {}
    for factor_name in sorted(by_factor):
        pairs = sorted(by_factor[factor_name])
        values = np.array([v for _, v in pairs])
        rng = derived_rng(seed, "bootstrap", factor_name)
        factors[factor_name] = _bootstrap_values(values, n_boot, rng)

    identity_values = np.array(
        [float(np.mean(identity_by_instance[a])) for a in sorted(identity_by_instance)]
    )
    rng = derived_rng(seed, "bootstrap", IDENTITY_KEY)
    identity = _bootstrap_values(identity_values, n_boot, rng)

    return {
        "per_instance": [
            {
                "anchor": f.anchor,
                "factor_name": f.factor_name,
                "beta0": f.beta0,
                "beta_factor": f.beta_factor,
                "beta_identity": f.beta_identity,
                "r2": f.r2,
            }
            for f in ordered
        ],
        "factors": factors,
        "identity": identity,
        "n_boot": int(n_boot),
        "seed": int(seed),
    }


def similarity_trend(
    grids: list[EditGrid], factor_name: str, scores: dict[tuple[str, str], float]
) -> list[tuple[float, float, int]]:
    """Mean anchor-similarity per factor level: (level, mean, count) rows.

    Only explicit grid points contribute (no implicit anchor point), so
    a single-level grid produces a single row. ``scores`` is a
    ``grid_scores`` result covering the grids of ``factor_name``.
    """
    selected = [g for g in grids if g.factor_name == factor_name]
    if not selected:
        raise InvalidInput(f"no grids for factor {factor_name!r}")
    sims_by_level: dict[float, list[float]] = {}
    for grid in selected:
        for p in grid.points:
            sims_by_level.setdefault(p.factor_change, []).append(scores[grid.anchor, p.image_id])
    return [
        (level, float(np.mean(sims_by_level[level])), len(sims_by_level[level]))
        for level in sorted(sims_by_level)
    ]


def write_trend_csv(path, trends: dict[str, list[tuple[float, float, int]]]) -> None:
    """CSV hand-off for plotting: factor,level,mean_similarity,count; a
    factor name is quoted only when it holds a comma, quote or newline. A
    name with a lone carriage return is rejected before the file is
    opened, since it would split its row."""
    for factor_name in trends:
        if _lone_cr(factor_name):
            raise InvalidInput(f"factor name {factor_name!r} holds a lone carriage return")
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("factor", "level", "mean_similarity", "count"))
        for factor_name in sorted(trends):
            for level, mean, count in trends[factor_name]:
                writer.writerow((factor_name, repr(level), repr(mean), count))


def analyze_grids(
    grids: list[EditGrid],
    scores: dict[tuple[str, str], float],
    n_boot: int = 1000,
    seed: int = 0,
) -> dict:
    """Fit every grid, bootstrap-aggregate, and wrap as a versioned report.

    ``scores`` is a ``grid_scores`` result covering the grids.
    """
    if not grids:
        raise InvalidInput("no grids supplied")
    fits = [fit_instance(g, scores) for g in grids]
    report = bootstrap_aggregate(fits, n_boot=n_boot, seed=seed)
    params = {"n_boot": int(n_boot), "seed": int(seed), "protocol": "SENSITIVITY"}
    return {**report, **report_envelope(seed, params)}
