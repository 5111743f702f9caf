"""Configs, tasks and grids are frozen and checked when built: a bad
field raises from the constructor and from ``dataclasses.replace``."""
import dataclasses
import re

import numpy as np
import pytest

from instasim.errors import DuplicateId, InvalidInput
from instasim.losses import LossConfig
from instasim.protocols import RetrievalTask, TripletTask
from instasim.sensitivity import EditGrid, GridPoint
from instasim.sinkhorn import SinkhornConfig
from instasim.trainer import TrainConfig

NAN, INF = float("nan"), float("inf")


def _pt(image_id="x", identity=1.0, factor=0.0, name="f"):
    return GridPoint(image_id, identity, factor, name)


# keyword arguments of one valid instance of each type
VALID = {
    SinkhornConfig: {},
    LossConfig: {},
    TrainConfig: {},
    RetrievalTask: {"queries": ["q"], "gallery": ["a", "b"], "relevance": {"q": {"a"}}},
    TripletTask: {"triplets": [("a", "p", "n", "EASY")]},
    EditGrid: {"anchor": "a", "points": [_pt()]},
}

TRAIN_COUNTS = "batch_size and grad_accum must be >= 1"
TRAIN_RATES = "lr and weight_decay must be finite and non-negative"
NO_QUERIES = "retrieval task needs queries and a gallery"

# (type, field, bad value, error class, the whole message)
BAD = [
    (SinkhornConfig, "epsilon", 0.0, InvalidInput, "epsilon must be positive and finite, got 0.0"),
    (SinkhornConfig, "epsilon", NAN, InvalidInput, "epsilon must be positive and finite, got nan"),
    (SinkhornConfig, "epsilon", INF, InvalidInput, "epsilon must be positive and finite, got inf"),
    (SinkhornConfig, "max_iters", 0, InvalidInput, "max_iters must be >= 1, got 0"),
    (SinkhornConfig, "max_iters", 2.5, InvalidInput, "max_iters must be >= 1, got 2.5"),
    (SinkhornConfig, "max_iters", True, InvalidInput, "max_iters must be >= 1, got True"),
    (SinkhornConfig, "max_iters", np.int64(50), InvalidInput,
     "max_iters must be >= 1, got np.int64(50)"),
    (SinkhornConfig, "tol", -1e-6, InvalidInput, "tol must be positive and finite, got -1e-06"),
    (SinkhornConfig, "tol", INF, InvalidInput, "tol must be positive and finite, got inf"),
    (SinkhornConfig, "max_tokens", 0, InvalidInput, "max_tokens must be >= 1, got 0"),
    (SinkhornConfig, "max_tokens", 8.0, InvalidInput, "max_tokens must be >= 1, got 8.0"),
    (LossConfig, "tau", 0.0, InvalidInput, "tau must be positive and finite, got 0.0"),
    (LossConfig, "tau", INF, InvalidInput, "tau must be positive and finite, got inf"),
    (LossConfig, "lam", -0.5, InvalidInput, "lambda must be non-negative and finite, got -0.5"),
    (LossConfig, "lam", NAN, InvalidInput, "lambda must be non-negative and finite, got nan"),
    (LossConfig, "margin", -0.1, InvalidInput, "margin must be non-negative and finite, got -0.1"),
    (LossConfig, "objective", "SOFTMAX", InvalidInput,
     "objective must be one of ('INFONCE', 'HINGE', 'BCE'), got 'SOFTMAX'"),
    (LossConfig, "patch_metric", "CHAMFER", InvalidInput,
     "patch_metric must be one of ('SINKHORN', 'COSINE_MEANPOOL'), got 'CHAMFER'"),
    (TrainConfig, "lr", -1e-3, InvalidInput, TRAIN_RATES),
    (TrainConfig, "weight_decay", NAN, InvalidInput, TRAIN_RATES),
    (TrainConfig, "batch_size", 0, InvalidInput, TRAIN_COUNTS),
    (TrainConfig, "batch_size", True, InvalidInput, TRAIN_COUNTS),
    (TrainConfig, "grad_accum", 0, InvalidInput, TRAIN_COUNTS),
    (TrainConfig, "grad_accum", 2.0, InvalidInput, TRAIN_COUNTS),
    (TrainConfig, "epochs", -1, InvalidInput, "epochs must be >= 0"),
    (TrainConfig, "epochs", 1.5, InvalidInput, "epochs must be >= 0"),
    (TrainConfig, "hidden_dim", 0, InvalidInput, "hidden_dim must be >= 1"),
    (TrainConfig, "hidden_dim", False, InvalidInput, "hidden_dim must be >= 1"),
    (TrainConfig, "activation", "relu", InvalidInput,
     "activation must be one of ('gelu', 'identity'), got 'relu'"),
    (RetrievalTask, "queries", [], InvalidInput, NO_QUERIES),
    (RetrievalTask, "gallery", [], InvalidInput, NO_QUERIES),
    (RetrievalTask, "queries", ["q", "q"], DuplicateId, "duplicate query ids"),
    (RetrievalTask, "gallery", ["a", "a"], DuplicateId, "duplicate gallery ids"),
    (RetrievalTask, "relevance", {}, InvalidInput, "query 'q' has no relevant gallery items"),
    (RetrievalTask, "relevance", {"q": set()}, InvalidInput,
     "query 'q' has no relevant gallery items"),
    (RetrievalTask, "relevance", {"q": {"elsewhere"}}, InvalidInput,
     "query 'q' lists relevant ids outside the gallery"),
    (TripletTask, "triplets", [], InvalidInput, "triplet task is empty"),
    (TripletTask, "triplets", [("a", "p", "n", "MEDIUM")], InvalidInput,
     "unknown triplet mode 'MEDIUM'"),
    (EditGrid, "points", [], InvalidInput, "grid 'a' has no points"),
    (EditGrid, "points", [_pt("x", name="f1"), _pt("y", name="f2")], InvalidInput,
     "grid 'a' mixes factors ['f1', 'f2']"),
    (EditGrid, "points", [_pt(identity=NAN)], InvalidInput, "grid 'a' has non-finite coordinates"),
    (EditGrid, "points", [_pt(factor=INF)], InvalidInput, "grid 'a' has non-finite coordinates"),
]


@pytest.mark.parametrize("cls", VALID, ids=lambda c: c.__name__)
def test_valid_values_build(cls):
    cls(**VALID[cls])


@pytest.mark.parametrize(
    "cls, name, value, error, message",
    BAD,
    ids=[f"{c.__name__}.{n}={v!r}" for c, n, v, _, _ in BAD],
)
def test_bad_field_raises_when_built_and_when_replaced(cls, name, value, error, message):
    whole = "^" + re.escape(message) + "$"
    with pytest.raises(error, match=whole):
        cls(**{**VALID[cls], name: value})
    with pytest.raises(error, match=whole):
        dataclasses.replace(cls(**VALID[cls]), **{name: value})


@pytest.mark.parametrize("cls", VALID, ids=lambda c: c.__name__)
def test_fields_are_frozen(cls):
    obj = cls(**VALID[cls])
    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))


def test_edit_grid_factor_name_is_its_points_factor():
    assert EditGrid("a", [_pt("x", name="blur"), _pt("y", name="blur")]).factor_name == "blur"


def test_containers_are_read_only():
    t = TripletTask([("q", "n", "f", "EASY")])
    with pytest.raises(AttributeError):
        t.triplets.append(("q", "n", "f", "MEDIUM"))
    r = RetrievalTask(**VALID[RetrievalTask])
    with pytest.raises(AttributeError):
        r.queries.append("x")
    with pytest.raises(AttributeError):
        r.gallery.append("x")
    with pytest.raises(TypeError):
        r.relevance["x"] = {"a"}
    with pytest.raises(AttributeError):
        r.relevance["q"].add("elsewhere")
    g = EditGrid(**VALID[EditGrid])
    with pytest.raises(AttributeError):
        g.points.append(_pt(name="other"))


def test_containers_are_copied_when_built():
    queries, relevance = ["q"], {"q": {"a"}}
    r = RetrievalTask(queries, ["a", "b"], relevance)
    queries.append("q2")
    relevance["q"].add("elsewhere")
    assert r.queries == ("q",) and r.relevance == {"q": frozenset({"a"})}
