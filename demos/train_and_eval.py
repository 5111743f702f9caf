"""End-to-end pipeline on a synthetic instance corpus.

Builds a small world of 12 instances with 8 views each (well separated
in embedding space), writes the triplets, trains the dual projection
head, and scores the result with the retrieval and triplet protocols.
Everything is deterministic; rerunning prints identical numbers.
"""

import numpy as np

from instasim.bundle import make_bundle
from instasim.losses import LossConfig
from instasim.protocols import RetrievalTask, TripletTask, run_protocol
from instasim.records import ImageManifest, Triplet
from instasim.trainer import TrainConfig, train

N_INST, N_IMG, DIM = 12, 8, 24


def build_world(seed=7):
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(N_INST, DIM)) * 6.0
    items, manifests = {}, []
    for k in range(N_INST):
        split = "train" if k < 10 else "val"
        for j in range(N_IMG):
            iid = "obj%02d-%d" % (k, j)
            items[iid] = means[k] + rng.normal(size=DIM)
            manifests.append(
                ImageManifest(
                    image_id=iid,
                    instance_id="obj%02d" % k,
                    dataset_id="demo",
                    subset="S1",
                    split=split,
                )
            )
    triplets = []
    for k in range(N_INST):
        for j in range(N_IMG - 1):
            triplets.append(
                Triplet(
                    anchor="obj%02d-%d" % (k, j),
                    positive="obj%02d-%d" % (k, j + 1),
                    hard_negative="obj%02d-%d" % ((k + 1) % N_INST, j),
                    hard_negative_kind="MINED_REAL",
                )
            )
    return manifests, make_bundle("CLS", DIM, items), triplets


def main():
    manifests, bundle, triplets = build_world()
    print("corpus: %d instances x %d views, dim %d" % (N_INST, N_IMG, DIM))
    print("triplets: %d (anchors from both splits)" % len(triplets))

    cfg = TrainConfig(epochs=3, hidden_dim=64, loss=LossConfig(lam=0.0))
    result = train(manifests, bundle, triplets, cfg)
    for row in result.history:
        print(
            "  epoch %d  train_loss %.4f  val_accuracy %.3f"
            % (row["epoch"], row["train_loss"], row["val_accuracy"])
        )
    print("best epoch: %d" % result.best_epoch)

    # score the raw embeddings with the evaluation protocols; the
    # trained head is exercised by the trainer's own validation above
    gallery = ["obj%02d-%d" % (k, j) for k in range(N_INST) for j in range(4)]
    queries = ["obj%02d-7" % k for k in range(N_INST)]
    relevance = {q: {g for g in gallery if g[:5] == q[:5]} for q in queries}
    task = RetrievalTask(queries=queries, gallery=gallery, relevance=relevance)
    retrieval = run_protocol("RETRIEVAL", bundle, task=task)["metrics"]
    print("retrieval mAP on raw embeddings: %.4f" % retrieval["map"])

    trips = [(t.anchor, t.positive, t.hard_negative, "HARD") for t in triplets[:40]]
    acc = run_protocol("TRIPLET", bundle, task=TripletTask(triplets=trips))["metrics"]["accuracy"]
    print("raw triplet accuracy (HARD): %.3f" % acc["HARD"])


if __name__ == "__main__":
    main()
