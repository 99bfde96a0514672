"""Print digests of the state that short train, fine-tune and eval runs leave.

Each case trains with ``train_loop`` (parameters, batch-norm buffers and
weight average) and saves the checkpoint. As ``effkit finetune`` does, it
reads the file back, fine-tunes ``Checkpoint.build_model``'s model with
``finetune`` and evaluates the fine-tuned model; the line holds the first
16 hex digits of the SHA-256 of each. The train and fine-tune digests are
taken of the checkpoints as saved and read back by ``Checkpoint.load``, so
two source trees compute, write and read back bit-identical results
exactly when this script prints the same lines under both:

    PYTHONPATH=src python benchmarks/state_digest.py
"""

import hashlib
import os
import tempfile

import numpy as np

from effkit import Checkpoint, FinetuneRecipe, ModelConfig, NormSpec, TrainRecipe, build_model
from effkit import finetune, make_rng, train_loop
from effkit.data import as_batches, blob_dataset


def _b0(group_size, expansion, norm, proxy):
    return ModelConfig.efficientnet(
        "b0", group_size=group_size, expansion=expansion,
        norm=NormSpec(norm), proxy=proxy, num_classes=2,
    )


# name -> (config, resolution, samples, batch, fine-tune scope)
CASES = {
    "tiny ln": (ModelConfig.tiny(norm=NormSpec("ln")), 32, 32, 8, "last-2"),
    "tiny gn": (ModelConfig.tiny(norm=NormSpec("gn")), 32, 32, 8, "last-2"),
    "tiny in+relu": (ModelConfig.tiny(norm=NormSpec("in"), activation="relu"), 32, 32, 8, "last-2"),
    "tiny bn": (ModelConfig.tiny(norm=NormSpec("bn"), proxy=False), 32, 32, 8, "last-2"),
    "b0 G=16 ln+proxy": (_b0(16, 4, "ln", True), 64, 8, 4, "last-1"),
    "b0 G=1 bn": (_b0(1, 6, "bn", False), 64, 8, 4, "last-1"),
}


def digest(*groups) -> str:
    h = hashlib.sha256()
    for arrays in groups:
        for name in sorted(arrays):
            h.update(name.encode())
            h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()[:16]


def run_case(config, resolution, samples, batch, scope) -> str:
    x, y = blob_dataset(samples, size=resolution, classes=2, seed=1)
    batches = as_batches(x, y, batch)
    recipe = TrainRecipe(global_batch=batch, epochs=2)
    with tempfile.TemporaryDirectory() as tmp:
        train_path, tuned_path = os.path.join(tmp, "train.bin"), os.path.join(tmp, "finetune.bin")
        train_loop(build_model(config, make_rng(0)), batches, recipe, seed=3).save(train_path)
        ckpt = Checkpoint.load(train_path)
        model = ckpt.build_model()
        finetune(model, ckpt, FinetuneRecipe(scope=scope, batch=batch), batches).save(tuned_path)
        tuned = Checkpoint.load(tuned_path)
    logits = model.forward(x, train=False)
    return (f"train {digest(ckpt.state, ckpt.ema)}  "
            f"finetune {digest(tuned.state, tuned.ema)}  eval {digest({'logits': logits})}")


def main() -> None:
    for name, case in CASES.items():
        print(f"{name:18} {run_case(*case)}", flush=True)


if __name__ == "__main__":
    main()
