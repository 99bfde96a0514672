"""effkit: grouped convolutions, proxy-normalized activations, and the
supporting cost/roofline/resolution/training machinery, in float64 NumPy.

The package root names the train and fine-tune workflow that ``effkit
train``, ``effkit finetune`` and the benchmark drive: build a model, train
it, then fine-tune its averaged weights. Every other name is imported from
its module, as the README's library map lists.
"""

from .checkpoint import Checkpoint
from .model import ModelConfig, build_model
from .norms import NormSpec
from .tensor import make_rng
from .train import FinetuneRecipe, TrainRecipe, finetune, train_loop

__version__ = "0.1.0"
