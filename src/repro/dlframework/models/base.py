"""Model base class shared by the model zoo.

A model is a :class:`~repro.dlframework.modules.Module` with extra metadata the
workload runner and the experiment harness need: a registry name, a model type
(CNN / Transformer, mirroring Table IV of the paper), the batch size used in
the paper's evaluation, and factories for example inputs/targets.
"""

from __future__ import annotations

from typing import Optional

from repro.dlframework.context import FrameworkContext
from repro.dlframework.modules import Module
from repro.dlframework.tensor import Tensor


class ModelBase(Module):
    """Base class for models in the zoo."""

    #: Registry name (e.g. ``"resnet18"``).
    model_name: str = "model"
    #: "CNN" or "Transformer" (Table IV's Type column).
    model_type: str = "CNN"
    #: Batch size used in the paper's evaluation (Table IV).
    default_batch_size: int = 1
    #: Layer count reported in Table IV (for documentation and reports).
    paper_layer_count: int = 0
    #: Whether the model can be sharded for the multi-GPU parallelism
    #: profiles (DP/TP/PP); see :mod:`repro.dlframework.parallel`.
    supports_parallelism: bool = False

    def make_example_inputs(self, ctx: FrameworkContext, batch_size: Optional[int] = None) -> Tensor:
        """Allocate an example input batch for this model."""
        raise NotImplementedError

    def make_example_targets(self, ctx: FrameworkContext, batch_size: Optional[int] = None) -> Tensor:
        """Allocate example training targets for this model."""
        raise NotImplementedError
