"""Parameter initialization helpers."""

from __future__ import annotations

import math

from .autodiff import Tensor
from .rng import RngState


def weight(rng: RngState, fan_in: int, shape) -> Tensor:
    """Learnable weight, uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


def zeros(shape) -> Tensor:
    import numpy as np

    return Tensor(np.zeros(shape), requires_grad=True)


def ones(shape) -> Tensor:
    import numpy as np

    return Tensor(np.ones(shape), requires_grad=True)


def embedding(rng: RngState, shape) -> Tensor:
    """Node embedding dictionary: standard normal scaled by 0.1."""
    return Tensor(rng.normal(size=shape) * 0.1, requires_grad=True)
