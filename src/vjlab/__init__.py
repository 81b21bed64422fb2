"""Desk-scale laboratory for masked latent-prediction video pretraining."""

from .tensor import Tensor, backward, no_grad, huber, matmul

__all__ = ["Tensor", "backward", "no_grad", "huber", "matmul"]
__version__ = "0.1.0"
