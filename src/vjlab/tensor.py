"""Reverse-mode automatic differentiation on dense float64 arrays.

A Tensor wraps a numpy array plus an optional backward rule. Ops build a
DAG; ``backward`` walks it in reverse topological order, accumulates
gradients into leaf tensors and consumes the DAG as it goes. Broadcasting
is deliberately narrow: an elementwise op accepts equal shapes or a scalar
(python number or size-1 tensor); anything wider must go through an
explicit ``broadcast_to``.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

_state = threading.local()


def grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager: ops inside build no graph (teacher passes, oracles)."""

    def __enter__(self):
        self._prev = grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


class Tensor:
    """``grad_slot``, when set on a leaf, is the array its next fresh gradient
    is copied into (an optimizer's gradient arena); ``backward`` clears it
    once used, so a later walk cannot overwrite a gradient that was kept."""

    __slots__ = ("data", "requires_grad", "grad", "grad_slot", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and grad_enabled()
        self.grad: np.ndarray | None = None
        self.grad_slot: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None

    # -- construction of graph nodes ------------------------------------

    @staticmethod
    def _node(data: np.ndarray, parents: tuple["Tensor", ...], vjp) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = out.grad_slot = None
        if grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._vjp = vjp
        else:
            out.requires_grad = False
            out._parents = ()
            out._vjp = None
        return out

    # -- basic introspection --------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a size-1 tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        """Value-identical constant; copies data so later mutation cannot leak."""
        return Tensor(self.data.copy(), requires_grad=False)

    # -- elementwise arithmetic -----------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        if isinstance(other, (int, float, np.integer, np.floating)):
            return Tensor(np.float64(other))
        raise TypeError(f"cannot operate on Tensor and {type(other).__name__}")

    @staticmethod
    def _check_pair(a: "Tensor", b: "Tensor") -> None:
        if a.shape == b.shape or a.size == 1 or b.size == 1:
            return
        raise ValueError(
            f"shape mismatch for elementwise op: {a.shape} vs {b.shape}"
        )

    @staticmethod
    def _reduce_like(grad: np.ndarray, ref: "Tensor") -> np.ndarray:
        # Grad for a scalar operand folded into a bigger-shaped op.
        if grad.shape == ref.shape:
            return grad
        return np.sum(grad).reshape(ref.shape)

    def __add__(self, other):
        b = Tensor._coerce(other)
        Tensor._check_pair(self, b)
        a = self

        def vjp(g):
            return Tensor._reduce_like(g, a), Tensor._reduce_like(g, b)

        return Tensor._node(a.data + b.data, (a, b), vjp)

    __radd__ = __add__

    def __sub__(self, other):
        b = Tensor._coerce(other)
        Tensor._check_pair(self, b)
        a = self

        def vjp(g):
            return Tensor._reduce_like(g, a), Tensor._reduce_like(-g, b)

        return Tensor._node(a.data - b.data, (a, b), vjp)

    def __rsub__(self, other):
        return Tensor._coerce(other).__sub__(self)

    def __mul__(self, other):
        b = Tensor._coerce(other)
        Tensor._check_pair(self, b)
        a = self
        ad, bd = a.data, b.data

        def vjp(g):
            return Tensor._reduce_like(g * bd, a), Tensor._reduce_like(g * ad, b)

        return Tensor._node(ad * bd, (a, b), vjp)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = Tensor._coerce(other)
        Tensor._check_pair(self, b)
        if np.any(b.data == 0.0):
            raise ZeroDivisionError("division by exact zero")
        a = self
        ad, bd = a.data, b.data

        def vjp(g):
            return (
                Tensor._reduce_like(g / bd, a),
                Tensor._reduce_like(-g * ad / (bd * bd), b),
            )

        return Tensor._node(ad / bd, (a, b), vjp)

    def __rtruediv__(self, other):
        return Tensor._coerce(other).__truediv__(self)

    def __neg__(self):
        a = self
        return Tensor._node(-a.data, (a,), lambda g: (-g,))

    def __matmul__(self, other):
        return matmul(self, other)

    # -- elementwise nonlinearities -------------------------------------

    def abs(self) -> "Tensor":
        # L1 convention: subgradient at 0 is 0 (np.sign(0) == 0).
        a = self
        s = np.sign(a.data)
        return Tensor._node(np.abs(a.data), (a,), lambda g: (g * s,))

    def sqrt(self) -> "Tensor":
        a = self
        if np.any(a.data < 0.0):
            raise ValueError("sqrt requires non-negative inputs")
        out = np.sqrt(a.data)

        def vjp(g):
            if np.any(out == 0.0):
                raise FloatingPointError("sqrt gradient at exact zero")
            return (g * 0.5 / out,)

        return Tensor._node(out, (a,), vjp)

    def pow(self, p: float) -> "Tensor":
        a = self
        p = float(p)
        if p != int(p) and np.any(a.data < 0.0):
            raise ValueError("fractional power of negative base")
        out = np.power(a.data, p)
        base = a.data

        def vjp(g):
            return (g * p * np.power(base, p - 1.0),)

        return Tensor._node(out, (a,), vjp)

    def tanh(self) -> "Tensor":
        a = self
        out = np.tanh(a.data)
        return Tensor._node(out, (a,), lambda g: (g * (1.0 - out * out),))

    def relu(self) -> "Tensor":
        a = self
        m = (a.data > 0.0).astype(np.float64)
        return Tensor._node(a.data * m, (a,), lambda g: (g * m,))

    def gelu(self) -> "Tensor":
        # Exact erf form: x * Phi(x); the slope is built only in the VJP, so a
        # pass that builds no graph never pays for it.
        a = self
        x = a.data
        phi_cdf = gelu_cdf(x)
        return Tensor._node(x * phi_cdf, (a,), lambda g: (gelu_slope(x, phi_cdf, g),))

    # -- reductions ------------------------------------------------------

    def _check_axis(self, axis: int | None) -> int | None:
        if axis is None:
            return None
        if not -self.ndim <= axis < self.ndim:
            raise ValueError(f"axis {axis} out of range for shape {self.shape}")
        return axis % self.ndim

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        a = self
        axis = self._check_axis(axis)
        out = np.sum(a.data, axis=axis, keepdims=keepdims)
        shape = a.shape

        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, shape).copy(),)

        return Tensor._node(np.asarray(out, dtype=np.float64), (a,), vjp)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        axis_n = self._check_axis(axis)
        if self.size == 0:
            raise ValueError("mean of an empty tensor")
        n = self.size if axis_n is None else self.shape[axis_n]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- shape ops -------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = a.shape
        out = a.data.reshape(shape)
        return Tensor._node(out, (a,), lambda g: (g.reshape(old),))

    def transpose(self, *axes) -> "Tensor":
        a = self
        if not axes:
            axes = tuple(reversed(range(a.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        return Tensor._node(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inv),))

    def broadcast_to(self, shape: Sequence[int]) -> "Tensor":
        a = self
        shape = tuple(shape)
        out = np.broadcast_to(a.data, shape)
        old = a.shape

        def vjp(g):
            pad = len(shape) - len(old)
            axes = tuple(range(pad)) + tuple(
                pad + i for i, s in enumerate(old) if s == 1 and shape[pad + i] != 1
            )
            red = np.sum(g, axis=axes, keepdims=False) if axes else g
            return (red.reshape(old),)

        return Tensor._node(np.ascontiguousarray(out), (a,), vjp)


# -- non-method ops ------------------------------------------------------


# cephes ndtr.c, the erf that scipy.special.erf evaluates: x T(x^2) / U(x^2) for
# |x| <= 1, else 1 - erfc(|x|) with erfc(a) = exp(-a^2) P(a) / Q(a) below 8 and
# exp(-a^2) R(a) / S(a) from 8 on. U, Q and S have an implied leading 1.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # cephes: erfc is 0 once a^2 exceeds it


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """cephes polevl: Horner from the leading coefficient, a multiply and an add per step."""
    out = x * coef[0]
    for c in coef[1:-1]:
        out += c
        out *= x
    out += coef[-1]
    return out


def _p1evl(x: np.ndarray, coef: tuple[float, ...], out: np.ndarray | None = None) -> np.ndarray:
    """cephes p1evl: polevl with an implied leading coefficient of 1."""
    out = np.add(x, coef[0], out=out)
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _erf_rational(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    # x * num / den with two slab temporaries: once x * num is formed, x (which
    # out may be) is no longer read, so den is built in out
    z = x * x
    num = _polevl(z, _ERF_T)
    num *= x
    return np.divide(num, _p1evl(z, _ERF_U, out), out=out)


def _erf_tail(x: np.ndarray) -> np.ndarray:
    """1 - erfc(|x|) with x's sign, for lanes past |x| = 1, infinite or nan."""
    a = np.abs(x)
    z = -a * a
    # math.exp is the C library's exp, the one the compiled cephes calls; np.exp
    # rounds differently on some arguments
    y = np.fromiter(map(math.exp, z.tolist()), np.float64, count=z.size)
    p, q = _polevl(a, _ERFC_P), _p1evl(a, _ERFC_Q)
    far = a >= 8.0
    if far.any():
        p[far], q[far] = _polevl(a[far], _ERFC_R), _p1evl(a[far], _ERFC_S)
    y *= p
    y /= q
    y[z < -_MAXLOG] = 0.0  # the cut also covers an infinite x, whose p / q is nan
    return np.copysign(1.0 - y, x)


def erf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The error function of a float64 array, bit for bit cephes' (scipy.special.erf).

    ``out`` may be ``x`` itself. Lanes with |x| <= 1 take the rational in numpy
    ufuncs, in cephes' operation order with no fused or reordered operation;
    any other lane costs one math.exp call (about 0.1 us).
    """
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty_like(x)
    if x.size == 0 or (x.max() <= 1.0 and x.min() >= -1.0):  # a nan fails both
        return _erf_rational(x, out)
    tail = ~(np.abs(x) <= 1.0)
    xt = x[tail]
    with np.errstate(all="ignore"):  # the rational of the tail lanes is overwritten
        _erf_rational(x, out)
        out[tail] = _erf_tail(xt)
    return out


def gelu_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = (1 + erf(x / sqrt 2)) / 2 in one fresh buffer: GELU is x * Phi(x)."""
    # Worked in place: each fresh slab-sized buffer costs page faults.
    phi_cdf = x / math.sqrt(2.0)
    erf(phi_cdf, out=phi_cdf)
    phi_cdf += 1.0
    phi_cdf *= 0.5
    return phi_cdf


def gelu_slope(x: np.ndarray, phi_cdf: np.ndarray, g: np.ndarray) -> np.ndarray:
    """GELU's VJP, g * (Phi(x) + x * phi(x)), in one fresh buffer."""
    slope = -0.5 * x
    slope *= x
    np.exp(slope, out=slope)
    slope /= math.sqrt(2.0 * math.pi)
    slope *= x
    slope += phi_cdf
    slope *= g
    return slope


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` over the last two axes. Leading batch axes must match, or one
    operand is 2-d and shared by every batch entry of the other."""
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs operands of at least 2 dims, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner-dimension mismatch: {a.shape} vs {b.shape}")
    if a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"matmul batch axes differ: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data

    def shared(g: np.ndarray, ref: np.ndarray) -> np.ndarray:
        # the gradient of a shared 2-d operand sums over the other's batch
        return g if g.ndim == ref.ndim else g.reshape(-1, *ref.shape).sum(axis=0)

    def vjp(g):
        return (shared(g @ np.swapaxes(bd, -1, -2), ad) if a.requires_grad else None,
                shared(np.swapaxes(ad, -1, -2) @ g, bd) if b.requires_grad else None)

    return Tensor._node(ad @ bd, (a, b), vjp)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [Tensor._coerce(p) for p in parts]
    if not parts:
        raise ValueError("concat of an empty list")
    axis = parts[0]._check_axis(axis)
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return Tensor._node(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), vjp)


def huber(residual: Tensor, delta: float = 1.0) -> Tensor:
    """Elementwise Huber: 0.5 r^2 inside |r| <= delta, linear tails outside."""
    if delta <= 0.0:
        raise ValueError(f"huber delta must be positive, got {delta}")
    a = residual
    r = a.data
    small = np.abs(r) <= delta
    out = np.where(small, 0.5 * r * r, delta * (np.abs(r) - 0.5 * delta))
    slope = np.where(small, r, delta * np.sign(r))

    def vjp(g):
        return (g * slope,)

    return Tensor._node(out, (a,), vjp)


# -- backward ------------------------------------------------------------


_CONSUMED = "backward through a graph that an earlier backward consumed"


def _consumed(g):
    """The VJP a node holds once a backward has walked it: its graph is gone."""
    raise RuntimeError(_CONSUMED)


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._vjp is _consumed:  # refused before any gradient moves
            raise RuntimeError(_CONSUMED)
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into the ``grad`` of each requires-grad leaf.

    The walk consumes the graph: each node drops its VJP closure and parents
    once its VJP has run, so the intermediates they saved are freed as the
    walk goes. A later backward through any node of the graph raises
    RuntimeError; leaves keep accumulating across separate graphs. A leaf
    without a gradient gets its gradient copied into its ``grad_slot``, or
    into a fresh array when it has none."""
    if root.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        raise ValueError("backward root is not attached to a graph")
    order = _toposort(root)
    pending: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    while order:
        node = order.pop()
        g = pending.pop(id(node), None)
        vjp, parents = node._vjp, node._parents
        if vjp is None:
            if g is None:
                continue
            if node.grad is not None:
                node.grad = node.grad + g
                continue
            # copied, not added to a zeroed slot: 0.0 + -0.0 would flip a zero's sign
            grad = np.empty(node.shape) if node.grad_slot is None else node.grad_slot
            np.copyto(grad, g)
            node.grad, node.grad_slot = grad, None
            continue
        node._vjp, node._parents = _consumed, ()
        if g is None:
            continue
        for parent, pg in zip(parents, vjp(g)):
            if not parent.requires_grad:
                continue
            acc = pending.get(id(parent))
            pending[id(parent)] = pg if acc is None else acc + pg
