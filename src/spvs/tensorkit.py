"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything downstream (encoders, losses, the summarizer) is built from the
ops in this module.  Design points:

* float64 internally; checkpoints store float32 (see save_checkpoint).
* every op validates that its result is finite; NaN/Inf raises NumericsError
  at the op that produced it, not three layers later.
* the graph is a plain parent-pointer DAG; backward() runs a reverse
  topological sweep and accumulates into Tensor.grad.
* all randomness flows through Rng (xoshiro256**), which is seedable,
  platform-independent and supports named sub-streams.
"""

from __future__ import annotations

import math
import struct
import warnings

import numpy as np

from .errors import (
    ContractError,
    DataError,
    DimensionError,
    DomainError,
    FormatError,
    NumericsError,
)

# ---------------------------------------------------------------------------
# Tensor and graph


class Tensor:
    """A node in the autodiff graph wrapping a float64 ndarray."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def detach(self):
        return Tensor(self.data.copy(), requires_grad=False)

    def item(self):
        if self.data.size != 1:
            raise ContractError(f"item() needs a single element, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _check_finite(arr):
    if not np.all(np.isfinite(arr)):
        raise NumericsError("operation produced non-finite values")


def _result(data, parents, backward):
    out = Tensor(data)
    _check_finite(out.data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def backward(loss):
    """Reverse sweep from a scalar loss, accumulating into .grad fields.

    Returns the list of visited tensors (useful for zeroing between steps).
    Parameters not reachable from the loss simply keep grad=None, which the
    optimizer treats as zero.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))

    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    return topo


def zero_grads(params):
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# Elementwise ops


def _binary_shapes(a, b, op):
    try:
        return np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise DimensionError(
            f"{op}: incompatible shapes {a.data.shape} and {b.data.shape}"
        ) from None


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b, "add")

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _result(a.data + b.data, (a, b), bwd)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b, "sub")

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _result(a.data - b.data, (a, b), bwd)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b, "mul")

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _result(a.data * b.data, (a, b), bwd)


def neg(a):
    a = as_tensor(a)

    def bwd(g):
        _accum(a, -g)

    return _result(-a.data, (a,), bwd)


def scale(a, c):
    """Multiply by a python constant (no gradient for the constant)."""
    a = as_tensor(a)
    c = float(c)

    def bwd(g):
        _accum(a, g * c)

    return _result(a.data * c, (a,), bwd)


def scale_rows(x, s):
    """Scale row t of a T-by-d matrix by the scalar s[t]."""
    x, s = as_tensor(x), as_tensor(s)
    if x.data.ndim != 2 or s.data.shape != (x.data.shape[0],):
        raise DimensionError(
            f"scale_rows: expected (T,d) and (T,), got {x.data.shape} and {s.data.shape}"
        )
    col = s.data[:, None]

    def bwd(g):
        _accum(x, g * col)
        _accum(s, (g * x.data).sum(axis=1))

    return _result(x.data * col, (x, s), bwd)


def exp(a):
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        out_data = np.exp(a.data)

    def bwd(g):
        _accum(a, g * out_data)

    return _result(out_data, (a,), bwd)


def log(a):
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        raise DomainError("log: input must be strictly positive")

    def bwd(g):
        _accum(a, g / a.data)

    return _result(np.log(a.data), (a,), bwd)


def sqrt(a):
    a = as_tensor(a)
    if np.any(a.data < 0.0):
        raise DomainError("sqrt: input must be nonnegative")
    out_data = np.sqrt(a.data)

    def bwd(g):
        # guarded so that d(sqrt)/dx at exactly 0 stays finite; any upstream
        # factor of sqrt(x) itself then yields 0 instead of NaN
        _accum(a, g * 0.5 / np.maximum(out_data, 1e-12))

    return _result(out_data, (a,), bwd)


def sigmoid(a):
    a = as_tensor(a)
    out_data = np.where(
        a.data >= 0,
        1.0 / (1.0 + np.exp(-np.clip(a.data, 0, None))),
        np.exp(np.clip(a.data, None, 0)) / (1.0 + np.exp(np.clip(a.data, None, 0))),
    )

    def bwd(g):
        _accum(a, g * out_data * (1.0 - out_data))

    return _result(out_data, (a,), bwd)


def relu(a):
    a = as_tensor(a)
    mask = a.data > 0

    def bwd(g):
        _accum(a, g * mask)

    return _result(np.where(mask, a.data, 0.0), (a,), bwd)


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _erf(x):
    # vectorized erf via numpy-compatible formula; scipy not required here
    from scipy.special import erf as _scipy_erf

    return _scipy_erf(x)


def gelu(a):
    a = as_tensor(a)
    cdf = 0.5 * (1.0 + _erf(a.data / _SQRT2))
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * a.data * a.data)

    def bwd(g):
        _accum(a, g * (cdf + a.data * pdf))

    return _result(a.data * cdf, (a,), bwd)


def clip(a, lo, hi):
    """Clamp values; gradient passes only where the input was inside [lo, hi]."""
    a = as_tensor(a)
    inside = (a.data >= lo) & (a.data <= hi)

    def bwd(g):
        _accum(a, g * inside)

    return _result(np.clip(a.data, lo, hi), (a,), bwd)


# ---------------------------------------------------------------------------
# Linear algebra and shape ops


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}"
        )

    def bwd(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _result(a.data @ b.data, (a, b), bwd)


def transpose(a):
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise DimensionError(f"transpose expects a matrix, got shape {a.data.shape}")

    def bwd(g):
        _accum(a, g.T)

    return _result(a.data.T, (a,), bwd)


def reshape(a, shape):
    a = as_tensor(a)
    try:
        out_data = a.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"reshape: cannot view {a.data.shape} as {shape}") from None

    def bwd(g):
        _accum(a, g.reshape(a.data.shape))

    return _result(out_data, (a,), bwd)


def narrow(a, start, length, axis=0):
    """Contiguous slice along one axis."""
    a = as_tensor(a)
    n = a.data.shape[axis]
    if start < 0 or length < 0 or start + length > n:
        raise DimensionError(
            f"narrow: slice [{start}, {start + length}) out of range for extent {n}"
        )
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def bwd(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[idx] = g
            _accum(a, full)

    return _result(a.data[idx], (a,), bwd)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("concat of zero tensors")
    try:
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise DimensionError(
            f"concat: incompatible shapes {[t.data.shape for t in tensors]}"
        ) from None
    sizes = [t.data.shape[axis] for t in tensors]

    def bwd(g):
        off = 0
        for t, s in zip(tensors, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(off, off + s)
            _accum(t, g[tuple(idx)])
            off += s

    return _result(out_data, tuple(tensors), bwd)


def gather_rows(table, ids):
    """Row lookup (embedding); gradient scatters back into the table."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise DimensionError("gather_rows expects a 1-D id list")
    if np.any(ids < 0) or np.any(ids >= table.data.shape[0]):
        raise DimensionError(
            f"gather_rows: id out of range [0, {table.data.shape[0]})"
        )

    def bwd(g):
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, ids, g)
            _accum(table, full)

    return _result(table.data[ids], (table,), bwd)


# ---------------------------------------------------------------------------
# Reductions and row-wise normalizations


def tsum(a):
    a = as_tensor(a)

    def bwd(g):
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    return _result(a.data.sum(), (a,), bwd)


def tmean(a):
    a = as_tensor(a)
    n = a.data.size
    if n == 0:
        raise ContractError("mean of an empty tensor")

    def bwd(g):
        _accum(a, np.broadcast_to(g / n, a.data.shape).copy())

    return _result(a.data.mean(), (a,), bwd)


def row_norms(a):
    """L2 norm of each row of a matrix, returned as shape (T,)."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise DimensionError(f"row_norms expects a matrix, got {a.data.shape}")
    norms = np.sqrt((a.data**2).sum(axis=1))

    def bwd(g):
        safe = np.maximum(norms, 1e-12)
        _accum(a, (g / safe)[:, None] * a.data)

    return _result(norms, (a,), bwd)


def l2_normalize_rows(a):
    """Scale each row to unit norm; all-zero rows pass through with a warning."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise DimensionError(f"l2_normalize_rows expects a matrix, got {a.data.shape}")
    norms = np.sqrt((a.data**2).sum(axis=1))
    zero = norms == 0.0
    if np.any(zero):
        warnings.warn("l2_normalize_rows: all-zero row left unchanged", stacklevel=2)
    safe = np.where(zero, 1.0, norms)
    out_data = a.data / safe[:, None]

    def bwd(g):
        # d/dx (x/|x|) = (I - u u^T)/|x| with u = x/|x|; zero rows are identity
        dot = (g * out_data).sum(axis=1)
        ga = (g - out_data * dot[:, None]) / safe[:, None]
        ga[zero] = g[zero]
        _accum(a, ga)

    return _result(out_data, (a,), bwd)


def softmax_rows(a):
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise DimensionError(f"softmax_rows expects a matrix, got {a.data.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=1, keepdims=True)
        _accum(a, out_data * (g - dot))

    return _result(out_data, (a,), bwd)


LAYER_NORM_EPS = 1e-5


def layer_norm_rows(a, gain, bias):
    """Per-row standardization with learnable gain and bias (eps on variance)."""
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    if a.data.ndim != 2:
        raise DimensionError(f"layer_norm_rows expects a matrix, got {a.data.shape}")
    d = a.data.shape[1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError(
            f"layer_norm_rows: gain/bias must have shape ({d},),"
            f" got {gain.data.shape} and {bias.data.shape}"
        )
    mu = a.data.mean(axis=1, keepdims=True)
    xc = a.data - mu
    var = (xc**2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def bwd(g):
        _accum(gain, (g * xhat).sum(axis=0))
        _accum(bias, g.sum(axis=0))
        if a.requires_grad:
            gx = g * gain.data
            ga = inv * (
                gx
                - gx.mean(axis=1, keepdims=True)
                - xhat * (gx * xhat).mean(axis=1, keepdims=True)
            )
            _accum(a, ga)

    return _result(out_data, (a, gain, bias), bwd)


# ---------------------------------------------------------------------------
# Adam


class Adam:
    """Standard Adam with bias correction over a named parameter dict.

    Iteration order is sorted by name so trajectories are reproducible
    regardless of dict construction order.
    """

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for name in sorted(self.params):
            p = self.params[name]
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


# ---------------------------------------------------------------------------
# PRNG: xoshiro256** with named sub-streams

_U64 = (1 << 64) - 1


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _U64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return x, z ^ (z >> 31)


def _fnv1a64(s):
    h = 0xCBF29CE484222325
    for byte in s.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _U64
    return h


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & _U64


class Rng:
    """xoshiro256** generator; identical seed gives identical streams anywhere."""

    __slots__ = ("seed", "_s", "_spare")

    def __init__(self, seed):
        self.seed = int(seed) & _U64
        x = self.seed
        state = []
        for _ in range(4):
            x, out = _splitmix64(x)
            state.append(out)
        if not any(state):
            state[0] = 1
        self._s = state
        self._spare = None

    def substream(self, name):
        """Independent generator derived from (seed, name)."""
        _, mixed = _splitmix64(self.seed ^ _fnv1a64(name))
        return Rng(mixed)

    def next_u64(self):
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _U64, 7) * 9) & _U64
        t = (s1 << 17) & _U64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self, lo=0.0, hi=1.0):
        u = (self.next_u64() >> 11) * (2.0**-53)
        return lo + (hi - lo) * u

    def randint(self, n):
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ContractError("randint requires n >= 1")
        return self.next_u64() % n

    def normal(self, mu=0.0, sigma=1.0):
        if self._spare is not None:
            z = self._spare
            self._spare = None
        else:
            u1 = max(self.uniform(), 2.0**-53)
            u2 = self.uniform()
            r = math.sqrt(-2.0 * math.log(u1))
            z = r * math.cos(2.0 * math.pi * u2)
            self._spare = r * math.sin(2.0 * math.pi * u2)
        return mu + sigma * z

    def normals(self, shape, mu=0.0, sigma=1.0):
        n = int(np.prod(shape))
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            out[i] = self.normal(mu, sigma)
        return out.reshape(shape)

    def uniforms(self, shape, lo=0.0, hi=1.0):
        n = int(np.prod(shape))
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            out[i] = self.uniform(lo, hi)
        return out.reshape(shape)

    def shuffle(self, seq):
        for i in range(len(seq) - 1, 0, -1):
            j = self.randint(i + 1)
            seq[i], seq[j] = seq[j], seq[i]
        return seq


def uniform_init(rng, shape, fan_in):
    """uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) parameter initialization."""
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniforms(shape, -bound, bound), requires_grad=True)


# ---------------------------------------------------------------------------
# Checkpoint format
#
# magic "SPVS" | version u32 | tensor count u32 | per tensor:
#   name length u16, UTF-8 name, rank u8, extents u32 each,
#   float32 little-endian payload (row-major)

CHECKPOINT_MAGIC = b"SPVS"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, tensors):
    """Write a named tensor dict (Tensor or ndarray values) as float32."""
    chunks = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(tensors))]
    for name in sorted(tensors):
        value = tensors[name]
        arr = value.data if isinstance(value, Tensor) else np.asarray(value)
        arr = np.ascontiguousarray(arr, dtype=np.float32)
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_checkpoint(path):
    """Read a checkpoint back as a name -> float64 ndarray dict."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc.strerror}") from exc
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(
            f"{path}: bad checkpoint magic {blob[:4]!r}, expected {CHECKPOINT_MAGIC!r}"
        )
    out = {}
    try:
        version, count = struct.unpack_from("<II", blob, 4)
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        off = 12
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = blob[off : off + nlen].decode("utf-8")
            off += nlen
            (rank,) = struct.unpack_from("<B", blob, off)
            off += 1
            shape = struct.unpack_from(f"<{rank}I", blob, off)
            off += 4 * rank
            size = int(np.prod(shape, dtype=np.int64)) if rank else 1
            arr = np.frombuffer(blob, dtype="<f4", count=size, offset=off)
            off += 4 * size
            out[name] = arr.reshape(shape).astype(np.float64)
    except (struct.error, ValueError) as exc:
        raise FormatError(f"{path}: truncated or corrupt checkpoint") from exc
    if off != len(blob):
        raise FormatError(f"{path}: trailing bytes after last tensor")
    return out
