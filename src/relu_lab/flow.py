"""Discrete-time subgradient descent on the unregularized logistic loss.

Plain forward-Euler steps of

    w1_i <- w1_i + eta * w2_i * g(w1_i, lt),    g(u, lt) = sum_{x_n^T u > 0} lt_n x_n
    w2_i <- w2_i + eta * lt^T (X w1_i)_+,       lt_n = y_n / (1 + exp(q_n))

with q_n = y_n f(x_n), the zero subgradient at the ReLU kink, and balanced
initialization ||w1_i|| = |w2_i| = eps.  Balance is conserved by the
continuous flow; the simulator tracks the discrete drift, the second-layer
signs and per-checkpoint polar coordinates, margins and alignments.  The
loop runs in segments that end at the next checkpoint or after a block of
steps.  The block's history holds W1 and w2 in one (d + 1, m) slot per
step, and the inner loop writes each step into its slot: it allocates
nothing, works on buffers made once per run, and computes Z = X W1 once
per step, which the next update and its forward pass both read.  The
bookkeeping (balance drift, which doubles as the finite check, abort, w2
signs) then runs once over the segment's slots, with the same elementwise
operations and reductions as a per-step check, so the results are
bit-identical to it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from ._compiled import expit
from .arrangements import ActivationMask, mask_of
from .datasets import Dataset
from .geometry import extreme_points, polar_gauge
from .convex import NetworkParams, margin_objective
from .solver import DegenerateError

#: steps per block: the loop stores each step's W1 and w2, and runs the
#: drift, abort and w2-sign bookkeeping once per block
BLOCK_STEPS = 256
#: the history's byte budget; wide inputs get shorter blocks
HISTORY_BYTES = 2**20


@dataclass(frozen=True)
class FlowConfig:
    m: int = 8
    init_scale: float = 1e-4
    step: float = 1.0
    iters: int = 10_000
    checkpoints: tuple[int, ...] = (10, 100, 1000, 10_000)
    seed: int = 0

    def __post_init__(self):
        for name, ok, want in (
                ("m", _is_int(self.m) and self.m >= 1, "an integer >= 1"),
                ("iters", _is_int(self.iters) and self.iters >= 0,
                 "an integer >= 0"),
                ("init_scale", np.isfinite(self.init_scale)
                 and self.init_scale > 0, "a finite number > 0"),
                ("step", np.isfinite(self.step) and self.step > 0,
                 "a finite number > 0")):
            if not ok:
                raise ValueError(f"bad flow configuration: {name} = "
                                 f"{getattr(self, name)!r} is not {want}")
        for c in self.checkpoints:
            if not _is_int(c):
                raise ValueError(f"checkpoint {c!r} is not an integer")
        for c in sorted(self.checkpoints):
            if not 1 <= c <= self.iters:
                raise ValueError(f"checkpoint {c} is outside "
                                 f"[1, iters {self.iters}]")


def _is_int(v) -> bool:
    """An integer, numpy's included, but not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass
class NeuronRecord:
    r: float                  # log ||w1_i||
    u: np.ndarray             # unit direction
    s: int                    # sign(w2_i)
    mask: ActivationMask      # strict activation pattern of u
    alignment: float | None   # cos angle(u, s X^T D(u) y), None if undefined


@dataclass
class FlowRecord:
    iteration: int
    loss: float
    neurons: list[NeuronRecord]
    margin: float | None
    W1: np.ndarray
    w2: np.ndarray


@dataclass
class FlowTrace:
    config: FlowConfig
    records: list[FlowRecord] = field(default_factory=list)
    max_balance_drift: float = 0.0     # max_t max_i | ||w1_i||^2 - w2_i^2 |
    w2_sign_flips: int = 0
    aborted_at: int | None = None      # iteration of numerical failure, if any

    def final(self) -> FlowRecord:
        return self.records[-1]


def init_balanced(cfg: FlowConfig, d: int) -> NetworkParams:
    """w1_i = eps * g_i/||g_i|| with standard-normal g_i, w2_i = +/-eps with
    independent fair signs; exactly balanced."""
    rng = np.random.default_rng(cfg.seed)
    G = rng.standard_normal((d, cfg.m))
    G /= np.linalg.norm(G, axis=0, keepdims=True)
    signs = rng.integers(0, 2, size=cfg.m) * 2 - 1
    return NetworkParams(W1=cfg.init_scale * G,
                         w2=cfg.init_scale * signs.astype(float))


def lambda_tilde(X: np.ndarray, y: np.ndarray, params: NetworkParams) -> np.ndarray:
    """lt_n = y_n / (1 + exp(q_n)), q_n = y_n f(x_n); sign(lt_n) = y_n."""
    y = np.asarray(y, dtype=float)
    return y * expit(-(y * params.forward(X)))


def logistic_loss(X: np.ndarray, y: np.ndarray, params: NetworkParams) -> float:
    q = np.asarray(y, dtype=float) * params.forward(X)
    return float(np.sum(np.logaddexp(0.0, -q)))


def alignment(X: np.ndarray, u: np.ndarray, lam: np.ndarray) -> float | None:
    """cos angle(u, X^T D(u) lam) with the strict activation pattern; None
    when the reference vector vanishes."""
    X = np.asarray(X, dtype=float)
    u = np.asarray(u, dtype=float)
    g = X.T @ (np.asarray(lam, dtype=float) * (X @ u > 0.0))
    ng = np.linalg.norm(g)
    nu = np.linalg.norm(u)
    if ng == 0.0 or nu == 0.0:
        return None
    return float(u @ g / (nu * ng))


def _record(X, y, params, it) -> FlowRecord:
    neurons = []
    for i in range(params.m):
        w1 = params.W1[:, i]
        nrm = np.linalg.norm(w1)
        s = int(np.sign(params.w2[i]))
        u = w1 / nrm if nrm > 0 else np.zeros_like(w1)
        a = alignment(X, u, y) if nrm > 0 else None
        neurons.append(NeuronRecord(
            r=float(np.log(nrm)) if nrm > 0 else -np.inf,
            u=u, s=s, mask=mask_of(X, u),
            alignment=None if a is None else s * a))
    mo = margin_objective(X, y, params.W1, params.w2)
    return FlowRecord(iteration=it, loss=logistic_loss(X, y, params),
                      neurons=neurons,
                      margin=None if mo is None else mo[1],
                      W1=params.W1.copy(), w2=params.w2.copy())


def run_flow(ds: Dataset, cfg: FlowConfig):
    """Simulate the flow; returns a FlowTrace (binary labels) or a list of
    per-class FlowTraces (multiclass datasets run K independent flows)."""
    if not ds.is_binary:
        return [_run_binary(ds.X, np.where(ds.labels == k + 1, 1.0, -1.0), cfg)
                for k in range(ds.K)]
    return _run_binary(ds.X, ds.y, cfg)


def _block_length(d: int, m: int) -> int:
    """Steps per block of the history: BLOCK_STEPS, fewer when the
    (B, d + 1, m) buffer would pass HISTORY_BYTES."""
    return max(1, min(BLOCK_STEPS, HISTORY_BYTES // (8 * (d + 1) * m)))


def _history(B: int, d: int, m: int) -> np.ndarray:
    """An empty history of B steps; rows :d of a slot hold W1, row d w2."""
    return np.empty((B, d + 1, m))


def _run_binary(X: np.ndarray, y: np.ndarray, cfg: FlowConfig) -> FlowTrace:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    (N, d), m = X.shape, cfg.m
    params = init_balanced(cfg, d)
    trace = FlowTrace(config=cfg)
    checkpoints = sorted(set(cfg.checkpoints), reverse=True)
    B = _block_length(d, m)
    H = _history(B, d, m)
    W1h, w2h = H[:, :d], H[:, d]
    slots = [(T, T[:d], T[d]) for T in H]
    # a step reads the slot the last step wrote, the first step the
    # initialization in the last slot; a step may write the slot it reads,
    # as it reads w2 before the update overwrites it
    cur = slots[-1]
    cur[1][:], cur[2][:] = params.W1, params.w2
    # the step's buffers, made once: Z = X W1 for the next step, the
    # update U with the W1 gradient in rows :d and the w2 gradient in row
    # d, and eta as a 0-d array, which ufuncs take without converting it
    Z = X @ params.W1
    XT, neg_y, zero, eta = X.T, -y, np.zeros((N, m)), np.array(cfg.step)
    R, D, M = np.empty((N, m)), np.empty((N, m), dtype=bool), np.empty((N, m))
    f, lt = np.empty(N), np.empty(N)
    RT, lt_col = R.T, lt[:, None]
    U = np.empty((d + 1, m))
    G, g2 = U[:d], U[d]
    init_signs = np.sign(params.w2)
    max_drift, it = 0.0, 0
    # each of the loop's 13 calls per step does a few dozen flops, so a
    # module attribute lookup per call shows: the loop calls local names
    maximum, dot, multiply, greater, add = (np.maximum, np.dot, np.multiply,
                                            np.greater, np.add)
    # a diverging run overflows before it aborts on non-finite parameters
    with np.errstate(over="ignore", invalid="ignore"):
        trace.records.append(_record(X, y, params, 0))
        while it < cfg.iters:
            # a segment ends at the next checkpoint or after B steps
            n = min(it + B, checkpoints[-1] if checkpoints else cfg.iters) - it
            for k in range(n):
                # from the old (W1, w2) and Z: R = (Z)_+,
                # lt = y expit(-(y (R w2))), then W1 += (eta X^T (lt D)) w2
                # and w2 += eta R^T lt with D = I(Z > 0), in this order of
                # rounding; the sum is written into the next slot
                T, _, w2 = cur
                cur = slots[k]
                maximum(Z, zero, out=R)
                dot(R, w2, out=f)
                multiply(neg_y, f, out=f)
                expit(f, out=f)
                multiply(y, f, out=lt)
                greater(Z, zero, out=D)
                multiply(lt_col, D, out=M)
                dot(XT, M, out=G)
                dot(RT, lt, out=g2)
                multiply(eta, U, out=U)
                multiply(G, w2, out=G)
                add(T, U, out=cur[0])
                dot(X, cur[1], out=Z)
            # max propagates nan and inf, so a finite drift proves W1 and w2
            # finite; finite parameters may still overflow their squares
            drift = np.abs((W1h[:n] ** 2).sum(axis=1)
                           - w2h[:n] ** 2).max(axis=1)
            finite = np.isfinite(drift)
            if not finite.all():
                bad = np.flatnonzero(~finite)
                broken = ~(np.isfinite(W1h[bad]).all(axis=(1, 2))
                           & np.isfinite(w2h[bad]).all(axis=1))
                if broken.any():
                    # keep the n steps before the abort, discard the rest
                    n = int(bad[broken.argmax()])
                    trace.aborted_at = it + n + 1
            if finite[:n].any():
                max_drift = max(max_drift, float(drift[:n][finite[:n]].max()))
            # only a zero or flipped w2_i changes the flip count or the signs
            if not (w2h[:n] * init_signs > 0.0).all():
                for w in w2h[:n]:
                    if not (w * init_signs).min() > 0.0:
                        s = np.sign(w)
                        trace.w2_sign_flips += int(np.sum(s * init_signs < 0))
                        init_signs = np.where(s == 0.0, init_signs, s)
            if trace.aborted_at is not None:
                break
            it += n
            if checkpoints and checkpoints[-1] == it:
                checkpoints.pop()
                trace.records.append(
                    _record(X, y, NetworkParams(W1=cur[1], w2=cur[2]), it))
    trace.max_balance_drift = max_drift
    return trace


def network_dual(X: np.ndarray, y: np.ndarray, params: NetworkParams
                 ) -> tuple[np.ndarray, float]:
    """Dual candidate from a trained network: normalize lambda_tilde, then
    divide by the network gauge, the max of |v^T u| at the extreme points
    along +/-v, v = X^T lam, over the masks realized by the network's
    neurons (the convention of the reference experiments).  Returns
    (lam, gauge_network)."""
    lt = lambda_tilde(X, y, params)
    nrm = np.linalg.norm(lt)
    if nrm == 0.0:
        raise DegenerateError("lambda_tilde vanished (non-finite outputs?)")
    lam = lt / nrm
    v = np.asarray(X, dtype=float).T @ lam
    masks = network_masks(X, params)
    U, L = extreme_points(X, masks, np.tile(v, (len(masks), 1)))
    gauge_net = float(np.abs(np.concatenate((U @ v, L @ v))).max())
    if gauge_net <= 1e-12:
        raise DegenerateError("degenerate normalizing gauge")
    return lam / gauge_net, gauge_net


def recover_dual(X: np.ndarray, y: np.ndarray, params: NetworkParams,
                 masks_all: list[ActivationMask]
                 ) -> tuple[np.ndarray, float, float]:
    """(lam, gauge_network, gauge_all): network_dual's pair and the polar
    gauge of lam over the full arrangement list (dual feasible iff
    gauge_all <= 1 + tol)."""
    lam, gauge_net = network_dual(X, y, params)
    return lam, gauge_net, polar_gauge(X, masks_all, lam).gauge


def network_masks(X: np.ndarray, params: NetworkParams) -> list[ActivationMask]:
    """Deduplicated strict activation patterns of the network's neurons."""
    seen = {}
    for i in range(params.m):
        mask = mask_of(X, params.W1[:, i])
        seen.setdefault(mask.bits, mask)
    return [seen[k] for k in sorted(seen)]
