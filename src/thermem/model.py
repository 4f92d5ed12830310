"""LTI state-space assembly and simulation for compartment thermal models.

The one-step update for compartment temperatures is
    T[t+1] = A T[t] + B P[t] + w[t],        w ~ N(0, Q)
    y[t]   = C T[t] + v[t],                 v ~ N(0, R)
with
    A = I - dtau * sum_a k_a S_a            (= I - dtau * Io_dyn diag(C_sel k) J')
    B = dtau * B_sel diag(A_sel z)
built from the graph operators (see thermem.graph), so every row of A sums
to one (a uniform temperature offset is preserved) and the ambient row is
exactly the identity. The same update is linear in the parameter vector
theta = [k', z']':
    T[t+1] = T[t] + dtau * M[t] theta + w[t]
where M[t] = [-S_1 T[t], ..., -S_nk T[t], B_sel diag(P[t]) A_sel] is the
per-step regression matrix; the M-step never forms it and works on its
expected sums (thermem.estimation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from thermem import _kernels
from thermem.errors import DivergenceError, StabilityError
from thermem.graph import GraphOperators


@dataclass(frozen=True)
class ThetaParams:
    """Shared parameters: conductance classes k, source gains z, time step."""

    k: np.ndarray
    z: np.ndarray
    dtau: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "k", np.atleast_1d(np.asarray(self.k, dtype=np.float64)))
        object.__setattr__(self, "z", np.atleast_1d(np.asarray(self.z, dtype=np.float64)))
        if np.any(self.k < 0) or np.any(self.z < 0):
            raise ValueError("parameters k and z must be nonnegative")
        if not self.dtau > 0:
            raise ValueError("dtau must be positive")

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.k, self.z])

    @staticmethod
    def from_vector(vec, n_k: int, dtau: float) -> "ThetaParams":
        vec = np.asarray(vec, dtype=np.float64)
        return ThetaParams(k=vec[:n_k], z=vec[n_k:], dtau=dtau)


@dataclass(eq=False)
class StateSpaceModel:
    """Assembled matrices plus noise covariances; immutable after assembly."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]

    @property
    def n_P(self) -> int:
        return self.B.shape[1]


@dataclass(eq=False)
class Trajectory:
    """States, inputs, and observations over N steps.

    ``T`` may be None for measurement-only datasets. ``P`` keeps N rows for
    file-format symmetry; the dynamics only consume rows 0..N-2.
    """

    P: np.ndarray
    y: np.ndarray
    T: Optional[np.ndarray] = None

    @property
    def N(self) -> int:
        return self.y.shape[0] if self.y is not None else self.T.shape[0]


def _as_cov(value, dim: int, name: str) -> np.ndarray:
    """Scalar -> iso, vector -> diagonal, matrix -> checked square."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        return float(arr) * np.eye(dim)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise ValueError(f"{name} diagonal has length {arr.shape[0]}, expected {dim}")
        return np.diag(arr)
    if arr.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got {arr.shape}")
    return arr


def selector_matrix(indices: Sequence[int], n: int) -> np.ndarray:
    """Observation matrix with one unit row per observed compartment."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        raise ValueError("observed indices must be unique")
    if any(not 0 <= i < n for i in idx):
        raise ValueError("observed index out of range")
    C = np.zeros((len(idx), n))
    C[np.arange(len(idx)), idx] = 1.0
    return C


def assemble(
    ops: GraphOperators,
    theta: ThetaParams,
    observed: Sequence[int],
    Q=0.0,
    R=0.0,
) -> StateSpaceModel:
    """Build A, B, C with covariances; rejects explicit-scheme violations."""
    if theta.k.shape[0] != ops.n_k or theta.z.shape[0] != ops.n_z:
        raise ValueError(
            f"theta dimensions ({theta.k.shape[0]}, {theta.z.shape[0]}) do not match "
            f"operators ({ops.n_k}, {ops.n_z})"
        )
    S = ops.coupling_sum(theta.k)
    diag = 1.0 - theta.dtau * S.diagonal()
    if np.any(diag < 0):
        worst = int(np.argmin(diag))
        raise StabilityError(
            f"explicit scheme violated: dtau * coupling sum exceeds 1 at compartment "
            f"{worst} (diagonal of A would be {diag[worst]:.4g})"
        )
    A = np.eye(ops.n) - theta.dtau * S.toarray()
    B = theta.dtau * ops.source_matrix(theta.z).toarray()
    C = selector_matrix(observed, ops.n)
    return StateSpaceModel(
        A=A,
        B=B,
        C=C,
        Q=_as_cov(Q, ops.n, "Q"),
        R=_as_cov(R, len(list(observed)), "R"),
    )


def _psd_factor(Q: np.ndarray) -> np.ndarray:
    """Lower-triangular-ish factor F with F F' = Q, tolerant of PSD rank loss.

    A diagonal entry <= 0 rules out a Cholesky factor (AAt process noise
    zeroes the ambient one), so such Q go straight to the eigen-factor.
    """
    if np.all(np.diag(Q) > 0):
        try:
            return np.linalg.cholesky(Q)
        except np.linalg.LinAlgError:
            pass
    vals, vecs = np.linalg.eigh(Q)
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


def _check_finite(T: np.ndarray):
    bad = ~np.isfinite(T).all(axis=1)
    if bad.any():
        raise DivergenceError(int(np.argmax(bad)))


def simulate(
    model: StateSpaceModel,
    T_1: np.ndarray,
    P: np.ndarray,
    seed=None,
    noiseless: bool = False,
) -> Trajectory:
    """Roll the model forward; deterministic given the seed.

    ``P`` has one row per output step (N rows for an N-step trajectory); the
    dynamics consume rows 0..N-2. With ``noiseless=True`` both process and
    measurement noise are zero. Noise draw order is fixed (all w first, then
    all v) so trajectories are bit-reproducible for a given seed.
    """
    T_1 = np.asarray(T_1, dtype=np.float64)
    P = np.atleast_2d(np.asarray(P, dtype=np.float64))
    N = P.shape[0]
    if N < 2:
        raise ValueError("trajectory needs N >= 2 steps")
    P_dyn = P[: N - 1]

    if noiseless:
        T = _kernels.rollout(model.A, model.B, T_1, P_dyn)
        _check_finite(T)
        y = T @ model.C.T
        return Trajectory(P=P, y=y, T=T)

    rng = np.random.default_rng(seed)
    FQ = _psd_factor(model.Q)
    W = rng.standard_normal((N - 1, model.n)) @ FQ.T
    V = rng.standard_normal((N, model.n_y)) @ _psd_factor(model.R).T
    T = _kernels.rollout(model.A, model.B, T_1, P_dyn, W)
    _check_finite(T)
    y = T @ model.C.T + V
    return Trajectory(P=P, y=y, T=T)


def predict(model: StateSpaceModel, T_1: np.ndarray, P: np.ndarray) -> Trajectory:
    """Noiseless rollout over the horizon set by P."""
    return simulate(model, T_1, P, noiseless=True)


def initial_state_from_observation(
    y_1: np.ndarray, observed: Sequence[int], ambient_index: int, n: int
) -> np.ndarray:
    """First-measurement initial state: observed entries from y_1, the rest
    set to the observed ambient temperature."""
    observed = list(observed)
    if ambient_index not in observed:
        raise ValueError("ambient compartment must be observed to seed a prediction")
    T_1 = np.full(n, float(np.asarray(y_1)[observed.index(ambient_index)]))
    T_1[observed] = np.asarray(y_1, dtype=np.float64)
    return T_1
