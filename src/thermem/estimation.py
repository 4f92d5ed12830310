"""M-step estimators, covariance constraints, and the outer EM loop.

The E-step (steady smoother) condenses the data into the three moments of
``SmootherStats``; everything here consumes only those. The parameter update
is the weighted least-squares solution
    theta = (sum E{M' Q^{-1} M})^{-1} sum E{M' Q^{-1} dT},    dT = (T[t+1]-T[t])/dtau
and the full-covariance update is the expected residual outer product
    Q_full = 1/(N-1) sum E{(dT - M theta)(dT - M theta)'}.
With r = [T_t; P_t], M[t] theta = G(theta) r and column i of M[t] is G_i r
for the sparse regressor G_i = G(e_i) (thermem.graph), so every expected
term reduces to rr = sum E{r r'}, dr = sum E{d r'} and dd = sum E{d d'} for
the step d = dtau dT:
    sum E{M' Q^{-1} M}[i, j] = tr(G_i' Q^{-1} G_j rr),
    sum E{M' Q^{-1} dT}[i]   = tr(G_i' Q^{-1} dr) / dtau,   sum E{dT dT'} = dd / dtau^2,
    sum E{M theta theta' M'} = G rr G',   sum E{dT theta' M'} = dr G' / dtau.

Q_full is never used directly: it is projected onto one of three constraint
families (isotropic qI, free diagonal, or alpha LL' + beta I fitted in the
Frobenius-nearest sense), which regularizes the covariance estimation. The
theta/Q cross dependency is resolved by lagging Q one iteration for every
constraint kind.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from thermem.errors import (
    ConfigurationError,
    IdentifiabilityError,
    NumericalError,
    ThermemError,
)
from thermem.graph import GraphOperators, SharingScheme, build_operators
from thermem.mesh import CompartmentMesh
from thermem.model import (
    ThetaParams,
    assemble,
    initial_state_from_observation,
)
from thermem.smoother import SmootherStats, accumulate_stats, rtss_steady

logger = logging.getLogger(__name__)

SCALAR_IDENTITY = "scalar_identity"
DIAGONAL = "diagonal"
ALPHA_LL_BETA_I = "alpha_LL_beta_I"
CONSTRAINT_KINDS = (SCALAR_IDENTITY, DIAGONAL, ALPHA_LL_BETA_I)

PARAM_FLOOR = 1e-12
COND_LIMIT = 1e12  # largest accepted condition number of the M-step normal matrix
_ROW_BLOCK = 16  # rows of a dense Q^{-1} per product in the M-step


class _Throttle:
    """Logs each message format at WARNING five times, then at DEBUG."""

    def __init__(self):
        self.counts = {}

    def __call__(self, msg, *args):
        count = self.counts[msg] = self.counts.get(msg, 0) + 1
        if count == 5:
            msg += " (further ones logged at DEBUG)"
        logger.log(logging.WARNING if count <= 5 else logging.DEBUG, msg, *args)


@dataclass(eq=False)
class CovarianceConstraint:
    """Structured process-noise covariance with its current parameters:
    ``params`` is [q] (qI), the n variances (diagonal) or [alpha, beta]
    (alpha LL' + beta I, with ``LL`` set)."""

    kind: str
    n: int
    params: np.ndarray
    LL: Optional[np.ndarray] = field(default=None, repr=False)

    @staticmethod
    def scalar_identity(q: float, n: int) -> "CovarianceConstraint":
        if q <= 0:
            raise ValueError("q must be positive")
        return CovarianceConstraint(SCALAR_IDENTITY, n, np.array([float(q)]))

    @staticmethod
    def diagonal(q, n: int) -> "CovarianceConstraint":
        q_vec = np.full(n, float(q)) if np.isscalar(q) else np.asarray(q, dtype=np.float64)
        if q_vec.shape != (n,) or np.any(q_vec <= 0):
            raise ValueError("diagonal q must be a positive length-n vector")
        return CovarianceConstraint(DIAGONAL, n, q_vec)

    @staticmethod
    def alpha_LL_beta_I(L: np.ndarray, alpha: float, beta: float) -> "CovarianceConstraint":
        L = np.asarray(L, dtype=np.float64)
        if alpha <= 0 or beta <= 0:
            raise ValueError("alpha and beta must be positive")
        return CovarianceConstraint(ALPHA_LL_BETA_I, L.shape[0], np.array([alpha, beta], dtype=np.float64),
                                    L @ L.T)

    def matrix(self) -> np.ndarray:
        if self.LL is None:
            return np.diag(np.broadcast_to(self.params, self.n))
        alpha, beta = self.params
        return alpha * self.LL + beta * np.eye(self.n)

    def precision(self) -> np.ndarray:
        """Q^{-1}: the n inverse variances (qI, diagonal) or the dense inverse (aLLbI)."""
        if self.LL is None:
            return 1.0 / np.broadcast_to(self.params, self.n)
        return np.linalg.inv(self.matrix())

    def param_names(self):
        if self.kind == SCALAR_IDENTITY:
            return ["q"]
        if self.kind == DIAGONAL:
            return [f"q_{i}" for i in range(self.n)]
        return ["alpha", "beta"]


def _quadratic_terms(stats: SmootherStats, ops: GraphOperators, Q_inv, dtau):
    """sum E{M' Q^{-1} M} and sum E{M' Q^{-1} dT}; Q^{-1} is an n-vector or n x n.

    Entry (i, j) is tr(G_i' Q^{-1} G_j rr) and entry i of the right-hand side
    tr(G_i' Q^{-1} dr) / dtau, each a sum over the nonzeros of G_i. The diagonal
    families' vector weights each row of each G_i once the row is summed, so
    scaling Q by a constant commutes exactly: the qI update is q-invariant.
    """
    p, n = ops.n_theta, ops.n
    dense = np.ndim(Q_inv) == 2
    if dense:
        # (Q^{-1} X)[row, col] only, block by block of _ROW_BLOCK rows: those
        # rows of Q^{-1} times the columns of X that their nonzeros use.
        blocks = []
        for start in range(0, n, _ROW_BLOCK):
            at = np.flatnonzero((ops.row >= start) & (ops.row < start + _ROW_BLOCK))
            cols, col_at = np.unique(ops.col[at], return_inverse=True)
            blocks.append((Q_inv[start : start + _ROW_BLOCK], at, cols, ops.row[at] - start, col_at))

    def traces(X):
        """tr(G_i' Q^{-1} X) for every i, for an n x (n + n_P) matrix X."""
        if dense:
            QX, XT = np.empty(ops.row.size), np.ascontiguousarray(X.T)
            for Q_rows, at, cols, r, c in blocks:
                QX[at] = (Q_rows @ XT[cols].T)[r, c]
            return np.bincount(ops.param, weights=ops.val * QX, minlength=p)
        by_row = np.bincount(ops.param * n + ops.row, weights=ops.val * X[ops.row, ops.col],
                             minlength=p * n)
        return by_row.reshape(p, n) @ Q_inv

    MQM = np.column_stack([traces(ops.regressor(e) @ stats.rr) for e in np.eye(p)])
    return MQM, traces(stats.dr / dtau)


def _theta_terms(stats: SmootherStats, ops: GraphOperators, theta: ThetaParams):
    """sum E{dT dT'} = dd / dtau^2, sum E{M theta theta' M'} = G rr G' and
    sum E{dT theta' M'} = dr G' / dtau, for G = G(theta)."""
    G = ops.regressor(theta.vector)
    return stats.dd / theta.dtau**2, G @ (G @ stats.rr).T, (G @ (stats.dr / theta.dtau).T).T


def update_theta(stats: SmootherStats, ops: GraphOperators, Q_inv, dtau: float, warn) -> ThetaParams:
    """Weighted least-squares parameter update from the sufficient statistics
    for ``Q_inv`` as ``CovarianceConstraint.precision`` gives it (invariant to
    the scale of a diagonal family's Q); ``warn`` logs clamps.

    The normal matrix is Jacobi-equilibrated before solving; this leaves the
    estimator unchanged but keeps column-scale disparities (conductances see
    temperature differences, gains see raw powers) out of the conditioning.
    """
    MQM, rhs = _quadratic_terms(stats, ops, Q_inv, dtau)
    d = np.sqrt(np.abs(np.diagonal(MQM)))
    d[d == 0] = 1.0
    Ms = MQM / np.outer(d, d)
    u, s, vt = np.linalg.svd(Ms)
    if s[0] <= 0 or not np.isfinite(s).all() or s[-1] < s[0] / COND_LIMIT:
        null = s < s[0] / COND_LIMIT if s[0] > 0 else np.ones_like(s, dtype=bool)
        indices = sorted({int(np.argmax(np.abs(vt[i]))) for i in np.nonzero(null)[0]})
        raise IdentifiabilityError(
            f"normal matrix condition exceeds {COND_LIMIT:.1e}; weakly identifiable "
            f"parameter indices: {indices}",
            null_indices=indices,
        )
    vec = (vt.T @ ((u.T @ (rhs / d)) / s)) / d
    if np.any(vec < 0):
        bad = np.nonzero(vec < 0)[0]
        warn("clamping %d negative parameter(s) at indices %s to zero", bad.size, bad.tolist())
        vec = np.clip(vec, 0.0, None)
    return ThetaParams.from_vector(vec, ops.n_k, dtau)


def update_Q_full(stats: SmootherStats, ops: GraphOperators, theta: ThetaParams) -> np.ndarray:
    """Full ML covariance of the one-step scaled residuals dT - M theta."""
    dTdT, MththM, dTthM = _theta_terms(stats, ops, theta)
    Q = (dTdT - dTthM - dTthM.T + MththM) / (stats.N - 1)
    return (Q + Q.T) / 2


def project_constraint(Q_full, c: CovarianceConstraint, warn) -> CovarianceConstraint:
    """Constraint-family parameters nearest (Frobenius) to Q_full, floored at
    PARAM_FLOOR; ``warn`` logs floors."""
    n = c.n
    if c.kind == SCALAR_IDENTITY:
        vec = np.array([float(np.trace(Q_full)) / n])
    elif c.kind == DIAGONAL:
        vec = np.diagonal(Q_full).copy()
    else:
        # alpha LL' + beta I: two-variable least squares on vec(Q_full).
        LL = c.LL
        a11 = float(np.sum(LL * LL))
        a12 = float(np.trace(LL))
        a22 = float(n)
        det = a11 * a22 - a12 * a12
        if det <= 1e-12 * max(a11, a22) ** 2:
            raise ConfigurationError("vec(LL') and vec(I) are collinear; constraint is degenerate")
        b1 = float(np.sum(LL * Q_full))
        b2 = float(np.trace(Q_full))
        vec = np.array([(a22 * b1 - a12 * b2) / det, (a11 * b2 - a12 * b1) / det])
    low = vec < PARAM_FLOOR
    if low.any():
        warn("flooring %d %s covariance parameter(s) (smallest %.3g) at %.0e",
             low.sum(), c.kind, vec.min(), PARAM_FLOOR)
        vec[low] = PARAM_FLOOR
    return replace(c, params=vec)


def build_L(ops: GraphOperators) -> np.ndarray:
    """Support pattern of the coupling operator, ambient column excluded.

    Marks every (head, head) and (head, tail) position of the graph, the
    ambient head row included, with unit entries; only the ambient column is
    zeroed.
    """
    L = np.zeros((ops.n, ops.n))
    L[ops.heads, ops.heads] = 1.0
    L[ops.heads, ops.tails] = 1.0
    L[:, ops.ambient_index] = 0.0
    return L


@dataclass
class EmConfig:
    """Knobs of the EM loop; R is the known measurement covariance."""

    max_iter: int = 500
    theta_tol: float = 1e-6
    theta_init: object = 1e-2   # scalar broadcast or a ThetaParams
    q_init: float = 1e-2
    R: object = 1e-6
    dtau: float = 1.0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.theta_tol <= 0 or self.q_init <= 0:
            raise ValueError("tolerances and q_init must be positive")
        R = np.asarray(self.R, dtype=np.float64)
        if R.ndim == 2 and np.isfinite(R).all() and np.array_equal(R, R.T):
            R = np.linalg.eigvalsh(R)
        if R.ndim > 1 or not np.all(np.isfinite(R) & (R > 0)):
            raise ValueError(
                "R must be a positive scalar, a vector of positive entries, "
                f"or a symmetric positive-definite matrix, got {self.R!r}"
            )


@dataclass(eq=False)
class EmTrace:
    """One row per E-step, appended by ``add``; ``table`` lays out trace.csv.
    ``step_length`` is the SQUAREM step that built the E-step's input (1: plain
    EM); a rejected extrapolation repeats the row before."""

    theta: list = field(default_factory=list)
    constraint_params: list = field(default_factory=list)
    loglik: list = field(default_factory=list)
    q_residual: list = field(default_factory=list)
    theta_rel_change: list = field(default_factory=list)
    step_length: list = field(default_factory=list)
    rejected: list = field(default_factory=list)
    theta_names: tuple = ()
    constraint_names: tuple = ()
    stop_reason: str = ""

    def __len__(self):
        return len(self.theta)

    def add(self, step, row=None):
        """Append the row ``(theta vector, constraint params, loglik, q_residual,
        theta_rel_change)`` of the E-step whose input ``step`` built; with no
        row, a rejected extrapolation that repeats the row before."""
        cols = (self.theta, self.constraint_params, self.loglik, self.q_residual,
                self.theta_rel_change)
        for col, value in zip(cols, row or [c[-1] for c in cols]):
            col.append(value)
        self.step_length.append(step)
        self.rejected.append(row is None)

    def table(self):
        """trace.csv's column names and its rows (``iter`` counts from 1)."""
        names = ["iter", "loglik", "theta_rel_change", "q_residual", *self.theta_names,
                 *self.constraint_names, "step_length", "rejected"]
        return names, np.column_stack([
            np.arange(1, len(self) + 1), self.loglik, self.theta_rel_change, self.q_residual,
            self.theta, self.constraint_params, self.step_length, self.rejected])


def _init_constraint(kind: str, q_init: float, n: int, ops: GraphOperators):
    if kind == SCALAR_IDENTITY:
        return CovarianceConstraint.scalar_identity(q_init, n)
    if kind == DIAGONAL:
        return CovarianceConstraint.diagonal(q_init, n)
    if kind == ALPHA_LL_BETA_I:
        return CovarianceConstraint.alpha_LL_beta_I(build_L(ops), q_init, q_init)
    raise ConfigurationError(f"unknown constraint kind {kind!r}; expected one of {CONSTRAINT_KINDS}")


def _init_theta(cfg: EmConfig, ops: GraphOperators) -> ThetaParams:
    if isinstance(cfg.theta_init, ThetaParams):
        return cfg.theta_init
    v = float(cfg.theta_init)
    return ThetaParams(k=np.full(ops.n_k, v), z=np.full(ops.n_z, v), dtau=cfg.dtau)


@dataclass(eq=False)
class EmProblem:
    """What every E-step of one EM run shares: operators, data and settings."""

    ops: GraphOperators
    observed: list
    Y: np.ndarray
    P: np.ndarray
    T_1: np.ndarray
    cfg: EmConfig

    def em_step(self, theta: ThetaParams, constraint: CovarianceConstraint, V0, warn):
        """The EM map: E-step at (theta, constraint), its DARE warm-started from
        V0 (None: cold), then M-step, which logs clamps and floors via ``warn``.
        Returns (theta', constraint', log-likelihood at the input, the DARE
        solution, Q_full). Q_full is of the dtau-scaled residuals, so the
        state noise carries a dtau^2 factor."""
        dtau = self.cfg.dtau
        model = assemble(self.ops, theta, self.observed, Q=dtau**2 * constraint.matrix(), R=self.cfg.R)
        out = rtss_steady(model, self.Y, self.P, self.T_1, V0=V0)
        stats = accumulate_stats(out, self.P)
        loglik, V = out.loglik, out.V_S_minus
        del model, out  # free the N x n means before the M-step
        theta_new = update_theta(stats, self.ops, constraint.precision(), dtau, warn)
        Q_full = update_Q_full(stats, self.ops, theta_new)
        c_new = project_constraint(Q_full, constraint, warn)
        return theta_new, c_new, loglik, V, Q_full


def em_setup(mesh: CompartmentMesh, scheme: SharingScheme, data, cfg: EmConfig, constraint: str):
    """The problem ``run_em`` iterates on and its initial (theta, constraint)."""
    ops = build_operators(mesh, scheme)
    observed = mesh.observed_indices
    if not observed:
        raise ConfigurationError("mesh has no observed compartments")
    Y = np.atleast_2d(np.asarray(data.y, dtype=np.float64))
    P = np.atleast_2d(np.asarray(data.P, dtype=np.float64))
    if Y.shape[1] != len(observed):
        raise ConfigurationError(
            f"dataset has {Y.shape[1]} observation channels, mesh tags {len(observed)}"
        )
    T_1 = initial_state_from_observation(Y[0], observed, ops.ambient_index, ops.n)

    theta = _init_theta(cfg, ops)
    if theta.k.shape[0] != ops.n_k or theta.z.shape[0] != ops.n_z:
        raise ConfigurationError("theta_init dimensions do not match the scheme")
    if theta.dtau != cfg.dtau:
        raise ConfigurationError(f"theta_init dtau {theta.dtau:g} differs from the EM dtau {cfg.dtau:g}")
    return EmProblem(ops, observed, Y, P, T_1, cfg), theta, _init_constraint(
        constraint, cfg.q_init, ops.n, ops)


def _log_point(theta: ThetaParams, c: CovarianceConstraint) -> np.ndarray:
    """SQUAREM coordinates: log theta (floored) and log q, or log alpha, beta."""
    return np.log(np.maximum(np.concatenate([theta.vector, c.params]), PARAM_FLOOR))


def _exp_point(u: np.ndarray, theta: ThetaParams, c: CovarianceConstraint):
    """(theta, constraint) at log point ``u``, in the family and dtau of (theta, c).
    Parameters above sqrt(float64 max) are refused: the E-step squares them."""
    if u.max() > 0.5 * np.log(np.finfo(np.float64).max):
        raise NumericalError("extrapolated parameter overflows")
    vec, p = np.exp(np.maximum(u, np.log(PARAM_FLOOR))), theta.vector.size
    return ThetaParams.from_vector(vec[:p], theta.k.size, theta.dtau), replace(c, params=vec[p:])


def _s3_step(r: np.ndarray, v: np.ndarray, cap: float) -> float:
    """SQUAREM-S3 step length -alpha = |r|/|v|, clipped to [1, cap] without dividing by 0."""
    rn, vn = np.linalg.norm(r), np.linalg.norm(v)
    return max(1.0, rn / vn) if rn < cap * vn else cap


def run_em(
    mesh: CompartmentMesh,
    scheme: SharingScheme,
    data,
    cfg: EmConfig,
    constraint: str = SCALAR_IDENTITY,
):
    """EM identification: ``em_step`` iterated under SQUAREM acceleration.

    ``data`` is a Trajectory providing observations y and inputs P; observed
    compartments are those tagged in the mesh (their order fixes the rows of
    C and must match the columns of y). Returns (theta, constraint, trace).
    On failure the raised error carries the trace so far as ``exc.trace``.

    SQUAREM-S3 (Varadhan & Roland, Scand. J. Stat. 35:335, 2008; see the
    README): from EM steps x0 -> x1 -> x2 in log coordinates, the next E-step
    runs at x0 - 2 alpha r + alpha^2 v if that does not lower the
    log-likelihood below L(x1), else at x2. Diagonal constraints take plain steps.
    """
    prob, theta, c = em_setup(mesh, scheme, data, cfg, constraint)
    ops = prob.ops
    trace = EmTrace(
        theta_names=tuple(scheme.k_names or [f"k_{i}" for i in range(ops.n_k)])
        + tuple(scheme.z_names or [f"z_{i}" for i in range(ops.n_z)]),
        constraint_names=tuple(c.param_names()),
    )
    warn = _Throttle()  # the run's clamp, floor and log-likelihood messages
    result = (theta, c)  # what the run returns: the newest accepted EM output

    def record(x, res, step):
        """Append the row of the E-step at ``x`` (``res`` None: rejected); True to stop."""
        nonlocal result
        rel, row = np.inf, None
        if res is not None:
            theta_new, c_new, loglik, _, Q_full = res
            result = res[:2]
            old = x[0].vector
            rel = float(np.max(np.abs(theta_new.vector - old) / np.maximum(np.abs(old), 1e-300)))
            if trace.loglik and loglik < trace.loglik[-1] - 1e-8 * (1.0 + abs(trace.loglik[-1])):
                warn("log-likelihood decreased beyond tolerance at E-step %d (%.6g -> %.6g)",
                     len(trace) + 1, trace.loglik[-1], loglik)
            q_residual = float(np.linalg.norm(Q_full - c_new.matrix(), "fro"))
            row = (theta_new.vector, c_new.params, loglik, q_residual, rel)
        trace.add(step, row)
        converged = rel < cfg.theta_tol
        if converged or len(trace) == cfg.max_iter:
            trace.stop_reason = "converged" if converged else "max_iter"
        return bool(trace.stop_reason)

    amax, n = 1.0, ops.n_theta
    x0, V0, head = (theta, c), None, None  # head: em_step at x0 once it has run
    try:
        while True:
            if head is None:
                head = prob.em_step(*x0, V0, warn)
                if record(x0, head, 1.0):
                    break
            tail = prob.em_step(*head[:2], head[3], warn)
            if record(head[:2], tail, 1.0):
                break
            x2, V1, L1 = tail[:2], tail[3], tail[2]
            u0, u1 = _log_point(*x0), _log_point(*head[:2])
            r = u1 - u0
            v = _log_point(*x2) - u1 - r
            # Theta sets the step; the covariance parameters take their own, at most theta's.
            step = 1.0 if c.kind == DIAGONAL else _s3_step(r[:n], v[:n], amax)
            if step == amax:
                amax *= 4.0
            if step == 1.0:
                x0, V0, head = x2, V1, None
                continue
            s = np.full(r.size, step)
            s[n:] = _s3_step(r[n:], v[n:], step)
            try:
                xe = _exp_point(u0 + 2.0 * s * r + s**2 * v, *x2)
                held = []  # the M-step's messages count only if the point is accepted
                res = prob.em_step(*xe, V1, lambda *msg: held.append(msg))
                why = f"log-likelihood {res[2]:.6g} below {L1:.6g}"
                why = None if res[2] >= L1 - 1e-8 * (1.0 + abs(L1)) else why
            except (ThermemError, np.linalg.LinAlgError) as exc:
                why = str(exc)
            if why is None:
                for msg in held:
                    warn(*msg)
                x0, head = xe, res
                if record(xe, res, step):
                    break
            else:
                logger.debug("extrapolation by %.3g rejected at E-step %d: %s",
                             step, len(trace) + 1, why)
                x0, V0, head = x2, V1, None
                if record(None, None, step):
                    break
    except ThermemError as exc:
        trace.stop_reason = f"aborted: {exc}"
        exc.trace = trace
        raise

    return (*result, trace)
