"""M-step estimators, covariance constraints, and the outer EM loop.

The E-step (steady smoother) condenses the data into six statistic matrices;
everything here consumes only those. The parameter update is the weighted
least-squares solution
    theta = (sum E{M' Q^{-1} M})^{-1} sum E{M' Q^{-1} dT},    dT = (T[t+1]-T[t])/dtau
and the full-covariance update is the expected residual outer product
    Q_full = 1/(N-1) sum E{(dT - M theta)(dT - M theta)'}.
Because M[t] is linear in the state, each expected term reduces to the
per-class coupling matrices and the source map sandwiching the statistics;
the identities used are diag(a) X diag(b) = X o (a b') and
E{T_t T_{t+1}'} = lagged statistic XZ.

Q_full is never used directly: it is projected onto one of three constraint
families (isotropic qI, free diagonal, or alpha LL' + beta I fitted in the
Frobenius-nearest sense), which regularizes the covariance estimation. The
theta/Q cross dependency is resolved by lagging Q one iteration for every
constraint kind.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from thermem.errors import (
    ConfigurationError,
    IdentifiabilityError,
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


@dataclass(eq=False)
class CovarianceConstraint:
    """Structured process-noise covariance with its current parameters."""

    kind: str
    n: int
    q: float = 0.0
    q_vec: Optional[np.ndarray] = None
    alpha: float = 0.0
    beta: float = 0.0
    LL: Optional[np.ndarray] = field(default=None, repr=False)  # L L' of alpha LL' + beta I

    @staticmethod
    def scalar_identity(q: float, n: int) -> "CovarianceConstraint":
        if q <= 0:
            raise ValueError("q must be positive")
        return CovarianceConstraint(kind=SCALAR_IDENTITY, n=n, q=float(q))

    @staticmethod
    def diagonal(q, n: int) -> "CovarianceConstraint":
        q_vec = np.full(n, float(q)) if np.isscalar(q) else np.asarray(q, dtype=np.float64)
        if q_vec.shape != (n,) or np.any(q_vec <= 0):
            raise ValueError("diagonal q must be a positive length-n vector")
        return CovarianceConstraint(kind=DIAGONAL, n=n, q_vec=q_vec)

    @staticmethod
    def alpha_LL_beta_I(L: np.ndarray, alpha: float, beta: float) -> "CovarianceConstraint":
        L = np.asarray(L, dtype=np.float64)
        n = L.shape[0]
        if alpha <= 0 or beta <= 0:
            raise ValueError("alpha and beta must be positive")
        return CovarianceConstraint(kind=ALPHA_LL_BETA_I, n=n, alpha=float(alpha), beta=float(beta), LL=L @ L.T)

    def matrix(self) -> np.ndarray:
        if self.kind == SCALAR_IDENTITY:
            return self.q * np.eye(self.n)
        if self.kind == DIAGONAL:
            return np.diag(self.q_vec)
        return self.alpha * self.LL + self.beta * np.eye(self.n)

    def inv_matrix(self) -> np.ndarray:
        if self.kind == SCALAR_IDENTITY:
            return (1.0 / self.q) * np.eye(self.n)
        if self.kind == DIAGONAL:
            return np.diag(1.0 / self.q_vec)
        return np.linalg.inv(self.matrix())

    def params(self) -> np.ndarray:
        """Flat parameter vector recorded in EM traces."""
        if self.kind == SCALAR_IDENTITY:
            return np.array([self.q])
        if self.kind == DIAGONAL:
            return self.q_vec.copy()
        return np.array([self.alpha, self.beta])

    def param_names(self):
        if self.kind == SCALAR_IDENTITY:
            return ["q"]
        if self.kind == DIAGONAL:
            return [f"q_{i}" for i in range(self.n)]
        return ["alpha", "beta"]


def _diag_or_none(M: np.ndarray):
    if np.count_nonzero(M - np.diag(np.diagonal(M))) == 0:
        return np.diagonal(M)
    return None


def _quadratic_terms(stats: SmootherStats, ops: GraphOperators, Q_inv, dtau):
    """sum E{M' Q^{-1} M} and sum E{M' Q^{-1} dT}.

    For diagonal Q^{-1} the weighting is applied after the gathered
    differences, so scaling Q by a constant commutes exactly with the
    computation (the scalar-identity update is then q-invariant to rounding).
    """
    n_k, n_z, p = ops.n_k, ops.n_z, ops.n_theta
    active = ops.heads != ops.ambient_index
    h, t = ops.heads[active], ops.tails[active]
    w, cls = ops.weights[active], ops.k_class[active]
    qdiag = _diag_or_none(Q_inv)
    src = np.arange(ops.n_P)

    def edge_gather(X):
        """w_e * (Q^{-1} X)[h_e, h_e] - (Q^{-1} X)[h_e, t_e] per active edge."""
        if qdiag is None:
            QX = Q_inv @ X
            return w * (QX[h, h] - QX[h, t])
        return w * qdiag[h] * (X[h, h] - X[h, t])

    def source_gather(X):
        """(Q^{-1} X)[comp_p, p] per source channel."""
        if qdiag is None:
            QX = Q_inv @ X
            return QX[ops.src_comp, src]
        return qdiag[ops.src_comp] * X[ops.src_comp, src]

    MQM = np.zeros((p, p))
    # kk block: (a,b) -> tr(S_a' Q^{-1} S_b XX)
    for b, S_b in enumerate(ops.coupling_by_class):
        v = edge_gather(np.asarray(S_b @ stats.XX))
        MQM[:n_k, b] = np.bincount(cls, weights=v, minlength=n_k)

    if n_z:
        # kz block: -(sum over sources of Q^{-1} S_a XU picked at the source cells)
        for a, S_a in enumerate(ops.coupling_by_class):
            g = source_gather(np.asarray(S_a @ stats.XU))
            MQM[a, n_k:] = -np.bincount(ops.z_class, weights=g, minlength=n_z)
        MQM[n_k:, :n_k] = MQM[:n_k, n_k:].T
        # zz block
        comp = ops.src_comp
        G = Q_inv[np.ix_(comp, comp)] * stats.UU
        Z = np.zeros((ops.n_P, n_z))
        Z[src, ops.z_class] = 1.0
        MQM[n_k:, n_k:] = Z.T @ G @ Z

    rhs = np.zeros(p)
    d = edge_gather((stats.XZ - stats.XX).T)
    rhs[:n_k] = -np.bincount(cls, weights=d, minlength=n_k) / dtau
    if n_z:
        g = source_gather(stats.ZU - stats.XU)
        rhs[n_k:] = np.bincount(ops.z_class, weights=g, minlength=n_z) / dtau
    return MQM, rhs


def _theta_terms(stats: SmootherStats, ops: GraphOperators, theta: ThetaParams):
    """sum E{dT dT'}, sum E{M theta theta' M'} and sum E{dT theta' M'}.

    With S = sum_a k_a S_a (the coupling sum) and Bt the source map at z,
    each step contributes M_t theta = -S T_t + Bt P_t, so all three sums
    collapse onto the statistic matrices.
    """
    dTdT = (stats.XX - stats.XZ - stats.XZ.T + stats.ZZ) / theta.dtau**2
    S = ops.coupling_sum(theta.k)
    Bt = ops.source_matrix(theta.z).toarray()
    SX = np.asarray(S @ stats.XX)            # S E{T T'}
    SU = np.asarray(S @ stats.XU)            # S E{T P'}
    SXS = np.asarray(S @ SX.T)               # S (XX S') = S XX S'
    MththM = SXS - SU @ Bt.T - Bt @ SU.T + Bt @ stats.UU @ Bt.T
    D = (stats.XZ - stats.XX).T              # sum E{(T_{t+1}-T_t) T_t'}
    DS = np.asarray(S @ D.T).T               # D S'
    dTthM = (-DS + (stats.ZU - stats.XU) @ Bt.T) / theta.dtau
    return dTdT, MththM, dTthM


def update_theta(stats: SmootherStats, ops: GraphOperators, Q_inv, dtau: float) -> ThetaParams:
    """Weighted least-squares parameter update from the sufficient statistics.

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
        logger.warning(
            "clamping %d negative parameter(s) at indices %s to zero",
            bad.size,
            bad.tolist(),
        )
        vec = np.clip(vec, 0.0, None)
    return ThetaParams.from_vector(vec, ops.n_k, dtau)


def update_Q_full(stats: SmootherStats, ops: GraphOperators, theta: ThetaParams) -> np.ndarray:
    """Full ML covariance of the one-step scaled residuals dT - M theta."""
    dTdT, MththM, dTthM = _theta_terms(stats, ops, theta)
    Q = (dTdT - dTthM - dTthM.T + MththM) / (stats.N - 1)
    return (Q + Q.T) / 2


def project_constraint(Q_full: np.ndarray, c: CovarianceConstraint) -> CovarianceConstraint:
    """Constraint-family parameters nearest (Frobenius) to the full estimate."""
    n = c.n
    if c.kind == SCALAR_IDENTITY:
        q = float(np.trace(Q_full)) / n
        return CovarianceConstraint(kind=SCALAR_IDENTITY, n=n, q=_floored(q, "q"))
    if c.kind == DIAGONAL:
        q_vec = np.diagonal(Q_full).copy()
        low = q_vec < PARAM_FLOOR
        if low.any():
            logger.warning(
                "flooring %d diagonal covariance entries at %.0e", low.sum(), PARAM_FLOOR
            )
            q_vec[low] = PARAM_FLOOR
        return CovarianceConstraint(kind=DIAGONAL, n=n, q_vec=q_vec)
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
    alpha = (a22 * b1 - a12 * b2) / det
    beta = (a11 * b2 - a12 * b1) / det
    return CovarianceConstraint(
        kind=ALPHA_LL_BETA_I,
        n=n,
        alpha=_floored(alpha, "alpha"),
        beta=_floored(beta, "beta"),
        LL=LL,
    )


def _floored(value: float, name: str) -> float:
    if value < PARAM_FLOOR:
        logger.warning("flooring nonpositive %s=%.3g at %.0e", name, value, PARAM_FLOOR)
        return PARAM_FLOOR
    return float(value)


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


@dataclass(eq=False)
class EmTrace:
    """Per-iteration history behind the convergence plots."""

    theta: list = field(default_factory=list)
    constraint_params: list = field(default_factory=list)
    loglik: list = field(default_factory=list)
    q_residual: list = field(default_factory=list)
    theta_rel_change: list = field(default_factory=list)
    theta_names: tuple = ()
    constraint_names: tuple = ()
    stop_reason: str = ""

    def __len__(self):
        return len(self.theta)


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


def run_em(
    mesh: CompartmentMesh,
    scheme: SharingScheme,
    data,
    cfg: EmConfig,
    constraint: str = SCALAR_IDENTITY,
):
    """Alternate steady-smoother E-steps with the constrained M-step.

    ``data`` is a Trajectory providing observations y and inputs P; observed
    compartments are those tagged in the mesh (their order fixes the rows of
    C and must match the columns of y). Returns (theta, constraint, trace).
    On failure the raised error carries the trace so far as ``exc.trace``.
    """
    ops = build_operators(mesh, scheme)
    observed = [c.index for c in mesh.compartments if c.observed]
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
    constraint_state = _init_constraint(constraint, cfg.q_init, ops.n, ops)

    trace = EmTrace(
        theta_names=tuple(ops.k_names or [f"k_{i}" for i in range(ops.n_k)])
        + tuple(ops.z_names or [f"z_{i}" for i in range(ops.n_z)]),
        constraint_names=tuple(constraint_state.param_names()),
    )
    prev_loglik = None
    ll_warnings = 0
    V_prev = None  # the last E-step's DARE solution warm-starts the next

    try:
        for it in range(cfg.max_iter):
            # E-step with the lagged parameter set. The M-step covariance is of
            # the dtau-scaled residuals, so the state-noise covariance carries
            # a dtau^2 factor (a no-op at the default dtau = 1).
            Q_state = cfg.dtau**2 * constraint_state.matrix()
            model = assemble(ops, theta, observed, Q=Q_state, R=cfg.R)
            out = rtss_steady(model, Y, P, T_1, V0=V_prev)
            V_prev = out.V_S_minus
            stats = accumulate_stats(out, P)

            theta_new = update_theta(stats, ops, constraint_state.inv_matrix(), cfg.dtau)
            Q_full = update_Q_full(stats, ops, theta_new)
            constraint_new = project_constraint(Q_full, constraint_state)

            rel = float(
                np.max(
                    np.abs(theta_new.vector - theta.vector)
                    / np.maximum(np.abs(theta.vector), 1e-300)
                )
            )
            trace.theta.append(theta_new.vector)
            trace.constraint_params.append(constraint_new.params())
            trace.loglik.append(out.loglik)
            trace.q_residual.append(
                float(np.linalg.norm(Q_full - constraint_new.matrix(), "fro"))
            )
            trace.theta_rel_change.append(rel)

            if prev_loglik is not None and out.loglik < prev_loglik - 1e-8 * (
                1.0 + abs(prev_loglik)
            ):
                ll_warnings += 1
                level = logging.WARNING if ll_warnings <= 5 else logging.DEBUG
                logger.log(
                    level,
                    "log-likelihood decreased beyond tolerance at iteration %d "
                    "(%.6g -> %.6g)%s",
                    it,
                    prev_loglik,
                    out.loglik,
                    "" if ll_warnings != 5 else " (further decreases logged at DEBUG)",
                )
            prev_loglik = out.loglik
            # Free this E-step's N x n means before the next E-step makes its own.
            del out, stats

            theta = theta_new
            constraint_state = constraint_new
            if rel < cfg.theta_tol:
                trace.stop_reason = "converged"
                break
        else:
            trace.stop_reason = "max_iter"
    except ThermemError as exc:
        trace.stop_reason = f"aborted: {exc}"
        exc.trace = trace
        raise

    return theta, constraint_state, trace
