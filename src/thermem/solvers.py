"""Discrete algebraic Riccati and Lyapunov solvers for steady-state smoothing.

The filter-form DARE solved here is the fixed point of the predicted state
covariance,
    V = A V A' - A V C' (C V C' + R)^{-1} C V A' + Q.
From a nearby start (the previous EM iteration's solution), warm Newton-Hewer
refinement solves the Stein equation X = F X F' + Res(V), with F = A - K C,
K = A V C' (C V C' + R)^{-1} and Res(V) the DARE residual, and sets V <- V + X.
The cold start and fallback is the structure-preserving doubling iteration
(quadratically convergent, no eigen-decompositions), then a plain fixed-point
sweep of the covariance recursion. Lyapunov and Stein equations V = J V J' + W
are solved by the squaring iteration
    V <- V + J^(2^k) V (J^(2^k))'.
Every accepted solution is certified by its fixed-point residual; iterates
are symmetrized each step to suppress drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from thermem.errors import ConvergenceError, NumericalError


@dataclass(eq=False)
class DareProblem:
    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray


@dataclass(eq=False)
class DlyapProblem:
    J: np.ndarray
    W: np.ndarray


def _sym(M):
    return (M + M.T) / 2.0


def _sym_inplace(M):
    """(M + M') / 2 written over M; the same values as ``_sym``."""
    M += M.T
    M *= 0.5
    return M


# Newton-Hewer steps a warm start may take before it falls back to doubling.
_NEWTON_STEPS = 4
_MAX_ITER = 200  # doubling and squaring loops; the fixed-point sweep gets 10x


def _riccati_defect(V, p: DareProblem):
    """DARE residual Ric(V) - V and the predictor gain K = A V C' (C V C' + R)^{-1}."""
    A, C, Q, R = p.A, p.C, p.Q, p.R
    AVC = A @ V @ C.T
    K = np.linalg.solve((C @ V @ C.T + R).T, AVC.T).T
    return A @ V @ A.T - K @ AVC.T + Q - V, K


def dare_residual(V, p: DareProblem) -> float:
    return float(np.linalg.norm(_riccati_defect(V, p)[0], "fro"))


def _check_psd(V):
    eigs = np.linalg.eigvalsh(V)
    if eigs.min() < -1e-10 * max(1.0, eigs.max()):
        raise NumericalError(f"DARE solution indefinite (min eigenvalue {eigs.min():.3g})")
    return V


def _dare_fixed_point(p: DareProblem, V0, tol):
    """Plain covariance recursion V <- A(V - V C'(CVC'+R)^{-1} C V)A' + Q."""
    A, C, Q, R = p.A, p.C, p.Q, p.R
    V = _sym(V0)
    for _ in range(10 * _MAX_ITER):
        S = C @ V @ C.T + R
        try:
            G = np.linalg.solve(S, C @ V)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular innovation covariance: {exc}") from exc
        V_new = _sym(A @ (V - V @ C.T @ G) @ A.T + Q)
        if np.linalg.norm(V_new - V, "fro") <= 0.1 * tol:
            return V_new
        V = V_new
    return V


def _newton_hewer(p: DareProblem, V, threshold):
    """Newton-Hewer steps from V: the certified solution, or None (silently) on
    failure, after ``_NEWTON_STEPS`` steps, or once the residual stops falling."""
    res_prev = np.inf
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(_NEWTON_STEPS + 1):
                D, K = _riccati_defect(V, p)
                res = float(np.linalg.norm(D, "fro"))
                if res < threshold(V):
                    return _check_psd(V)
                if step == _NEWTON_STEPS or not res < res_prev:
                    break
                res_prev = res
                V = V + _squaring(p.A - K @ p.C, _sym_inplace(D), threshold(V))
    except (np.linalg.LinAlgError, ConvergenceError, NumericalError):
        pass  # the caller falls back to doubling
    return None


def solve_dare(p: DareProblem, V0=None) -> np.ndarray:
    """Stabilizing solution of the filter DARE, residual-certified.

    Requires R invertible and (A, C) detectable in every mode not excited by
    Q; with the marginal all-ones thermal mode this holds when the ambient
    temperature is among the observations. A nearby solution ``V0`` starts
    Newton-Hewer refinement; if that fails, doubling runs from a cold start.
    """
    A = np.asarray(p.A, dtype=np.float64)
    C = np.asarray(p.C, dtype=np.float64)
    Q = _sym(np.asarray(p.Q, dtype=np.float64))
    R = _sym(np.asarray(p.R, dtype=np.float64))
    prob = DareProblem(A, C, Q, R)
    n = A.shape[0]
    tol = 1e-10 * max(1.0, np.linalg.norm(Q, "fro"))

    # Certify against the scaled tolerance, but never below the float64
    # residual floor of the problem scale (the cancellation in the gain term
    # caps attainable residuals near 1e-9 relative when R << V; 5e-9 stays
    # 2x inside the 1e-8 relative acceptance bound).
    def threshold(M):
        return max(tol, 5e-9 * max(1.0, np.linalg.norm(M, "fro")))

    if V0 is not None:
        V0 = np.asarray(V0, dtype=np.float64)
        if V0.shape != (n, n):
            raise ValueError(f"V0 must be {n}x{n}, got {V0.shape}")
        V = _newton_hewer(prob, _sym(V0), threshold)
        if V is not None:
            return V

    # Doubling iteration on the dual (control-form) equation with
    # (A, B, H) = (A', C', Q): Hk increases to the stabilizing solution.
    # Ak and Gk live side by side in AG, the right-hand side of the solve, and
    # each temporary goes before the next product is formed (memory peak).
    AG = np.empty((n, 2 * n))
    AG[:, :n] = A.T
    try:
        AG[:, n:] = _sym(C.T @ np.linalg.solve(R, C))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"R is singular: {exc}") from exc
    Hk = Q.copy()
    converged = False
    for _ in range(_MAX_ITER):
        Ak, Gk = AG[:, :n], AG[:, n:]
        M = Gk @ Hk
        M[np.diag_indices(n)] += 1.0
        try:
            solved = np.linalg.solve(M, AG)
        except np.linalg.LinAlgError:
            break  # fall back to the fixed-point sweep
        del M
        Minv_Ak, Minv_Gk = solved[:, :n], solved[:, n:]
        H_next = _sym_inplace(Ak.T @ Hk @ Minv_Ak + Hk)
        step = np.linalg.norm(H_next - Hk, "fro")
        Hk = H_next
        # solved becomes the next AG: G_next over M^{-1} Gk, then A_next.
        solved[:, n:] = _sym_inplace(Ak @ Minv_Gk @ Ak.T + Gk)
        solved[:, :n] = Ak @ Minv_Ak
        AG = solved
        if step <= 0.1 * tol * max(1.0, np.linalg.norm(Hk, "fro")):
            converged = True
            break
    V = Hk

    res = dare_residual(V, prob) if converged else np.inf
    if res >= threshold(V):
        V = _dare_fixed_point(prob, V if converged else Q, tol)
        res = dare_residual(V, prob)
    if not np.isfinite(res) or res >= threshold(V):
        raise ConvergenceError(
            f"DARE did not reach residual tolerance {threshold(V):.3g} "
            f"(final residual {res:.3g})"
        )
    return _check_psd(V)


def dlyap_residual(V, p: DlyapProblem) -> float:
    return float(np.linalg.norm(V - p.J @ V @ p.J.T - p.W, "fro"))


def _squaring(J, W, tol):
    """V = J V J' + W for symmetric W, by V <- V + J^(2^k) V (J^(2^k))'.

    Stops once the next term is below a tenth of ``tol``; raises
    ConvergenceError when the iterates blow up (rho(J) >= 1).
    """
    V, Jk = W, J  # neither is written to; each step makes new arrays
    w0 = np.linalg.norm(W, "fro")
    for _ in range(_MAX_ITER):
        V = _sym_inplace(Jk @ V @ Jk.T + V)
        if not np.isfinite(V).all() or np.linalg.norm(V, "fro") > 1e12 * max(1.0, w0):
            raise ConvergenceError("Lyapunov squaring iteration diverging (rho(J) >= 1)")
        Jk = Jk @ Jk
        if np.linalg.norm(Jk, "fro") ** 2 * np.linalg.norm(V, "fro") <= 0.1 * tol:
            break
    return V


def solve_dlyap(p: DlyapProblem) -> np.ndarray:
    """Solution of V = J V J' + W for spectral radius(J) < 1."""
    J = np.asarray(p.J, dtype=np.float64)
    W = _sym(np.asarray(p.W, dtype=np.float64))
    prob = DlyapProblem(J, W)
    tol = 1e-10 * max(1.0, np.linalg.norm(W, "fro"))

    V = _squaring(J, W, tol)

    res = dlyap_residual(V, prob)
    threshold = max(tol, 5e-9 * max(1.0, np.linalg.norm(V, "fro")))
    if not np.isfinite(res) or res >= threshold:
        raise ConvergenceError(
            f"DLYAP did not reach residual tolerance {threshold:.3g} "
            f"(final residual {res:.3g})"
        )
    return V
