"""Discrete algebraic Riccati and Lyapunov solvers for steady-state smoothing.

The filter-form DARE solved here is the fixed point of the predicted state
covariance,
    V = A V A' - A V C' (C V C' + R)^{-1} C V A' + Q.
Its one algorithm is Newton-Hewer iteration (Kleinman, IEEE TAC 13:114,
1968; Hewer, IEEE TAC 16:382, 1971): each step solves the Stein equation
X = F X F' + Res(V), with F = A - K C, K = A V C' (C V C' + R)^{-1} and
Res(V) the DARE residual, and sets V <- V + X. Stein and Lyapunov equations
V = J V J' + W are solved by squaring, V <- V + J^(2^k) V (J^(2^k))'.

A warm call starts from a nearby solution (the previous EM iteration's). A
cold call starts from the error covariance of a predictor with a
stabilizing gain K0, V = F0 V F0' + Q + K0 R K0' with F0 = A - K0 C, from
which the iterates stay stabilizing and decrease to the solution. K0 =
A C^+ comes first: for thermem's 0/1 selector C, F0 is A with its observed
columns zeroed, which can only lower the spectral radius of the
nonnegative A, and with the (always observed) ambient's column zeroed it
is at most the dynamic block's radius, below 1. If F0 does not contract,
K0 = 0 follows (a stable A), and a fixed-point sweep of the covariance
recursion is the last resort.

Every accepted solution is certified by its float64 residual and a PSD
check. A warm call accepts the first certified iterate, giving up after 4
corrections or once the residual stops falling. The certificate is
absolute while |V|_F < 1 (see solve_dare), so a cold call, whose start is
far off, also waits for a correction below 1e-8 |V|_F: on the
178-compartment module at q = 1e-8 a certificate-only cold stop landed
up to 3.3e-2 from scipy's solution, the step rule 1.3e-7 (scipy's own error).

Precision: the cold start and each correction are computed in float32 and
added to the float64 V; the defect, the certificate and the PSD check stay
float64, so the next defect accepts or rejects every float32 step. The
float32 error of a correction grows with the Stein operator's conditioning,
about 1/(1 - rho(F)^2), so slowly decaying closed-loop modes can need more
steps: at n=817 a cold call takes 4-7 corrections after its start, and a
float32 GEMM about half the time of a float64 one (2 OpenBLAS threads).
solve_dlyap stays float64 because nothing refines its result: reaching the
5e-9 certificate from float32 takes two float32 solves and a float64
residual, no cheaper than one float64 solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from thermem.errors import ConvergenceError, NumericalError


@dataclass(eq=False)
class DareProblem:
    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray


def _sym(M):
    return (M + M.T) / 2.0


def _sym_inplace(M):
    """(M + M') / 2 written over M; the same values as ``_sym``."""
    M += M.T
    M *= 0.5
    return M


_NEWTON_STEPS, _COLD_STEPS = 4, 20  # Newton-Hewer step caps, warm and cold
_COLD_STEP = 1e-8  # a cold call ends on a correction X with |X|_F <= this |V|_F
_MAX_ITER = 200  # squaring loops; the fixed-point sweep gets 10x


def _riccati_defect(V, p: DareProblem):
    """DARE residual Ric(V) - V and the predictor gain K = A V C' (C V C' + R)^{-1}.

    ``p.A`` may be dense or sparse; A V A' is formed as A (A V)', V symmetric."""
    A, C, Q, R = p.A, p.C, p.Q, p.R
    AV = A @ V
    AVC = AV @ C.T
    K = np.linalg.solve((C @ V @ C.T + R).T, AVC.T).T
    return A @ AV.T - K @ AVC.T + Q - V, K


def dare_residual(V, p: DareProblem) -> float:
    return float(np.linalg.norm(_riccati_defect(V, p)[0], "fro"))


def _check_psd(V):
    """V if its smallest eigenvalue is at least -1e-10 max(1, its largest),
    else NumericalError.

    A Cholesky factorization that runs to completion makes V + E PSD with
    |E|_2 <= n (n+1) u |V|_2, u = 2^-53 (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., Thm 10.5): 7.4e-11 |V| at n=817, inside
    the criterion. Up to the n that keeps that bound inside it, the
    eigenvalues are computed only when the factorization fails.
    """
    n = V.shape[0]
    if n * (n + 1) * 2.0**-53 < 1e-10:
        try:
            if np.isfinite(np.linalg.cholesky(V)).all():
                return V
        except np.linalg.LinAlgError:
            pass
    eigs = np.linalg.eigvalsh(V)
    if eigs.min() < -1e-10 * max(1.0, eigs.max()):
        raise NumericalError(f"DARE solution indefinite (min eigenvalue {eigs.min():.3g})")
    return V


def _dare_fixed_point(p: DareProblem, V0, tol):
    """Plain covariance recursion V <- A(V - V C'(CVC'+R)^{-1} C V)A' + Q."""
    A, C, Q, R = p.A, p.C, p.Q, p.R
    V = _sym(V0)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(10 * _MAX_ITER):
            S = C @ V @ C.T + R
            try:
                G = np.linalg.solve(S, C @ V)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"singular innovation covariance: {exc}") from exc
            V_new = _sym(A @ (V - V @ C.T @ G) @ A.T + Q)
            # Stops on convergence, and on a NaN step once V has overflowed
            # (an undetectable mode); the caller's certificate tells them apart.
            if not np.linalg.norm(V_new - V, "fro") > 0.1 * tol:
                return V_new
            V = V_new
    return V


def _newton_hewer(p: DareProblem, V, threshold, steps=_NEWTON_STEPS, step_tol=None):
    """Newton-Hewer steps from V: the certified solution, or None (silently) on
    failure, after ``steps`` steps, or once an uncertified residual stops
    falling. With ``step_tol``, a certified V is accepted only once the last
    correction X had |X|_F <= step_tol |V|_F."""
    res_prev = x = np.inf
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(steps + 1):
                D, K = _riccati_defect(V, p)
                res = float(np.linalg.norm(D, "fro"))
                v = np.linalg.norm(V, "fro")
                certified = res < threshold(V)
                if certified and (step_tol is None or x <= step_tol * v):
                    return _check_psd(V)
                if step == steps or not (certified or res < res_prev):
                    break
                res_prev = res
                # A float32 correction suffices: the float64 defect above
                # certifies (or rejects) every step it produces.
                tol = threshold(V) if step_tol is None else min(threshold(V), step_tol * v)
                F = (p.A - K @ p.C).astype(np.float32)
                X = _squaring(F, _sym_inplace(D).astype(np.float32), tol)
                x = np.linalg.norm(X, "fro")
                V = V + X
    except (np.linalg.LinAlgError, ConvergenceError, NumericalError):
        pass  # the caller goes on to its next start
    return None


def solve_dare(p: DareProblem, V0=None) -> np.ndarray:
    """Stabilizing solution of the filter DARE, residual-certified.

    Requires R invertible and (A, C) detectable in every mode not excited by
    Q; with the marginal all-ones thermal mode this holds when the ambient
    temperature is among the observations. Newton-Hewer steps run from the
    nearby solution ``V0`` if given, else (or if that fails) from a cold
    start; the fixed-point sweep is the last resort.
    """
    A = np.asarray(p.A, dtype=np.float64)
    C = np.asarray(p.C, dtype=np.float64)
    Q = _sym(np.asarray(p.Q, dtype=np.float64))
    R = _sym(np.asarray(p.R, dtype=np.float64))
    prob = DareProblem(sp.csr_array(A), C, Q, R)  # sparse A for the defects
    tol = 1e-10 * max(1.0, np.linalg.norm(Q, "fro"))

    # Certify against the scaled tolerance, but never below the float64
    # residual floor of the problem scale (the cancellation in the gain term
    # caps attainable residuals near 1e-9 relative when R << V). 5e-9 stays
    # 2x inside criterion 5's bound of 1e-8 max(1, |V|), but it is absolute
    # while |V|_F < 1: on toy_reduced (R = 1e-6) a warm start was accepted at
    # 1.4e-7 relative at q = 1e-4 and 3.3e-4 at q = 1e-8.
    def threshold(M):
        return max(tol, 5e-9 * max(1.0, np.linalg.norm(M, "fro")))

    if V0 is not None:
        V0 = np.asarray(V0, dtype=np.float64)
        if V0.shape != A.shape:
            raise ValueError(f"V0 must be {A.shape}, got {V0.shape}")
        V = _newton_hewer(prob, _sym(V0), threshold)
        if V is not None:
            return V

    # Cold start: the error covariance of the predictor with gain K0, in
    # float32, for the first K0 whose closed loop A - K0 C contracts.
    for K0 in (A @ np.linalg.pinv(C), np.zeros(C.T.shape)):
        W = Q + K0 @ R @ K0.T
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                V = _squaring((A - K0 @ C).astype(np.float32), W.astype(np.float32),
                              _COLD_STEP * np.linalg.norm(W, "fro"))
        except ConvergenceError:
            continue
        V = _newton_hewer(prob, V.astype(np.float64), threshold, _COLD_STEPS, _COLD_STEP)
        if V is not None:
            return V

    V = _dare_fixed_point(prob, Q, tol)
    res = dare_residual(V, prob)
    if not res < threshold(V):  # NaN fails this too
        raise ConvergenceError(
            f"DARE did not reach residual tolerance {threshold(V):.3g} "
            f"(final residual {res:.3g})"
        )
    return _check_psd(V)


def dlyap_residual(V, J, W) -> float:
    return float(np.linalg.norm(V - J @ V @ J.T - W, "fro"))


def _squaring(J, W, tol):
    """V = J V J' + W for symmetric W, by V <- V + J^(2^k) V (J^(2^k))'.

    Stops once the next term is below a tenth of ``tol``; raises
    ConvergenceError when the iterates blow up (rho(J) >= 1). The iterates
    drift from symmetry by rounding only, so V is symmetrized once, at the end.
    """
    V, Jk = W, J  # neither is written to; each step makes new arrays
    bound = 1e12 * max(1.0, np.linalg.norm(W, "fro"))
    for _ in range(_MAX_ITER):
        V = Jk @ V @ Jk.T + V
        v = np.linalg.norm(V, "fro")
        if not v <= bound:  # NaN fails this too
            raise ConvergenceError("Lyapunov squaring iteration diverging (rho(J) >= 1)")
        Jk = Jk @ Jk
        if np.linalg.norm(Jk, "fro") ** 2 * v <= 0.1 * tol:
            break
    return _sym_inplace(V)


def solve_dlyap(J, W) -> np.ndarray:
    """Solution of V = J V J' + W for spectral radius(J) < 1. The residual
    bound max(1e-10 max(1, |W|_F), 5e-9 max(1, |V|_F)) is absolute while |W|_F
    and |V|_F are below 1, so a small solution is accepted at a larger relative error."""
    J = np.asarray(J, dtype=np.float64)
    W = _sym(np.asarray(W, dtype=np.float64))
    tol = 1e-10 * max(1.0, np.linalg.norm(W, "fro"))

    V = _squaring(J, W, tol)

    res = dlyap_residual(V, J, W)
    threshold = max(tol, 5e-9 * max(1.0, np.linalg.norm(V, "fro")))
    if not np.isfinite(res) or res >= threshold:
        raise ConvergenceError(
            f"DLYAP did not reach residual tolerance {threshold:.3g} "
            f"(final residual {res:.3g})"
        )
    return V
