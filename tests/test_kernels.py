"""The blocked affine scan and its three callers against per-step loops."""

import numpy as np
import pytest
import scipy.linalg as sla

from _oracles import affine_loop, filter_loop, rollout_loop, smooth_loop
from thermem import _kernels as K
from thermem.errors import DivergenceError
from thermem.model import StateSpaceModel, simulate

# Record lengths: the shortest ones, the three around a whole number of
# 7-step blocks (48, 49 and 50 steps) and a full identification record.
LENGTHS = (2, 3, 49, 50, 51, 5000)
RTOL = 1e-12


def rel_err(out, ref):
    return np.max(np.abs(out - ref)) / np.max(np.abs(ref))


def stable_matrix(rng, n, radius=0.95):
    F = rng.normal(size=(n, n))
    return F * (radius / np.max(np.abs(np.linalg.eigvals(F))))


def marginal_matrix(rng, n):
    """Unit row sums with the last (ambient) state held fixed."""
    F = rng.uniform(0, 1, (n, n)) * (rng.uniform(size=(n, n)) < 0.3) + np.eye(n)
    F /= F.sum(axis=1, keepdims=True)
    F[-1] = np.eye(n)[-1]
    return F


def make_system(kind):
    rng = np.random.default_rng(0)
    n, n_y, n_P = 12, 3, 2
    make = stable_matrix if kind == "stable" else marginal_matrix
    A = make(rng, n)
    C = np.eye(n)[[0, 5, n - 1]]
    # Stationary Kalman gain, so the filter's closed loop (I - K C) A is stable.
    V = sla.solve_discrete_are(A.T, C.T, 1e-2 * np.eye(n), 1e-3 * np.eye(n_y))
    return dict(
        A=A,
        B=rng.normal(size=(n, n_P)),
        C=C,
        K=V @ C.T @ np.linalg.inv(C @ V @ C.T + 1e-3 * np.eye(n_y)),
        J=stable_matrix(rng, n, 0.9),
        x1=rng.normal(25, 3, n),
        rng=rng,
    )


@pytest.fixture(params=["stable", "marginal"])
def system(request):
    return make_system(request.param)


def inputs(system, N):
    rng = system["rng"]
    n, n_P = system["B"].shape
    P = rng.uniform(0, 1, (N - 1, n_P))
    Y = rng.normal(25, 3, (N, system["C"].shape[0]))
    W = rng.normal(size=(N - 1, n)) * 1e-2
    return P, Y, W


@pytest.mark.parametrize("N", LENGTHS)
@pytest.mark.parametrize("reverse", [False, True])
def test_affine_scan_matches_loop(system, N, reverse):
    X = system["rng"].normal(size=(N, system["A"].shape[0]))
    ref = affine_loop(system["A"], X, reverse)
    out = X.copy()
    assert K.affine_scan(system["A"], out, reverse) is out
    assert rel_err(out, ref) <= RTOL


@pytest.mark.parametrize("N", LENGTHS)
@pytest.mark.parametrize("with_W", [False, True])
def test_rollout_matches_loop(system, N, with_W):
    A, B, x1 = system["A"], system["B"], system["x1"]
    P, _, W = inputs(system, N)
    W = W if with_W else None
    assert rel_err(K.rollout(A, B, x1, P, W), rollout_loop(A, B, x1, P, W)) <= RTOL


@pytest.mark.parametrize("N", LENGTHS)
def test_filter_and_smoother_match_loops(system, N):
    s = system
    P, Y, _ = inputs(system, N)
    xf, innov = K.filter_steady(s["A"], s["B"], s["C"], s["K"], s["x1"], P, Y)
    xf_ref, innov_ref = filter_loop(s["A"], s["B"], s["C"], s["K"], s["x1"], P, Y)
    assert rel_err(xf, xf_ref) <= RTOL
    assert rel_err(innov, innov_ref) <= RTOL
    xs = K.smooth_steady(s["A"], s["B"], s["J"], xf_ref, P)
    assert rel_err(xs, smooth_loop(s["A"], s["B"], s["J"], xf_ref, P)) <= RTOL


def test_wrappers_accept_noncontiguous_inputs():
    s = make_system("marginal")
    P, Y, W = inputs(s, 200)
    A_f, J_f = np.asfortranarray(s["A"]), np.asfortranarray(s["J"])
    P2 = np.repeat(P, 2, axis=0)[::2]
    Y_f = np.asfortranarray(Y)
    xf_f = np.asfortranarray(filter_loop(s["A"], s["B"], s["C"], s["K"], s["x1"], P, Y)[0])
    np.testing.assert_array_equal(
        K.rollout(A_f, s["B"], s["x1"], P2, np.asfortranarray(W)), K.rollout(s["A"], s["B"], s["x1"], P, W)
    )
    for a, b in zip(
        K.filter_steady(A_f, s["B"], s["C"], s["K"], s["x1"], P2, Y_f),
        K.filter_steady(s["A"], s["B"], s["C"], s["K"], s["x1"], P, Y),
    ):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(
        K.smooth_steady(s["A"], s["B"], J_f, xf_f, P2),
        K.smooth_steady(s["A"], s["B"], s["J"], np.ascontiguousarray(xf_f), P),
    )


def test_scan_on_strided_view_matches_loop(system):
    F = system["A"]
    base = system["rng"].normal(size=(2 * 300, F.shape[0]))
    ref = affine_loop(F, base[::2], reverse=True)
    K.affine_scan(F, base[::2], reverse=True)
    assert rel_err(base[::2], ref) <= RTOL


def test_simulate_unstable_model_diverges_at_loop_step():
    n = 3
    model = StateSpaceModel(
        A=1.5 * np.eye(n), B=np.zeros((n, 1)), C=np.eye(n)[:1],
        Q=np.zeros((n, n)), R=np.eye(1),
    )
    T1, P = np.ones(n), np.zeros((5000, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        ref = rollout_loop(model.A, model.B, T1, P[:-1])
        first_bad = int(np.argmax(~np.isfinite(ref).all(axis=1)))
        with pytest.raises(DivergenceError) as err:
            simulate(model, T1, P, noiseless=True)
    assert first_bad > 0
    assert err.value.step == first_bad
