"""The one affine scan, with the closed loop folded or factored, and its three callers against per-step loops."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from _oracles import adjoint_loop, affine_loop, filter_loop, predictor_loop, rollout_loop, smooth_loop
from thermem import _kernels as K
from thermem.datagen import ToySpec, build_toy, strong_theta, toy_inputs
from thermem.errors import DivergenceError
from thermem.graph import build_operators
from thermem.model import StateSpaceModel, assemble, predict, simulate
from thermem.smoother import rtss_steady
from thermem.solvers import DareProblem, _riccati_defect

# Record lengths: the shortest ones, four consecutive short ones and a full
# identification record.
LENGTHS = (2, 3, 48, 49, 50, 51, 5000)
# The smoother's chunk boundaries: N-1 of one chunk, one chunk and a step,
# and two chunks and a step.
CHUNK_LENGTHS = (1025, 1026, 2050)
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
    # Stationary gains: K the predictor gain A V C' S^-1, so that the closed
    # loop F_p = A - K C is stable, and Kf = V C' S^-1 the filter gain of the
    # textbook loops that cross-check it.
    V = sla.solve_discrete_are(A.T, C.T, 1e-2 * np.eye(n), 1e-3 * np.eye(n_y))
    S = C @ V @ C.T + 1e-3 * np.eye(n_y)
    Kf = V @ C.T @ np.linalg.inv(S)
    return dict(
        A=A,
        B=rng.normal(size=(n, n_P)),
        C=C,
        K=A @ Kf,
        Kf=Kf,
        V=V,
        S=S,
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


def folded(system, reverse):
    """The closed loop folded into one CSR, as the filter hands it to the scan
    below the rule (F_p), and as the smoother does backwards (F_p')."""
    F = system["A"] - system["K"] @ system["C"]
    return F.T if reverse else F


@pytest.mark.parametrize("N", LENGTHS)
@pytest.mark.parametrize("reverse", [False, True])
def test_affine_scan_matches_loop(system, N, reverse):
    F = folded(system, reverse)
    X = system["rng"].normal(size=(N, F.shape[0]))
    out = X.copy()
    assert K.sequential_scan(sp.csr_array(F), out, reverse) is out
    assert rel_err(out, affine_loop(F, X, reverse)) <= RTOL


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
    xp, innov = K.filter_steady(s["A"], s["B"], s["C"], s["K"], s["x1"], P, Y)
    xp_ref, innov_ref = predictor_loop(s["A"], s["B"], s["C"], s["K"], s["x1"], P, Y)
    assert rel_err(xp, xp_ref) <= RTOL
    assert rel_err(innov, innov_ref) <= RTOL
    assert not innov[0].any()
    # The predictor form against the textbook filter: xf[t] = xp[t] + Kf e[t].
    xf_ref, innov_f = filter_loop(s["A"], s["B"], s["C"], s["Kf"], s["x1"], P, Y)
    assert rel_err(xp + innov @ s["Kf"].T, xf_ref) <= RTOL
    assert rel_err(innov[1:], innov_f) <= RTOL
    SinvE = np.linalg.solve(s["S"], innov_ref.T).T
    xs = K.smooth_steady(s["A"], s["C"], s["K"], xp_ref.copy(), SinvE, s["V"])
    assert rel_err(xs, adjoint_loop(s["A"], s["C"], s["K"], xp_ref, SinvE, s["V"])) <= RTOL


@pytest.mark.parametrize("N", LENGTHS + CHUNK_LENGTHS)
@pytest.mark.parametrize("form", ["folded", "factored"])
def test_smooth_steady_matches_adjoint_loop(system, N, form, monkeypatch):
    """Both forms of the closed loop against the per-step adjoint recursion,
    across the row chunks that carry lam from one to the next."""
    s = system
    if form == "factored":
        monkeypatch.setattr(K, "FACTORED_MIN_N", 0)
    assert K.factored(s["A"]) == (form == "factored")
    Xp = s["rng"].normal(25, 3, (N, s["A"].shape[0]))
    SinvE = s["rng"].normal(size=(N, s["C"].shape[0]))
    ref = adjoint_loop(s["A"], s["C"], s["K"], Xp, SinvE, s["V"])
    assert rel_err(K.smooth_steady(s["A"], s["C"], s["K"], Xp, SinvE, s["V"]), ref) <= RTOL


def test_smooth_steady_overwrites_only_c_contiguous_float64_means():
    s = make_system("stable")
    P, Y, _ = inputs(s, 300)
    xp, innov = predictor_loop(s["A"], s["B"], s["C"], s["K"], s["x1"], P, Y)
    SinvE = np.linalg.solve(s["S"], innov.T).T
    ref = adjoint_loop(s["A"], s["C"], s["K"], xp, SinvE, s["V"])
    Xp = xp.copy()
    assert K.smooth_steady(s["A"], s["C"], s["K"], Xp, SinvE, s["V"]) is Xp
    assert rel_err(Xp, ref) <= RTOL
    Xp_f = np.asfortranarray(xp)
    xs = K.smooth_steady(s["A"], s["C"], s["K"], Xp_f, SinvE, s["V"])
    assert xs is not Xp_f
    np.testing.assert_array_equal(Xp_f, xp)
    np.testing.assert_array_equal(xs, Xp)


def test_wrappers_accept_noncontiguous_inputs():
    s = make_system("marginal")
    P, Y, W = inputs(s, 200)
    A_f, K_f = np.asfortranarray(s["A"]), np.asfortranarray(s["K"])
    P2 = np.repeat(P, 2, axis=0)[::2]
    Y_f = np.asfortranarray(Y)
    xp, innov = predictor_loop(s["A"], s["B"], s["C"], s["K"], s["x1"], P, Y)
    xp_f, SinvE = np.asfortranarray(xp), np.linalg.solve(s["S"], innov.T).T
    np.testing.assert_array_equal(
        K.rollout(A_f, s["B"], s["x1"], P2, np.asfortranarray(W)), K.rollout(s["A"], s["B"], s["x1"], P, W)
    )
    for a, b in zip(
        K.filter_steady(A_f, s["B"], s["C"], s["K"], s["x1"], P2, Y_f),
        K.filter_steady(s["A"], s["B"], s["C"], s["K"], s["x1"], P, Y),
    ):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(
        K.smooth_steady(A_f, s["C"], K_f, xp_f, np.repeat(SinvE, 2, axis=0)[::2], s["V"]),
        K.smooth_steady(s["A"], s["C"], s["K"], xp.copy(), np.ascontiguousarray(SinvE), s["V"]),
    )


def test_scan_on_strided_view_matches_loop(system):
    for reverse in (False, True):
        F = folded(system, reverse)
        base = system["rng"].normal(size=(2 * 300, F.shape[0]))
        ref, skipped = affine_loop(F, base[::2], reverse), base[1::2].copy()
        K.sequential_scan(sp.csr_array(F), base[::2], reverse)
        assert rel_err(base[::2], ref) <= RTOL, reverse
        np.testing.assert_array_equal(base[1::2], skipped)


def test_simulate_unstable_model_diverges_at_loop_step():
    n = 3
    model = StateSpaceModel(
        A=1.5 * np.eye(n), B=np.zeros((n, 1)), C=np.eye(n)[:1],
        Q=np.zeros((n, n)), R=np.eye(1),
    )
    T1, P = np.ones(n), np.zeros((5000, 1))
    with np.errstate(over="ignore", invalid="ignore"):  # only the loop reference warns
        ref = rollout_loop(model.A, model.B, T1, P[:-1])
    first_bad = int(np.argmax(~np.isfinite(ref).all(axis=1)))
    with pytest.raises(DivergenceError) as err:
        simulate(model, T1, P, noiseless=True)
    assert first_bad > 0
    assert err.value.step == first_bad


def test_full_module_prediction_matches_loop():
    """The stepped rollout against the dense loop: the 817-compartment module
    over 2000 steps and the 178-compartment one over an 18000-step prediction."""
    for spec, N in ((ToySpec.full(), 2000), (ToySpec.reduced(), 18000)):
        mesh, _, strong = build_toy(spec)
        model = assemble(build_operators(mesh, strong), strong_theta(spec), mesh.observed_indices, R=0.0)
        P = toy_inputs(spec, mesh, N)
        T1 = np.full(model.n, ToySpec.ambient_temp)
        T = predict(model, T1, P).T
        assert T.shape == (N, model.n)
        assert rel_err(T, rollout_loop(model.A, model.B, T1, P[:-1])) <= RTOL, model.n


# The factored closed loop, which the rule in ``_kernels.factored`` picks on
# large operators, and the adjoint smoother against the RTS (J) form.
SEQUENTIAL_LENGTHS = (2, 3, 5000)
ADJOINT_RTOL = 1e-9


def steady_set(A, C, Q, R):
    """Predicted covariance V, innovation covariance S, filter gain Kf and
    RTS gain J = V^+ A' V^-1 of the steady smoother."""
    V = sla.solve_discrete_are(A.T, C.T, Q, R)
    V = (V + V.T) / 2
    S = C @ V @ C.T + R
    Kf = np.linalg.solve(S, C @ V).T
    J = np.linalg.solve(V, A @ (V - Kf @ (C @ V))).T
    return V, S, Kf, J


def blocked_scan(A, X, reverse, U, W, rows=K._INPUT_ROWS):
    """``sequential_scan`` over blocks of ``rows`` steps, each block scanned
    from the finished row before it (after it if reverse) as its carry, the
    way ``smooth_steady`` carries lam from one row chunk to the next."""
    N = X.shape[0]
    for i in range(0, N - 1, rows):
        block = X[max(N - 1 - i - rows, 0) : N - i] if reverse else X[i : i + rows + 1]
        K.sequential_scan(A, block, reverse, U, W)
    return X


@pytest.mark.parametrize("N", SEQUENTIAL_LENGTHS)
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("rank", [0, 3])
def test_sequential_scan_matches_loop_and_blocked_scan(system, N, reverse, rank):
    A, n = system["A"], system["A"].shape[0]
    # The rank-3 term as the filter passes it: F_p = A - K C with a CSR C.
    U, W = (system["K"], sp.csr_array(system["C"])) if rank else (None, None)
    F = A - system["K"] @ system["C"] if rank else A
    X = system["rng"].normal(size=(N, n))
    out = X.copy()
    assert K.sequential_scan(sp.csr_array(A), out, reverse, U, W) is out
    assert rel_err(out, affine_loop(F, X, reverse)) <= RTOL
    # The same steps in row blocks give the same rows, bit for bit.
    np.testing.assert_array_equal(blocked_scan(sp.csr_array(A), X.copy(), reverse, U, W), out)


def with_index_dtype(M, dtype):
    M = sp.csr_array(M, copy=True)
    M.indptr, M.indices = M.indptr.astype(dtype), M.indices.astype(dtype)
    return M


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("factors", ["rank0", "csr_W", "csr_U"])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("rows", ["contiguous", "strided"])
def test_compiled_step_contract(system, reverse, factors, index_dtype, rows):
    """scipy's private CSR kernel adds into each row of X in place, with either
    index width and on rows that are strided views; a change in it fails here
    rather than writing into a copy."""
    A, C, K_gain, n = system["A"], system["C"], system["K"], system["A"].shape[0]
    # The filter's form with a CSR W = C, and the smoother's with a CSR U = C'.
    U, W, F = {
        "rank0": (None, None, A),
        "csr_W": (K_gain, with_index_dtype(C, index_dtype), A - K_gain @ C),
        "csr_U": (with_index_dtype(C.T, index_dtype), K_gain.T, A - C.T @ K_gain.T),
    }[factors]
    A_csr = with_index_dtype(A, index_dtype)
    assert sp.csr_array(A_csr).indices.dtype == index_dtype
    base = system["rng"].normal(size=(50, 2 * n))
    X = base[:, ::2] if rows == "strided" else np.ascontiguousarray(base[:, :n])
    assert X.flags.c_contiguous == (rows == "contiguous")
    ref, untouched = affine_loop(F, X, reverse), base[:, 1::2].copy()
    assert K.sequential_scan(A_csr, X, reverse, U, W) is X
    assert rel_err(X, ref) <= RTOL
    np.testing.assert_array_equal(base[:, 1::2], untouched)


@pytest.mark.parametrize("N", SEQUENTIAL_LENGTHS)
def test_adjoint_smoother_matches_j_form_loop(system, N):
    s = system
    A, B, C, n = s["A"], s["B"], s["C"], s["A"].shape[0]
    V, S, Kf, J = steady_set(A, C, 1e-2 * np.eye(n), 1e-3 * np.eye(C.shape[0]))
    P, Y, _ = inputs(system, N)
    xp, innov = K.filter_steady(A, B, C, A @ Kf, s["x1"], P, Y)
    SinvE = np.linalg.solve(S, innov.T).T
    assert K.smooth_steady(A, C, A @ Kf, xp, SinvE, V) is xp
    xf, _ = filter_loop(A, B, C, Kf, s["x1"], P, Y)
    assert rel_err(xp, smooth_loop(A, B, J, xf, P)) <= ADJOINT_RTOL


@pytest.mark.parametrize("form", ["folded", "factored"])
def test_adjoint_smoother_adds_no_record_length_array(form, monkeypatch):
    s = make_system("stable")
    A, C, n, N = s["A"], s["C"], s["A"].shape[0], 20000
    if form == "factored":
        monkeypatch.setattr(K, "FACTORED_MIN_N", 0)
    assert K.factored(A) == (form == "factored")
    Xp = s["rng"].normal(size=(N, n))
    SinvE = s["rng"].normal(size=(N, C.shape[0]))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        K.smooth_steady(A, C, s["K"], Xp, SinvE, s["V"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * N * n * 8


def toy_setup(kind):
    """The strong-scheme toy model with qI process noise and a simulated record
    of 1200 steps, so that the adjoint smoother runs two row chunks."""
    spec = ToySpec.reduced() if kind == "reduced" else ToySpec.full()
    mesh, _, strong = build_toy(spec)
    model = assemble(build_operators(mesh, strong), strong_theta(spec), mesh.observed_indices,
                     Q=1e-3, R=spec.meas_var)
    T1 = np.full(model.n, ToySpec.ambient_temp)
    traj = simulate(model, T1, toy_inputs(spec, mesh, 1200), seed=7)
    return model, traj, T1


@pytest.fixture(scope="module", params=["reduced", "full"])
def toy_case(request):
    return toy_setup(request.param)


def test_adjoint_smoother_matches_j_form_on_toy_modules(toy_case):
    model, traj, T1 = toy_case
    A, B, C, P = model.A, model.B, model.C, traj.P[:-1]
    out = rtss_steady(model, traj.y, traj.P, T1)
    V = out.V_S_minus
    S = C @ V @ C.T + model.R
    Kf = np.linalg.solve(S, C @ V).T
    J = np.linalg.solve(V, A @ (V - Kf @ (C @ V))).T
    xf, _ = filter_loop(A, B, C, Kf, T1, P, traj.y)
    ref = smooth_loop(A, B, J, xf, P)
    xp, innov = K.filter_steady(A, B, C, A @ Kf, T1, P, traj.y)
    xs = K.smooth_steady(A, C, A @ Kf, xp, np.linalg.solve(S, innov.T).T, V)
    assert rel_err(xs, ref) <= ADJOINT_RTOL
    assert rel_err(out.x_smooth, ref) <= ADJOINT_RTOL


def test_steady_smoother_hands_the_dare_predictor_gain_to_the_filter(monkeypatch):
    """``rtss_steady`` runs the filter on the predictor gain of the DARE's
    Newton step, A V^- C' S^-1, and the filter's first innovation is 0."""
    model, traj, T1 = toy_setup("reduced")
    seen = {}
    filter_steady = K.filter_steady

    def spy(*args):
        seen["K"] = args[3]
        out = filter_steady(*args)
        seen["innov"] = out[1]
        return out

    monkeypatch.setattr(K, "filter_steady", spy)
    out = rtss_steady(model, traj.y, traj.P, T1)
    p = DareProblem(A=model.A, C=model.C, Q=model.Q, R=model.R)
    assert rel_err(seen["K"], _riccati_defect(out.V_S_minus, p)[1]) <= RTOL
    assert seen["innov"].shape == (traj.y.shape[0], model.n_y)
    assert not seen["innov"][0].any()


def test_rule_is_folded_at_178_and_factored_at_817(toy_case, monkeypatch):
    """Every pass runs ``sequential_scan``; the filter and the smoother hand it
    the closed loop folded into one CSR at n=178 and factored at n=817."""
    model, traj, T1 = toy_case
    A, B, C, n, n_y = model.A, model.B, model.C, model.n, model.n_y
    assert n in (178, 817)
    assert K.factored(A) == (n == 817)
    calls = []
    scan = K.sequential_scan

    def spy(F, X, reverse=False, U=None, W=None):
        calls.append((sp.csr_array(F).nnz, U is not None and W is not None))
        return scan(F, X, reverse, U, W)

    monkeypatch.setattr(K, "sequential_scan", spy)
    P = traj.P[:-1]
    K.rollout(A, B, T1, P)
    nnz_A = sp.csr_array(A).nnz
    assert calls == [(nnz_A, False)]  # the rollout steps A at every size
    for noiseless in (True, False):  # one rollout per simulation, noisy or not
        calls.clear()
        simulate(model, T1, traj.P, seed=1, noiseless=noiseless)
        assert calls == [(nnz_A, False)]
    # A dense gain, as the model's is: K C fills the observed columns of F_p.
    gain = np.full((n, n_y), 1e-3)
    calls.clear()
    xp, innov = K.filter_steady(A, B, C, gain, T1, P, traj.y)
    K.smooth_steady(A, C, gain, xp, innov, np.eye(n))
    nnz_Fp = sp.csr_array(A - gain @ C).nnz
    assert nnz_Fp > nnz_A
    expected = (nnz_A, True) if n == 817 else (nnz_Fp, False)
    # One filter scan and one smoother scan per row chunk.
    chunks = -(-traj.y.shape[0] // K._INPUT_ROWS)
    assert calls == [expected] * (1 + chunks)
