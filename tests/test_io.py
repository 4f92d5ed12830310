"""The CSV writer against np.savetxt at %.12g, byte for byte."""

import json

import numpy as np
import pytest
from _oracles import savetxt_12g

from thermem import io as tio
from thermem.cli import main
from thermem.model import Trajectory


def assert_same_bytes(tmp_path, data):
    header = ",".join(f"c{i}" for i in range(data.shape[1]))
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    tio._write_csv(str(ours), header, [data])
    savetxt_12g(str(ref), header, data)
    assert ours.read_bytes() == ref.read_bytes()


def test_random_magnitudes_both_signs(tmp_path):
    rng = np.random.default_rng(11)
    x = 10.0 ** rng.uniform(-6, 14, size=(3000, 40)) * rng.choice([-1.0, 1.0], size=(3000, 40))
    assert_same_bytes(tmp_path, x)


@pytest.mark.parametrize("k", range(-20, 8))
def test_near_ties_either_side(tmp_path, k):
    # (m + 0.5) 10^k with a 12-digit m is a tie of the 12th digit; its float
    # neighbours must round the way the exact decimal expansion says.
    rng = np.random.default_rng(100 + k)
    tie = (rng.integers(10**11, 10**12, size=2000) + 0.5) * 10.0**k
    x = np.stack([np.nextafter(tie, -np.inf), tie, np.nextafter(tie, np.inf)], axis=1)
    assert_same_bytes(tmp_path, np.concatenate([x, -x], axis=1))


def test_round_up_to_next_power_of_ten(tmp_path):
    x = np.array([9.99999999999995e-05, 0.99999999999995, 999999999999.5,
                  9.9999999999995, 99999999999.95, 9.999999999999e-05, 999999999999.7,
                  0.9999999999997])
    assert_same_bytes(tmp_path, np.stack([x, -x, np.nextafter(x, 0), np.nextafter(x, np.inf)], axis=1))


def test_special_values(tmp_path):
    x = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                  1.7976931348623157e308, -1.7976931348623157e308, 1e-4, 1e11, 1e12, 2.2250738585072014e-308])
    assert_same_bytes(tmp_path, np.stack([x, x[::-1]], axis=1))


def test_integer_valued_columns(tmp_path):
    t = np.arange(50_000, dtype=np.float64)
    assert_same_bytes(tmp_path, np.stack([t, -t, t * 1e7, np.round(t / 7)], axis=1))


def test_one_column_and_empty(tmp_path):
    assert_same_bytes(tmp_path, np.linspace(-3.0, 3.0, 101)[:, None])
    assert_same_bytes(tmp_path, np.zeros((0, 4)))


@pytest.mark.parametrize("extra", [-1, 0, 1, "2x+1"])
def test_chunk_boundaries(tmp_path, extra):
    cols = 7
    chunk = tio._CHUNK_VALUES // cols
    rows = 2 * chunk + 1 if extra == "2x+1" else chunk + extra
    rng = np.random.default_rng(rows)
    assert_same_bytes(tmp_path, 25.0 + 10.0 * rng.normal(size=(rows, cols)))


def test_trajectory_writer_matches_stacked_savetxt(tmp_path):
    rng = np.random.default_rng(5)
    traj = Trajectory(P=rng.uniform(0, 50, size=(90, 2)) * (rng.uniform(size=(90, 2)) > 0.5),
                      y=25 + rng.normal(size=(90, 3)), T=25 + rng.normal(size=(90, 4)))
    for full_state, block, label in ((False, traj.y, "y"), (True, traj.T, "T")):
        header = ",".join(["t"] + [f"{label}_{i + 1}" for i in range(block.shape[1])] + ["P_1", "P_2"])
        savetxt_12g(str(tmp_path / "ref.csv"), header, np.hstack([np.arange(90)[:, None], block, traj.P]))
        tio.write_trajectory_csv(str(tmp_path / "ours.csv"), traj, full_state=full_state)
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_short_P_is_rejected_with_both_counts(tmp_path):
    X = np.ones((6, 3))
    with pytest.raises(ValueError, match=r"P has 5 rows but the T block has 6"):
        tio.write_trajectory_csv(
            str(tmp_path / "s.csv"), Trajectory(P=np.zeros((5, 2)), y=X, T=X), full_state=True
        )


def test_cli_outputs_rewrite_byte_for_byte(tmp_path):
    cfg = {
        "preset": "toy_reduced", "scheme": "strong", "constraint": "diag",
        "em": {"max_iter": 2, "theta_tol": 1e-300, "theta_init": 0.01, "q_init": 0.01},
        "generate": {"N": 300, "seed": 4, "noise": {"kind": "AAt", "sigma2": 1e-4},
                     "write_truth": True},
        "out": str(tmp_path / "run"),
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(cfg_path)]) == 0
    assert main(["identify", "--config", str(cfg_path)]) == 0
    run = tmp_path / "run"
    for name, full_state in (("dataset.csv", False), ("truth.csv", True)):
        tio.write_trajectory_csv(str(tmp_path / name), tio.read_trajectory_csv(str(run / name)), full_state)
        assert (tmp_path / name).read_bytes() == (run / name).read_bytes()
    names, data = tio.read_trace_csv(str(run / "trace.csv"))
    tio._write_csv(str(tmp_path / "trace.csv"), ",".join(names), [data])
    assert (tmp_path / "trace.csv").read_bytes() == (run / "trace.csv").read_bytes()
