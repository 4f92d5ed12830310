"""End-to-end CLI flows on a small custom mesh and the reduced preset."""

import dataclasses
import json
import os
import warnings

import numpy as np

from thermem.cli import main
from thermem.config import Experiment, mesh_from_config
from thermem.estimation import EmConfig
from thermem.io import (
    read_manifest,
    read_theta_json,
    read_trace_csv,
    read_trajectory_csv,
    write_trajectory_csv,
)

SMALL_CONFIG = {
    "mesh": {
        "nx": 2,
        "ny": 2,
        "nz": 2,
        "cell_size": [3e-3, 3e-3, 1e-3],
        "layers": {"1": ["II", "II"], "2": ["CC", "CC"]},
        "prune_inactive": True,
        "refine": [],
        "observe": [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1], "ambient"],
        "source_roles": ["IGBT"],
    },
    "schemes": {
        "small": {
            "groups": [
                {"label": "chip", "role": "IGBT"},
                {"label": "ambient", "role": "ambient"},
                {"label": "cu", "layer": 2},
            ],
            "k_classes": {"chip|chip": 0, "chip|cu": 1, "cu|cu": 2, "ambient|cu": 3},
            "z_classes": {"chip": 0},
            "k_names": ["kcc", "kc2", "k22", "k2a"],
        }
    },
    "theta_true": {"k": [0.035, 0.056, 0.022, 0.02], "z": [0.4]},
    "scheme": "small",
    "constraint": "qI",
    "em": {"max_iter": 150, "theta_tol": 1e-8, "R": 1e-10},
    "generate": {"N": 300, "seed": 3, "noise": {"kind": "none"}, "write_truth": True},
    "predict": {"horizon": 300},
}


def write_config(tmp_path, overrides=None):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["out"] = str(tmp_path / "run")
    for key, val in (overrides or {}).items():
        cfg[key] = val
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg["out"]


def test_generate_identify_predict_report_roundtrip(tmp_path):
    cfg_path, out_dir = write_config(tmp_path)

    assert main(["generate", "--config", cfg_path]) == 0
    manifest = read_manifest(os.path.join(out_dir, "manifest.json"))
    assert manifest["n_compartments"] == 9
    data = read_trajectory_csv(os.path.join(out_dir, "dataset.csv"))
    assert data.N == 300 and data.y.shape[1] == 5

    assert main(["identify", "--config", cfg_path]) == 0
    theta = read_theta_json(os.path.join(out_dir, "theta.json"))
    summary = read_manifest(os.path.join(out_dir, "summary.json"))
    assert summary["stop_reason"] in ("converged", "max_iter")
    names, trace = read_trace_csv(os.path.join(out_dir, "trace.csv"))
    assert trace.shape[0] == summary["iterations"]
    assert names[-2:] == ["step_length", "rejected"]
    steps, rejected = trace[:, -2], trace[:, -1]
    assert summary["extrapolations_rejected"] == rejected.sum()
    assert summary["extrapolations_accepted"] == ((steps > 1) & (rejected == 0)).sum()
    rel = np.abs(theta.k - np.array(SMALL_CONFIG["theta_true"]["k"]))
    assert rel.max() / 0.02 < 1.0  # identified within coarse tolerance

    assert main(["predict", "--config", cfg_path, "--horizon", "300"]) == 0
    report = read_manifest(os.path.join(out_dir, "error_report.json"))
    assert report["error"] is not None
    # Plumbing check: a 150-iteration EM already predicts within a few percent
    # of the rise (the acceptance suite pins the tight bounds).
    assert report["error"]["max_error_pct_of_rise"] < 8.0

    assert main(["report", os.path.join(out_dir, "trace.csv"), "--out",
                 os.path.join(out_dir, "report.csv")]) == 0
    assert os.path.exists(os.path.join(out_dir, "report.csv"))


def test_generate_minimal_two_rows(tmp_path):
    cfg_path, out_dir = write_config(tmp_path, {"generate": {"N": 2, "seed": 1, "noise": {"kind": "none"}}})
    assert main(["generate", "--config", cfg_path]) == 0
    data = read_trajectory_csv(os.path.join(out_dir, "dataset.csv"))
    assert data.N == 2


def test_generate_creates_missing_outdir(tmp_path):
    cfg_path, out_dir = write_config(tmp_path)
    deep = str(tmp_path / "a" / "b" / "c")
    assert main(["generate", "--config", cfg_path, "--out", deep]) == 0
    assert os.path.exists(os.path.join(deep, "dataset.csv"))


def test_toy_preset_manifest_records_817(tmp_path):
    cfg = {
        "preset": "toy",
        "scheme": "weak",
        "generate": {"N": 2, "seed": 1, "noise": {"kind": "none"}, "write_truth": False},
        "out": str(tmp_path / "toyrun"),
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(path)]) == 0
    manifest = read_manifest(str(tmp_path / "toyrun" / "manifest.json"))
    assert manifest["n_compartments"] == 817
    assert manifest["layer_counts"] == {"1": 117, "2": 359, "3": 170, "4": 170}


def test_custom_mesh_noise_variance_matches_manifest(tmp_path):
    cfg_path, out_dir = write_config(tmp_path, {
        "em": {"R": 1e-4},
        "generate": {"N": 4000, "seed": 3, "noise": {"kind": "AAt", "sigma2": 1e-4}},
    })
    assert main(["generate", "--config", cfg_path]) == 0
    manifest = read_manifest(os.path.join(out_dir, "manifest.json"))
    assert manifest["R"] == 1e-4
    data = read_trajectory_csv(os.path.join(out_dir, "dataset.csv"))
    truth = read_trajectory_csv(os.path.join(out_dir, "truth.csv"))
    noise = data.y - truth.T[:, manifest["observed_indices"]]
    assert abs(noise.var() / manifest["R"] - 1.0) < 0.1


def test_noiseless_AAt_manifest_records_nominal_R(tmp_path):
    cfg_path, out_dir = write_config(tmp_path, {
        "em": {"R": 1e-4},
        "generate": {"N": 50, "seed": 3, "noise": {"kind": "AAt", "sigma2": 0.0}},
    })
    assert main(["generate", "--config", cfg_path]) == 0
    manifest = read_manifest(os.path.join(out_dir, "manifest.json"))
    assert manifest["R"] == 1e-10
    data = read_trajectory_csv(os.path.join(out_dir, "dataset.csv"))
    truth = read_trajectory_csv(os.path.join(out_dir, "truth.csv"))
    assert np.array_equal(data.y, truth.T[:, manifest["observed_indices"]])


def test_report_reads_trace_without_step_columns(tmp_path):
    # Traces written before step_length and rejected were appended.
    path = tmp_path / "trace.csv"
    path.write_text("iter,loglik,theta_rel_change,q_residual,k_0,z_0,q\n"
                    "1,-10.5,0.5,0.001,0.02,0.3,0.01\n2,-9.25,0.1,0.001,0.021,0.31,0.009\n")
    names, data = read_trace_csv(str(path))
    assert names[-1] == "q" and data.shape == (2, 7)
    out = tmp_path / "report.csv"
    assert main(["report", str(path), "--out", str(out)]) == 0
    assert "-9.25" in out.read_text()


def test_em_config_defaults_come_from_emconfig():
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    del cfg["em"]
    got = Experiment(cfg).em_config()
    for f in dataclasses.fields(EmConfig):
        assert getattr(got, f.name) == getattr(EmConfig(), f.name), f.name

    cfg["em"] = json.loads('{"max_iter": 150.0}')
    got = Experiment(cfg).em_config()
    assert got.max_iter == 150 and isinstance(got.max_iter, int)
    assert dataclasses.replace(got, max_iter=EmConfig().max_iter) == EmConfig()


def test_identify_max_iter_one(tmp_path):
    cfg_path, out_dir = write_config(tmp_path, {"em": {"max_iter": 1, "R": 1e-10}})
    assert main(["generate", "--config", cfg_path]) == 0
    assert main(["identify", "--config", cfg_path]) == 0
    summary = read_manifest(os.path.join(out_dir, "summary.json"))
    assert summary["iterations"] == 1
    assert summary["stop_reason"] == "max_iter"


def test_config_refine_list_and_observe_entries():
    spec = json.loads(json.dumps(SMALL_CONFIG["mesh"]))
    spec["refine"] = [[2, 1, 1]]
    spec["observe"] = [{"role": "IGBT", "first": 2}, {"layer": 2}, "ambient"]
    mesh = mesh_from_config(spec)
    # 4 chip cells, 3 copper cells, the 4 children of copper cell (1, 1), ambient.
    assert mesh.n_compartments == 12
    children = [c for c in mesh.compartments if c.refinement_level == 1]
    assert [(c.layer, c.ox, c.oy) for c in children] == [(2, 2, 2), (2, 3, 2), (2, 2, 3), (2, 3, 3)]
    assert [c.index for c in mesh.compartments if c.observed] == [0, 1, *range(4, 12)]


def test_identify_constraint_flag_overrides_config(tmp_path):
    cfg_path, out_dir = write_config(tmp_path, {"em": {"max_iter": 2, "R": 1e-10}})
    assert main(["generate", "--config", cfg_path]) == 0
    assert main(["identify", "--config", cfg_path, "--constraint", "aLLbI"]) == 0
    with open(os.path.join(out_dir, "constraint.json")) as fh:
        assert json.load(fh)["kind"] == "alpha_LL_beta_I"


def test_unknown_scheme_exits_2(tmp_path):
    cfg_path, _ = write_config(tmp_path, {"scheme": "nope"})
    assert main(["generate", "--config", cfg_path]) == 2


def test_scheme_flag_selects_a_config_scheme(tmp_path):
    cfg_path, out_dir = write_config(tmp_path, {"scheme": "nope"})
    assert main(["generate", "--config", cfg_path, "--scheme", "small"]) == 0
    assert read_manifest(os.path.join(out_dir, "manifest.json"))["scheme"] == "small"
    cfg_path, _ = write_config(tmp_path)
    assert main(["generate", "--config", cfg_path, "--scheme", "nope"]) == 2


def test_class_names_not_matching_class_count_exit_2(tmp_path, caplog):
    schemes = json.loads(json.dumps(SMALL_CONFIG["schemes"]))
    schemes["small"]["k_names"] = ["a", "b"]
    cfg_path, _ = write_config(tmp_path, {"schemes": schemes})
    assert main(["generate", "--config", cfg_path]) == 2
    assert "2 k_names for 4 k classes" in caplog.text


def test_predict_horizon_zero_exits_2(tmp_path):
    cfg_path, out_dir = write_config(tmp_path, {"em": {"max_iter": 1, "R": 1e-10}})
    assert main(["generate", "--config", cfg_path]) == 0
    assert main(["identify", "--config", cfg_path]) == 0
    assert main(["predict", "--config", cfg_path, "--horizon", "0"]) == 2
    assert not os.path.exists(os.path.join(out_dir, "prediction.csv"))


def test_bad_config_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["generate", "--config", str(path)]) == 2


def test_corrupted_csv_exits_4_naming_row(tmp_path, capsys, caplog):
    cfg_path, out_dir = write_config(tmp_path)
    assert main(["generate", "--config", cfg_path]) == 0
    data_path = os.path.join(out_dir, "dataset.csv")
    lines = open(data_path).read().splitlines()
    lines[3] = lines[3].replace(",", ",oops,", 1)
    open(data_path, "w").write("\n".join(lines))
    assert main(["identify", "--config", cfg_path]) == 4


def test_predict_without_truth(tmp_path):
    cfg_path, out_dir = write_config(
        tmp_path, {"generate": {"N": 120, "seed": 2, "noise": {"kind": "none"}, "write_truth": False}}
    )
    assert main(["generate", "--config", cfg_path]) == 0
    assert main(["identify", "--config", cfg_path]) == 0
    assert main(["predict", "--config", cfg_path, "--horizon", "50"]) == 0
    report = read_manifest(os.path.join(out_dir, "error_report.json"))
    assert report["error"] is None


def test_predict_flat_truth_reports_no_rise(tmp_path):
    from thermem.model import Trajectory

    cfg_path, out_dir = write_config(tmp_path, {"em": {"max_iter": 2, "R": 1e-10}})
    assert main(["generate", "--config", cfg_path]) == 0
    assert main(["identify", "--config", cfg_path]) == 0
    data = read_trajectory_csv(os.path.join(out_dir, "dataset.csv"))
    truth = tmp_path / "flat.csv"
    # Every compartment stays at 25 degC: no rise above the ambient.
    write_trajectory_csv(str(truth), Trajectory(P=data.P, y=data.y, T=np.full((data.N, 9), 25.0)),
                         full_state=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["predict", "--config", cfg_path, "--horizon", "50", "--truth", str(truth)]) == 0
    error = read_manifest(os.path.join(out_dir, "error_report.json"))["error"]
    assert error["ambient_to_peak_rise"] == 0.0
    assert error["max_error_pct_of_rise"] is None


def test_report_requires_traces():
    assert main(["report"]) == 2


def test_report_splits_diagonal_q(tmp_path):
    cfg_path, out_dir = write_config(
        tmp_path,
        {"constraint": "diag", "em": {"max_iter": 3, "R": 1e-10}},
    )
    assert main(["generate", "--config", cfg_path]) == 0
    assert main(["identify", "--config", cfg_path]) == 0
    out = os.path.join(out_dir, "report.csv")
    assert main(["report", os.path.join(out_dir, "trace.csv"), "--out", out]) == 0
    text = open(out).read()
    assert "q_observed_mean" in text and "q_unobserved_mean" in text


def test_states_csv_dump(tmp_path):
    from thermem.model import Trajectory

    X = np.arange(12.0).reshape(4, 3)
    path = tmp_path / "smoothed.csv"
    write_trajectory_csv(str(path), Trajectory(P=np.zeros((4, 0)), y=X, T=X), full_state=True)
    back = read_trajectory_csv(str(path))
    np.testing.assert_allclose(back.T, X, atol=1e-12)
    assert back.P.shape == (4, 0)


def test_trajectory_csv_roundtrip(tmp_path):
    from thermem.model import Trajectory

    rng = np.random.default_rng(1)
    traj = Trajectory(P=rng.uniform(size=(7, 2)), y=rng.normal(size=(7, 3)),
                      T=rng.normal(size=(7, 4)))
    ypath = tmp_path / "y.csv"
    tpath = tmp_path / "T.csv"
    write_trajectory_csv(str(ypath), traj, full_state=False)
    write_trajectory_csv(str(tpath), traj, full_state=True)
    back_y = read_trajectory_csv(str(ypath))
    back_T = read_trajectory_csv(str(tpath))
    np.testing.assert_allclose(back_y.y, traj.y, atol=1e-10)
    np.testing.assert_allclose(back_y.P, traj.P, atol=1e-10)
    np.testing.assert_allclose(back_T.T, traj.T, atol=1e-10)
