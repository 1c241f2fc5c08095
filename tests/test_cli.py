import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc

import jsonschema
import numpy as np
import pytest

from pathlib import Path

from wigner_witness import (
    CatParams, TmstParams, WernerParams, fock_wigner, ppt_check, pseudospin_epr, state_to_fock,
)

import refvals

PKG_ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((PKG_ROOT / "schemas" / "report.schema.json").read_text())

# Calling the module entry point through the current interpreter keeps the
# tests independent of where the console script landed.
RUNNER = [sys.executable, "-c",
          "import sys; from wigner_witness.cli import main; sys.exit(main(sys.argv[1:]))"]


def run_cli(*args, check=True):
    proc = subprocess.run(RUNNER + list(args), capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def test_evaluate_c1_tmsv_matches_closed_form():
    proc = run_cli("evaluate", "--state", "tmsv", "--s", "0.5",
                   "--criterion", "c1", "--theta", str(math.pi / 4))
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, SCHEMA)
    np.testing.assert_allclose(payload["value"], refvals.tmsv_slice_value(0.5),
                               rtol=0, atol=1e-12)
    assert payload["violated"] is True
    assert payload["criterion"] == "C1"
    assert payload["state"] == {"family": "tmsv", "params": {"s": 0.5}}
    assert payload["runtime_ms"] is None


def test_evaluate_reruns_are_byte_identical(tmp_path):
    args = ("evaluate", "--state", "cat-plus", "--gamma", "1.0",
            "--epsilon", "0.5", "--criterion", "c2", "--theta", "0.7")
    first = run_cli(*args).stdout
    second = run_cli(*args).stdout
    assert first == second
    out = tmp_path / "report.json"
    run_cli(*args, "--output", str(out))
    assert out.read_text() == first


def test_evaluate_timing_flag_fills_runtime():
    proc = run_cli("evaluate", "--state", "vacuum", "--criterion", "c1",
                   "--theta", "0.7", "--timing")
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, SCHEMA)
    assert payload["runtime_ms"] > 0.0


def test_evaluate_optimize_reports_parameters():
    proc = run_cli("evaluate", "--state", "tmsv", "--s", "0.3",
                   "--criterion", "c1", "--transform", "optimize")
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, SCHEMA)
    assert payload["violated"] is True
    assert payload["optimizer"]["t"] > 0
    np.testing.assert_allclose(payload["value"], refvals.tmsv_slice_value(0.3),
                               rtol=0, atol=1e-6)


def test_evaluate_simon_and_duan_need_no_theta():
    simon = json.loads(run_cli("evaluate", "--state", "tmsv", "--s", "0.4",
                               "--criterion", "simon").stdout)
    duan = json.loads(run_cli("evaluate", "--state", "tmsv", "--s", "0.4",
                              "--criterion", "duan").stdout)
    for payload in (simon, duan):
        jsonschema.validate(payload, SCHEMA)
        assert payload["violated"] is True
        assert payload["transform"] is None


def test_evaluate_region_parser_accepts_disks():
    proc = run_cli("evaluate", "--state", "cat-plus", "--gamma", "1.0",
                   "--epsilon", "1.0", "--criterion", "c2", "--theta", "0.7853",
                   "--region", "disks:-2,0,1.5;2,0,1.5")
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, SCHEMA)
    assert payload["region"]["kind"] == "disk-union"
    assert len(payload["region"]["disks"]) == 2


def test_oracle_ppt_werner_matches_closed_form():
    proc = run_cli("oracle", "--state", "werner-phi+", "--epsilon", "0.8",
                   "--ppt")
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, SCHEMA)
    np.testing.assert_allclose(payload["value"], refvals.werner_ppt_min_eig(0.8),
                               rtol=0, atol=1e-12)
    assert payload["violated"] is True


def test_oracle_pseudospin_flags_tmsv():
    proc = run_cli("oracle", "--state", "tmsv", "--s", "0.6", "--cutoff", "24",
                   "--pseudospin")
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, SCHEMA)
    assert payload["violated"] is True


def test_oracle_bell_with_explicit_settings():
    proc = run_cli("oracle", "--state", "cat-minus", "--gamma", "1.0",
                   "--epsilon", "0.0", "--bell",
                   "--alphas", "0,0;0.1,0;0.05,0;0.15,0")
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, SCHEMA)
    assert payload["criterion"] == "BellCHSH"
    assert len(payload["alphas"]) == 4
    assert abs(payload["value"]) <= 4.0 + 1e-9


def test_oracle_crosscheck_wigner_passes():
    proc = run_cli("oracle", "--state", "tmst", "--s", "0.4", "--eta", "0.7",
                   "--r", "0.2", "--crosscheck-wigner")
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    assert payload["max_disagreement"] < 1e-6


def test_sweep_grid_csv_shape(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "[sweep]\nmode = grid\n\n"
        "[state]\nfamily = tmsv\n\n"
        "[grid]\ns = 0.1,0.5,1.0\n\n"
        "[criterion:c1]\ntransform = p-reflect\ntheta = 0.7853981633974483\n")
    proc = run_cli("sweep", "--config", str(cfg))
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["s", "c1_value", "c1_bound", "c1_violated"]
    assert len(rows) == 4
    for row, s in zip(rows[1:], (0.1, 0.5, 1.0)):
        np.testing.assert_allclose(float(row[1]), refvals.tmsv_slice_value(s),
                                   rtol=0, atol=1e-12)
        assert row[3] == "true"


def test_sweep_grid_werner_prints_json_booleans(tmp_path):
    cfg = tmp_path / "werner.cfg"
    cfg.write_text(
        "[sweep]\nmode = grid\n\n"
        "[state]\nfamily = werner-phi+\n\n"
        "[grid]\nepsilon = 0.2,0.8\n\n"
        "[criterion:c1]\ntransform = p-reflect\ntheta = 0.7853981633974483\n")
    rows = list(csv.reader(io.StringIO(run_cli("sweep", "--config", str(cfg)).stdout)))
    assert rows[0] == ["epsilon", "c1_value", "c1_bound", "c1_violated"]
    assert [row[3] for row in rows[1:]] == ["false", "true"]
    for row, eps in zip(rows[1:], (0.2, 0.8)):
        np.testing.assert_allclose(float(row[1]), refvals.werner_c1_value(eps), rtol=0, atol=1e-12)


def test_sweep_threshold_mode_recovers_werner_boundary(tmp_path):
    cfg = tmp_path / "thr.cfg"
    cfg.write_text(
        "[sweep]\nmode = threshold\n\n"
        "[state]\nfamily = werner-phi+\n\n"
        "[grid]\nepsilon = 1.0\n\n"
        "[threshold]\nparam = epsilon\nlo = 0.0\nhi = 1.0\niters = 14\n\n"
        "[criterion:c1]\ntransform = p-reflect\ntheta = 0.7853981633974483\n")
    proc = run_cli("sweep", "--config", str(cfg))
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["epsilon", "c1_threshold"]
    np.testing.assert_allclose(float(rows[1][1]), refvals.WERNER_THRESHOLD,
                               rtol=0, atol=1e-3)


def test_sweep_output_file_matches_stdout(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "[sweep]\nmode = grid\n\n"
        "[state]\nfamily = tmsv\n\n"
        "[grid]\ns = 0.2,0.4\n\n"
        "[criterion:simon]\n")
    streamed = run_cli("sweep", "--config", str(cfg)).stdout
    out = tmp_path / "rows.csv"
    run_cli("sweep", "--config", str(cfg), "--output", str(out))
    assert out.read_text() == streamed


# Werner phi+ at epsilon = 0.2 is separable.  On this strongly anisotropic
# plane (theta near pi/2, |log t| near 3) the order-80 and order-160
# Gauss-Legendre routes once reported violated: true (0.890 +- 0.294).
_ANISOTROPIC = (-13.058052071090582, 9.924749372877825, -9.19336836107752,
                7.0639844575635165, 2.840761648598477, -1.209592661898746)
_NEAR_HALF_PI = 1.5697963267948967


@pytest.mark.parametrize("order", [[], ["--order", "160"]], ids=["default", "order-160"])
def test_anisotropic_werner_slice_is_no_false_certificate(order):
    proc = run_cli("evaluate", "--state", "werner-phi+", "--epsilon", "0.2",
                   "--criterion", "c1", "--theta", repr(_NEAR_HALF_PI),
                   "--transform=" + ",".join(repr(v) for v in _ANISOTROPIC), *order)
    payload = json.loads(proc.stdout)
    want = refvals.werner_slice_value("phi+", 0.2, _NEAR_HALF_PI, _ANISOTROPIC)
    assert abs(want - (-3.3976e-4)) < 1e-8
    assert abs(payload["value"] - want) < 1e-9
    assert payload["violated"] is False


# cat- at the p-reflection and pi/4 is negative only for |x| < 0.297 here,
# between every node of the sign probe and of both tensor rungs: the slice
# read its exact |C1| floor, 0.11365686268 +- 6.9e-13.
_POCKET = ("--gamma", "0.5140794916230585", "--epsilon", "0.2858728703435199")


def test_c2_sees_a_narrow_negative_pocket():
    proc = run_cli("evaluate", "--state", "cat-minus", *_POCKET, "--criterion", "c2",
                   "--transform", "p-reflect", "--theta", "0.7853981633974483")
    payload = json.loads(proc.stdout)
    want = refvals.cat_pi4_abs(float(_POCKET[1]), float(_POCKET[3]), "minus")
    assert abs(want - 0.11553988001) < 1e-10
    assert abs(payload["value"] - want) <= payload["error_estimate"]


def test_cold_tmsv_evaluate_never_imports_numpy_polynomial():
    # The Gauss-Legendre and Gauss-Hermite nodes load numpy.polynomial on
    # first use (about 5 ms of import); a closed-form tmsv call needs neither.
    script = (
        "import contextlib, io, sys\n"
        "import wigner_witness.cli\n"
        "argv = ['evaluate', '--state', 'tmsv', '--s', '0.5', '--criterion', 'c1',\n"
        "        '--theta', '0.7853981633974483']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = wigner_witness.cli.main(argv)\n"
        "print(code, 'numpy.polynomial' in sys.modules)\n")
    path = [str(PKG_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_evaluate_and_oracle_never_import_scipy():
    # scipy is the optimiser's lazy dependency; every other command must run
    # on numpy alone so that a cold CLI call does not pay for importing it.
    commands = [
        ["evaluate", "--state", "tmsv", "--s", "0.5", "--criterion", "c1",
         "--theta", str(math.pi / 4)],
        ["oracle", "--state", "werner-phi+", "--epsilon", "0.5", "--ppt"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from wigner_witness.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    if code != 0:\n"
        "        sys.exit(f'{argv} exited {code}')\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'scipy' or m.startswith('scipy.'))))\n")
    path = [str(PKG_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_bad_transform_exits_config_error():
    proc = run_cli("evaluate", "--state", "tmsv", "--s", "0.5",
                   "--criterion", "c1", "--transform", "1,2,3",
                   "--theta", "0.7", check=False)
    assert proc.returncode == 2
    assert "transform" in proc.stderr


def test_missing_state_parameter_exits_config_error():
    proc = run_cli("evaluate", "--state", "tmst", "--s", "0.5",
                   "--criterion", "c1", "--theta", "0.7", check=False)
    assert proc.returncode == 2


def test_config_without_family_exits_config_error(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("[sweep]\nmode = grid\n\n[state]\ns = 0.5\n\n"
                   "[grid]\ns = 0.1\n\n[criterion:c1]\ntheta = 0.7\n")
    proc = run_cli("sweep", "--config", str(cfg), check=False)
    assert proc.returncode == 2
    assert "family" in proc.stderr


def test_stalled_quadrature_exits_nonconvergence():
    # the error floor sits above 10x this tolerance, so refinement must stall
    proc = run_cli("evaluate", "--state", "werner-phi+", "--epsilon", "0.5",
                   "--criterion", "c1", "--theta", "0.785", "--backend", "fock",
                   "--rule", "adaptive-subdivision", "--tolerance", "1e-15",
                   check=False)
    assert proc.returncode == 3
    assert "converge" in proc.stderr


def test_nan_tolerance_exits_config_error():
    # nan would make the adaptive stop test never fire and report unverified
    proc = run_cli("evaluate", "--state", "cat-minus", "--gamma", "1", "--epsilon", "0.5",
                   "--criterion", "c2", "--transform", "p-reflect",
                   "--theta", "0.785", "--tolerance", "nan", check=False)
    assert proc.returncode == 2
    assert "tolerance" in proc.stderr


def test_truncated_state_exits_cutoff_error():
    proc = run_cli("evaluate", "--state", "tmsv", "--s", "2.0",
                   "--criterion", "purity", "--theta", "0.3",
                   "--backend", "fock", "--cutoff", "6", check=False)
    assert proc.returncode == 4
    assert "cutoff" in proc.stderr.lower()


def test_unknown_criterion_exits_config_error():
    proc = run_cli("evaluate", "--state", "tmsv", "--s", "0.5",
                   "--criterion", "entanglement", "--theta", "0.7", check=False)
    assert proc.returncode == 2


_CAT_C1 = ("evaluate", "--state", "cat-plus", "--gamma", "1", "--epsilon", "0.5",
           "--criterion", "c1", "--theta", "0.7")


@pytest.mark.parametrize("argv", [
    _CAT_C1 + ("--transform", "1,0,0,1,nan,0"),
    _CAT_C1 + ("--gamma", "inf"),
    _CAT_C1 + ("--gamma", "1e200"),         # finite, but the envelope overflows
    _CAT_C1 + ("--gamma", "nan"),
    _CAT_C1 + ("--theta", "4"),
    _CAT_C1 + ("--theta", "nan"),
    _CAT_C1 + ("--theta", "1.5707963267948966"),
    ("evaluate", "--state", "tmsv", "--s", "nan", "--criterion", "c1", "--theta", "0.7"),
    ("evaluate", "--state", "tmsv", "--s", "inf", "--criterion", "c1", "--theta", "0.7"),
    ("evaluate", "--state", "tmst", "--s", "0.5", "--eta", "0.5", "--r", "nan",
     "--criterion", "c1", "--theta", "0.7"),
    # finite, but cosh(2 s) or cosh(r)^2 overflows a float
    ("evaluate", "--state", "tmsv", "--s", "400", "--criterion", "c1", "--theta", "0.7"),
    ("evaluate", "--state", "tmst", "--s", "0.5", "--eta", "0.5", "--r", "800",
     "--criterion", "simon"),
    # in range, but the covariance rounds into unphysical
    ("evaluate", "--state", "tmst", "--s", "175", "--eta", "0.5", "--r", "175",
     "--criterion", "simon"),
    _CAT_C1 + ("--criterion", "c2", "--region", "disks:nan,0,1"),
    _CAT_C1 + ("--criterion", "c2", "--region", "disks:inf,0,1"),
    _CAT_C1 + ("--criterion", "c2", "--region", "rect:-inf,inf,-1,1"),
])
def test_bad_evaluate_input_exits_config_error(argv):
    proc = run_cli(*argv, check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


_FAR = ("--transform=1,0,0,1,1e200,0",)


@pytest.mark.parametrize("argv, cause", [
    (_CAT_C1 + _FAR, "not finite"),
    (_CAT_C1 + _FAR + ("--criterion", "c2"), "zero width"),
    (_CAT_C1 + _FAR + ("--backend", "fock"), "zero width"),
    (_CAT_C1 + ("--criterion", "c2", "--region", "disks:0,0,1e200"), "not finite"),
    (_CAT_C1 + ("--criterion", "c2", "--region", "rect:0,1e308,-1,1"), "not finite"),
], ids=["far-plane-c1", "far-plane-c2", "far-plane-fock-c1", "huge-disk", "huge-rect"])
def test_overflowing_input_exits_nonconvergence(argv, cause):
    # Finite inputs whose slice integral overflows, or whose slice box loses
    # its width to rounding, must not print a report.
    proc = run_cli(*argv, check=False)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert cause in proc.stderr.splitlines()[-1]


_CAT_SWEEP = ("[sweep]\nmode = grid\n\n"
              "[state]\nfamily = cat-plus\nepsilon = 0.5\n\n"
              "[grid]\ngamma = 0.5:1:2\n\n"
              "[criterion:c1]\ntheta = 0.7\n")
# threshold mode builds its fields through the same checks as evaluate
_CAT_THRESHOLD = ("[sweep]\nmode = threshold\n\n"
                  "[state]\nfamily = cat-minus\n\n"
                  "[grid]\ngamma = 1e200\n\n"
                  "[threshold]\nparam = epsilon\n\n"
                  "[criterion:c3]\n")


@pytest.mark.parametrize("good, bad", [
    ("gamma = 0.5:1:2", "gamma = 0.5:1:abc"),
    ("epsilon = 0.5", "epsilon = oops"),
    ("theta = 0.7", "theta = abc"),
    ("theta = 0.7", "theta = 4"),
    pytest.param(_CAT_SWEEP, _CAT_THRESHOLD, id="threshold-envelope-overflow"),
    pytest.param("epsilon = 0.5", "epsilon = 0.5\ncutoff = 0", id="cutoff-0"),
    pytest.param("[criterion:c1]", "[criterion:c9]", id="unknown-criterion"),
    # keys the family lacks: a constant state would give confident wrong rows
    pytest.param(_CAT_SWEEP, "[sweep]\nmode = threshold\n\n[state]\nfamily = tmsv\n\n"
                 "[grid]\ns = 0.5\n\n[threshold]\nparam = eta\niters = 5\n\n"
                 "[criterion:simon]\n", id="threshold-param-not-in-family"),
    pytest.param(_CAT_SWEEP, "[state]\nfamily = tmsv\ns = 0.5\n\n[grid]\neta = 0.2,0.9\n\n"
                 "[criterion:simon]\n", id="grid-axis-not-in-family"),
    pytest.param(_CAT_SWEEP, "[state]\nfamily = tmst\ns = 0.5\nr = 0.2\netta = 0.9\n\n"
                 "[grid]\neta = 0.2,0.9\n\n[criterion:simon]\n", id="state-key-not-in-family"),
])
def test_bad_sweep_config_exits_config_error(tmp_path, good, bad):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_CAT_SWEEP.replace(good, bad))
    proc = run_cli("sweep", "--config", str(cfg), check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def _sweep_rows(tmp_path, text):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text)
    return list(csv.reader(io.StringIO(run_cli("sweep", "--config", str(cfg)).stdout)))


def test_sweep_pseudospin_rounds_odd_cutoff_like_oracle(tmp_path):
    rows = _sweep_rows(tmp_path, "[state]\nfamily = tmsv\ncutoff = 23\n\n"
                                 "[grid]\ns = 0.6\n\n[criterion:pseudospin]\n")
    oracle = json.loads(run_cli("oracle", "--state", "tmsv", "--s", "0.6",
                                "--cutoff", "23", "--pseudospin").stdout)
    assert rows[0] == ["s", "pseudospin_value", "pseudospin_bound", "pseudospin_violated"]
    assert float(rows[1][1]) == oracle["value"]
    assert rows[1][3] == ("true" if oracle["violated"] else "false")


def test_sweep_threshold_simon_recovers_tmst_boundary(tmp_path):
    # loss eta on mode A against gain r: the Simon boundary sits at eta = tanh(r)^2
    rows = _sweep_rows(tmp_path, "[sweep]\nmode = threshold\n\n"
                                 "[state]\nfamily = tmst\ns = 0.5\neta = 1.0\n\n"
                                 "[grid]\nr = 0.2\n\n"
                                 "[threshold]\nparam = eta\nlo = 0.0\nhi = 1.0\niters = 14\n\n"
                                 "[criterion:simon]\n")
    assert rows[0] == ["r", "simon_threshold"]
    np.testing.assert_allclose(float(rows[1][1]), math.tanh(0.2) ** 2, rtol=0, atol=1e-3)


def test_sweep_grid_bell_matches_oracle_optimize(tmp_path):
    rows = _sweep_rows(tmp_path, "[state]\nfamily = cat-minus\ngamma = 1.0\n\n"
                                 "[grid]\nepsilon = 1.0\n\n[criterion:bell]\n")
    oracle = json.loads(run_cli("oracle", "--state", "cat-minus", "--gamma", "1.0",
                                "--epsilon", "1.0", "--bell", "--optimize").stdout)
    assert rows[0] == ["epsilon", "bell_value", "bell_bound", "bell_violated"]
    assert [float(rows[1][1]), float(rows[1][2])] == [oracle["value"], oracle["bound"]]
    assert rows[1][3] == "true" and oracle["violated"] is True


def test_every_mode_calls_criteria_through_module_globals(tmp_path, monkeypatch, capsys):
    # Rebinding a criterion on the cli module must reach evaluate, grid and
    # threshold sweeps alike: a table holding the function objects would not.
    from wigner_witness import cli

    calls = []
    for name in ("simon_check", "criterion1"):
        original = getattr(cli, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)

    def ran(argv):
        calls.clear()
        assert cli.main(argv) == 0
        capsys.readouterr()
        return sorted(set(calls))

    tmsv = ["--state", "tmsv", "--s", "0.4"]
    assert ran(["evaluate", *tmsv, "--criterion", "simon"]) == ["simon_check"]
    assert ran(["evaluate", *tmsv, "--criterion", "c1", "--theta", "0.7"]) == ["criterion1"]
    body = ("[state]\nfamily = tmst\ns = 0.5\nr = 0.2\neta = 1.0\n\n[grid]\nr = 0.2\n\n"
            "[threshold]\nparam = eta\niters = 3\n\n[criterion:simon]\n\n[criterion:c1]\n")
    for mode in ("grid", "threshold"):
        cfg = tmp_path / f"{mode}.cfg"
        cfg.write_text(f"[sweep]\nmode = {mode}\n\n" + body)
        assert ran(["sweep", "--config", str(cfg)]) == ["criterion1", "simon_check"]


@pytest.mark.parametrize("argv", [
    ("oracle", "--state", "tmsv", "--s", "0.5", "--ppt", "--cutoff", "0"),
    ("oracle", "--state", "tmsv", "--s", "0.5", "--pseudospin", "--cutoff", "0"),
    ("evaluate", "--state", "tmsv", "--s", "0.5", "--criterion", "c1", "--theta", "0.7",
     "--backend", "fock", "--cutoff", "-2"),
])
def test_nonpositive_cutoff_exits_config_error(argv):
    proc = run_cli(*argv, check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "cutoff" in lines[0]


@pytest.mark.parametrize("spec", [
    CatParams(gamma=1.0, epsilon=0.5, sign="plus"),
    TmstParams(s=0.5, eta=0.6, r=0.4),
    WernerParams(bell="phi+", epsilon=0.8),
], ids=["cat", "tmst", "werner"])
def test_fock_work_peak_within_cutoff_memory_bound(spec):
    # The bound counts _FOCK_PEAK_MATRICES dense matrices: it must cover the
    # Fock work that one held density matrix feeds.
    from wigner_witness.cli import _FOCK_PEAK_MATRICES
    n = 16
    for _ in range(2):      # the first pass fills the lazy caches
        tracemalloc.start()
        try:
            rho = state_to_fock(spec, n)
            ppt_check(rho)
            pseudospin_epr(rho)
            fock_wigner(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del rho
    assert 16 * n ** 4 < peak < _FOCK_PEAK_MATRICES * 16 * n ** 4


@pytest.mark.parametrize("argv", [
    ("oracle", "--state", "werner-phi+", "--epsilon", "0.5", "--ppt", "--cutoff", "100000"),
    # the family default cutoff grows like gamma^2: about 10^6 levels here
    ("oracle", "--state", "cat-plus", "--gamma", "1000", "--epsilon", "0.5", "--ppt"),
])
def test_cutoff_beyond_memory_exits_config_error(argv):
    # The cutoff is refused before any Fock array exists; the 1 GiB address-space
    # limit turns an attempted allocation into a failure instead of a memory hog.
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    proc = subprocess.run(RUNNER + list(argv), capture_output=True, text=True,
                          preexec_fn=limit_memory)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "cutoff" in lines[0]
