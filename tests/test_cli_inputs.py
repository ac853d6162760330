"""Failure modes at the command-line boundary.

Bad input exits 2 and an internal failure exits 1; either way the user sees
one ``error:`` line on stderr, never a traceback. The config grammar either
parses or raises ParameterError, whatever text it is given.
"""

import dataclasses
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prsrg import cli, harness, solver
from prsrg.cli import EXIT_BAD_INPUT, EXIT_FAIL, main
from prsrg.errors import ContractViolation, NumericalFailure, ParameterError
from prsrg.harness import (build_problem, parse_config, parse_spectrum,
                           resolve_params, resolve_start)
from prsrg.rng import master_stream
from prsrg.solver import prsrg_run

BASE = """\
[experiment]
seed = 7
budget = 6000

[problem]
manifold = sphere:3
kind = rayleigh
n = 30
spectrum = 2.0,1.0,0.0
noise_scale = 0.2
start = {start}

[solver]
epsilon = 0.05
delta = 0.5
"""

def _at_d5(cfg_text: str) -> str:
    """The config at d = 5, where n = 2**52 asks for an 80 PiB pair store
    that no address space can map, so a test never allocates it."""
    return (cfg_text.replace("sphere:3", "sphere:5")
            .replace("2.0,1.0,0.0", "2.0,1.0,0.5,0.2,0.0"))


def _store_error(n: int) -> str:
    # n even at d = 5: n / 2 rows of p and of q, 5 float64 each
    return f"[problem] n = {n} needs a pair store of {n * 5 * 8} bytes"


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


# a seed out of the 64-bit range, in the config or on the command line;
# the error names the key at fault
SEED_RANGE = {"seed_negative": "[experiment] seed",
              "seed_flag_negative": "[experiment] seed",
              "rotation_seed_negative_rayleigh": "[problem] rotation_seed",
              "rotation_seed_negative_streaming": "[problem] rotation_seed",
              "rotation_seed_above_64_bits": "[problem] rotation_seed"}

# a config that sets a run parameter, which every run derives: a [solver]
# key other than epsilon and delta, [constants] or [baseline] exits 2 by
# the unknown key or section rule, whatever its value;
# (config text appended, error line)
REMOVED_KEYS = {
    "B_zero": ("B = 0", "[solver] unknown key 'B'"),
    "B_above_n": ("B = 100", "[solver] unknown key 'B'"),
    "b_zero": ("b = 0", "[solver] unknown key 'b'"),
    "m_zero": ("m = 0", "[solver] unknown key 'm'"),
    "m_nan": ("m = nan", "[solver] unknown key 'm'"),
    "m_not_integer": ("m = 2.7", "[solver] unknown key 'm'"),
    "m_above_int64": (f"m = {2 ** 63}", "[solver] unknown key 'm'"),
    "T_max_zero": ("T_max = 0", "[solver] unknown key 'T_max'"),
    "T_max_inf": ("T_max = inf", "[solver] unknown key 'T_max'"),
    "eta_negative": ("eta = -1", "[solver] unknown key 'eta'"),
    "r_negative": ("r = -1", "[solver] unknown key 'r'"),
    "D_negative": ("D = -1", "[solver] unknown key 'D'"),
    "D_above_chart": ("D = 0.75", "[solver] unknown key 'D'"),
    "constants_section": ("\n[constants]\nc_eta = 0.02",
                          "unknown config section [constants]"),
    "baseline_batch": ("\n[baseline]\nbatch = 8",
                       "unknown config section [baseline]"),
    "baseline_eta_negative": ("\n[baseline]\neta = -1",
                              "unknown config section [baseline]"),
}

# the removed point-file and Euclidean inputs: a start other than random
# and eN exits 2 by the unknown-start rule, a quadratic_saddle problem by
# the kind list, and its gamma and L_top by the unknown-key rule;
# (start, {old: new} edits of the config text, error line)
EUCLIDEAN = {"sphere:3": "euclidean:3", "kind = rayleigh":
             "kind = quadratic_saddle"}
NOT_A_KIND = ("[problem] kind must be one of ('rayleigh', "
              "'streaming_rayleigh'), got 'quadratic_saddle'")
REMOVED_INPUTS = {
    "start_zero": ("zero", {}, "[problem] unknown start 'zero'"),
    "start_coords": ("coords:0,1,0", {},
                     "[problem] unknown start 'coords:0,1,0'"),
    "start_file": ("file:x.csv", {}, "[problem] unknown start 'file:x.csv'"),
    "coords_not_numeric": ("coords:a,b,c", {},
                           "[problem] unknown start 'coords:a,b,c'"),
    "coords_norm_overflow": ("coords:1e200,0,0", {},
                             "[problem] unknown start 'coords:1e200,0,0'"),
    "start_off_sphere": ("coords:1,1,1", {},
                         "[problem] unknown start 'coords:1,1,1'"),
    "start_file_no_path": ("file:", {}, "[problem] unknown start 'file:'"),
    "start_file_directory": ("file:.", {}, "[problem] unknown start 'file:.'"),
    "start_file_empty": ("file:x0.txt", {},
                         "[problem] unknown start 'file:x0.txt'"),
    "gamma": ("random", {"n = 30": "n = 30\ngamma = 1.0"},
              "[problem] unknown key 'gamma'"),
    "L_top": ("random", {"n = 30": "n = 30\nL_top = 2.0"},
              "[problem] unknown key 'L_top'"),
    "kind_quadratic_saddle": ("zero", EUCLIDEAN, NOT_A_KIND),
    "euclidean_start_overflow": ("coords:1e200,0,0", EUCLIDEAN, NOT_A_KIND),
    "euclidean_start_nan": ("coords:nan,0,0", EUCLIDEAN, NOT_A_KIND),
    "euclidean_start_inf": ("coords:inf,0,0", EUCLIDEAN, NOT_A_KIND),
    "manifold_mismatch_quadratic": ("random", {"sphere:3": "euclidean:9",
                                               "kind = rayleigh":
                                               "kind = quadratic_saddle"},
                                    NOT_A_KIND),
    "quadratic_one_entry_spectrum": ("zero", {
        "sphere:3": "euclidean:1", "kind = rayleigh": "kind = quadratic_saddle",
        "spectrum = 2.0,1.0,0.0": "spectrum = 1.0"}, NOT_A_KIND),
    "spectrum_quadratic_nan": ("zero", {
        **EUCLIDEAN, "spectrum = 2.0,1.0,0.0": "spectrum = 1,inf,nan"},
        NOT_A_KIND),
    "rotation_seed_negative_quadratic": ("zero", {
        **EUCLIDEAN, "n = 30": "n = 30\nrotation_seed = -1"}, NOT_A_KIND),
    # the points the removed certify --point read: a PRSRGMAT file and a
    # NaN point; no start spelling reads either
    "certify_point_mat": ("file:x.mat", {},
                          "[problem] unknown start 'file:x.mat'"),
    "certify_point_nan": ("coords:nan,0,0", {},
                          "[problem] unknown start 'coords:nan,0,0'"),
}


@pytest.mark.parametrize("case", [
    "sweep_n_not_integer", "eig_not_integer",
    "eig_out_of_range", "start_eig_colon", "kind_data_rayleigh",
    "problem_data",
    "seed_above_64_bits", "noise_scale_negative", "noise_scale_nan",
    "unknown_key", "misplaced_key", "unknown_section",
    "manifold_mismatch_streaming",
    "n_negative", "n_zero", "sweep_seeds_zero",
    "sweep_n_repeated", "sweep_n_streaming",
    "epsilon_nan", "epsilon_zero", "delta_nan", "delta_zero",
    "delta_overflow", "delta_underflow",
    "record_gaps_not_boolean", "record_gaps_true", "couple_section",
    "spectrum_inf",
    "spectrum_minus_inf", "spectrum_overflow", "spectrum_nan",
    "spectrum_linspace_inf", "spectrum_streaming_inf",
    "spectrum_probe_overflow", "spectrum_streaming_probe_overflow",
    "spectrum_probe_rho_squared_overflow",
    "problem_sigma_radius", "solver_mode",
    "online_epsilon_overflow", "online_epsilon_underflow",
    "online_epsilon_m_above_int64", "online_epsilon_B_above_int64",
    "sweep_seeds_past_64_bits", "n_pair_store_80_PiB",
    "n_pair_store_past_int64", "sweep_n_pair_store_80_PiB",
    "config_not_utf8", "print_config_not_utf8",
    *REMOVED_KEYS, *REMOVED_INPUTS, *SEED_RANGE,
])
def test_bad_input_exits_2_with_one_line(case, tmp_path, capsys):
    cfg_text = BASE.format(start="random")
    command = "run"
    extra: list[str] = []
    if case == "sweep_n_not_integer":
        cfg_text += "\n[sweep]\nn = abc\n"
    elif case in ("n_negative", "n_zero"):
        value = "-5" if case == "n_negative" else "0"
        cfg_text = cfg_text.replace("n = 30", f"n = {value}")
    elif case.startswith("sweep_"):
        command = "sweep"
        extra = ["--out", str(tmp_path / "sweep")]
        if case == "sweep_seeds_past_64_bits":
            # seeds 2**64 - 1 and 2**64: the second is no 64-bit seed
            cfg_text = cfg_text.replace("seed = 7", f"seed = {2**64 - 1}")
        elif case == "sweep_n_pair_store_80_PiB":
            # the largest n is built first, so the n = 8 cell writes nothing
            cfg_text = _at_d5(cfg_text)
        if case == "sweep_n_streaming":
            # the stream sizes itself: there is no n to sweep
            cfg_text = cfg_text.replace("kind = rayleigh\nn = 30",
                                        "kind = streaming_rayleigh")
        cfg_text += {"sweep_seeds_zero": "\n[sweep]\nn = 8\nseeds = 0\n",
                     "sweep_n_repeated": "\n[sweep]\nn = 8,8\nseeds = 1\n",
                     "sweep_n_streaming": "\n[sweep]\nn = 10,20\nseeds = 1\n",
                     "sweep_seeds_past_64_bits": "\n[sweep]\nn = 8\nseeds = 2\n",
                     "sweep_n_pair_store_80_PiB":
                         f"\n[sweep]\nn = 8,{2**52}\nseeds = 1\n",
                     }[case]
    elif case.startswith("n_pair_store_"):
        # 2**62: past the int64 byte count numpy can even ask for
        n = 2**52 if case == "n_pair_store_80_PiB" else 2**62
        cfg_text = _at_d5(cfg_text).replace("n = 30", f"n = {n}")
    elif case in REMOVED_INPUTS:
        start, edits, _ = REMOVED_INPUTS[case]
        cfg_text = BASE.format(start=start)
        for old, new in edits.items():
            cfg_text = cfg_text.replace(old, new)
    elif case == "eig_not_integer":
        cfg_text = BASE.format(start="e1.5")
    elif case == "eig_out_of_range":
        cfg_text = BASE.format(start="e9")
    elif case == "start_eig_colon":
        # the removed 0-based spelling of eN
        cfg_text = BASE.format(start="eig:0")
    elif case == "kind_data_rayleigh":
        # the removed data-backed objective, and below its data file key
        cfg_text = cfg_text.replace("kind = rayleigh", "kind = data_rayleigh")
    elif case == "problem_data":
        cfg_text = cfg_text.replace("n = 30", "n = 30\ndata = rows.csv")
    elif case == "seed_above_64_bits":
        extra = ["--seed", "99999999999999999999999"]
    elif case == "seed_negative":
        cfg_text = cfg_text.replace("seed = 7", "seed = -3")
    elif case == "seed_flag_negative":
        extra = ["--seed", "-3"]
    elif case.startswith("rotation_seed_"):
        value = 2**64 if case.endswith("64_bits") else -1
        cfg_text = cfg_text.replace("n = 30",
                                    f"n = 30\nrotation_seed = {value}")
        if case.endswith("streaming"):
            cfg_text = cfg_text.replace("kind = rayleigh\nn = 30",
                                        "kind = streaming_rayleigh")
    elif case.startswith("noise_scale_"):
        value = "-0.5" if case == "noise_scale_negative" else "nan"
        cfg_text = cfg_text.replace("noise_scale = 0.2",
                                    f"noise_scale = {value}")
    elif case in ("epsilon_nan", "epsilon_zero"):
        value = "nan" if case == "epsilon_nan" else "0"
        cfg_text = cfg_text.replace("epsilon = 0.05", f"epsilon = {value}")
    elif case.startswith("delta_"):
        # delta^3 overflows, or the cap ceil(20 / delta) passes 2**63
        value = {"delta_nan": "nan", "delta_zero": "0",
                 "delta_overflow": "1e103", "delta_underflow": "1e-300"}[case]
        cfg_text = cfg_text.replace("delta = 0.5", f"delta = {value}")
    elif case.startswith("record_gaps_"):
        # the removed run flag, whatever its value
        value = "maybe" if case == "record_gaps_not_boolean" else "true"
        cfg_text = cfg_text.replace("budget = 6000",
                                    f"budget = 6000\nrecord_gaps = {value}")
    elif case == "couple_section":
        # the section of the removed couple command
        cfg_text += "\n[couple]\ntrials = 2\n"
    elif case == "problem_sigma_radius":
        # the removed sigma bound's radius
        cfg_text = cfg_text.replace("noise_scale = 0.2",
                                    "noise_scale = 0.2\nsigma_radius = 2.0")
    elif case == "solver_mode":
        # the removed mode selector: the objective decides the mode
        cfg_text += "mode = online\n"
    elif case == "unknown_key":
        cfg_text = cfg_text.replace("budget = 6000", "budget = 6000\nbogus = 3")
    elif case == "misplaced_key":
        cfg_text = cfg_text.replace("budget = 6000", "budget = 6000\nstart = e2")
    elif case == "unknown_section":
        cfg_text += "\n[solvr]\nepsilon = 0.1\n"
    elif case == "manifold_mismatch_streaming":
        cfg_text = cfg_text.replace("sphere:3", "sphere:7").replace(
            "kind = rayleigh\nn = 30", "kind = streaming_rayleigh")
    elif case.startswith("spectrum_"):
        spectrum = {"spectrum_inf": "inf,1.0,0.0",
                    "spectrum_minus_inf": "2,1,-inf",
                    "spectrum_overflow": "1e400,1.0,0.0",
                    "spectrum_nan": "2.0,1.0,nan",
                    "spectrum_linspace_inf": "linspace:inf:0:3",
                    "spectrum_streaming_inf": "inf,1.0,0.0",
                    # finite, but the probe's squared gradient differences
                    # pass the float64 range
                    "spectrum_probe_overflow": "1e154,1.0,0.0",
                    "spectrum_streaming_probe_overflow": "1e154,1.0,0.0",
                    # L_hat is finite, but r's formula squares rho_hat
                    "spectrum_probe_rho_squared_overflow": "5e153,1.0,0.0",
                    }[case]
        cfg_text = cfg_text.replace("spectrum = 2.0,1.0,0.0",
                                    f"spectrum = {spectrum}")
        if "streaming" in case:
            cfg_text = cfg_text.replace("kind = rayleigh\nn = 30",
                                        "kind = streaming_rayleigh")
    elif case in REMOVED_KEYS:
        cfg_text += REMOVED_KEYS[case][0] + "\n"
        if case.startswith("baseline_"):
            extra = ["--algo", "prgd"]  # the algorithm [baseline] tuned
    elif case.startswith("online_epsilon_"):
        # B's quotient overflows, epsilon^2 underflows, or a finite m (and
        # B) or B alone reaches 2**63
        value = {"online_epsilon_overflow": "1e-160",
                 "online_epsilon_underflow": "1e-200",
                 "online_epsilon_m_above_int64": "1e-20",
                 "online_epsilon_B_above_int64": "1e-9"}[case]
        cfg_text = (cfg_text.replace("kind = rayleigh\nn = 30",
                                     "kind = streaming_rayleigh")
                    .replace("epsilon = 0.05", f"epsilon = {value}"))
    elif case == "print_config_not_utf8":
        command = "print-config"
    cfg = tmp_path / "bad.ini"
    cfg.write_text(cfg_text)
    if case.endswith("config_not_utf8"):
        # a UTF-16 byte-order mark: no UTF-8 text starts with 0xff
        cfg.write_bytes(b"\xff\xfe" + cfg_text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--config", str(cfg), *extra]) == EXIT_BAD_INPUT
    line = _assert_one_error_line(capsys)
    expect = {"eig_not_integer": "[problem] unknown start 'e1.5'",
              "eig_out_of_range":
                  "[problem] start 'e9': eigenvector index out of range",
              "start_eig_colon": "[problem] unknown start 'eig:0'",
              "kind_data_rayleigh":
                  "[problem] kind must be one of ('rayleigh', "
                  "'streaming_rayleigh'), got 'data_rayleigh'",
              "problem_data": "[problem] unknown key 'data'",
              "n_negative": "n must be >= 1",
              "n_zero": "n must be >= 1",
              "sweep_seeds_zero": "[sweep] seeds",
              "sweep_n_repeated": "distinct",
              "sweep_n_streaming": "no n to sweep",
              "config_not_utf8": "is not UTF-8",
              "print_config_not_utf8": "is not UTF-8",
              "noise_scale_negative": "noise_scale",
              "noise_scale_nan": "noise_scale",
              "unknown_key": "'bogus'",
              "misplaced_key": "[experiment] unknown key 'start'",
              "unknown_section": "[solvr]",
              "manifold_mismatch_streaming": "sphere:7 does not match",
              "epsilon_nan": "[solver] epsilon",
              "delta_nan": "[solver] delta",
              "couple_section": "unknown config section [couple]",
              "problem_sigma_radius": "[problem] unknown key 'sigma_radius'",
              "solver_mode": "[solver] unknown key 'mode'",
              "spectrum_inf": "spectrum term 'inf' is non-finite",
              "spectrum_minus_inf": "spectrum term '-inf' is non-finite",
              "spectrum_overflow": "spectrum term '1e400' is non-finite",
              "spectrum_nan": "spectrum term 'nan' is non-finite",
              "spectrum_linspace_inf":
                  "spectrum term 'linspace:inf:0:3' is non-finite",
              "spectrum_streaming_inf": "spectrum term 'inf' is non-finite",
              "online_epsilon_overflow": "online batch sizes overflow",
              "online_epsilon_underflow": "online batch sizes overflow",
              "online_epsilon_m_above_int64": "online batch sizes overflow",
              "online_epsilon_B_above_int64": "online batch sizes overflow",
              "sweep_seeds_past_64_bits": "[sweep] seeds",
              "n_pair_store_80_PiB": _store_error(2**52),
              "sweep_n_pair_store_80_PiB": _store_error(2**52),
              "n_pair_store_past_int64": _store_error(2**62)}
    assert expect.get(case, "") in line
    if case in ("epsilon_zero", "delta_zero"):
        name = case.split("_")[0]
        assert line == (f"error: [solver] {name} must be positive and "
                        f"finite, got 0.0"), line
    if case in SEED_RANGE:
        value = {"seed_negative": -3, "seed_flag_negative": -3,
                 "rotation_seed_above_64_bits": 2**64}.get(case, -1)
        assert line == (f"error: {SEED_RANGE[case]} must be a 64-bit "
                        f"unsigned integer, got {value}"), line
    if case in REMOVED_KEYS:
        assert line == f"error: {REMOVED_KEYS[case][1]}", line
    if case in REMOVED_INPUTS:
        assert line == f"error: {REMOVED_INPUTS[case][2]}", line
    if case.endswith("probe_overflow"):
        assert line == ("error: [solver] the smoothness probe overflows "
                        "float64 at spectrum scale 1e+154 (L_hat = inf)"), line
    if case == "spectrum_probe_rho_squared_overflow":
        # the spectrum's scale is at fault, not the sound delta = 0.5
        assert line == ("error: [solver] the smoothness probe overflows "
                        "float64 at spectrum scale 5e+153 (rho_hat^2 = inf)"
                        ), line
    if case.startswith("record_gaps_"):
        assert line == "error: [experiment] unknown key 'record_gaps'", line
    if command == "sweep":
        # bad input is found before the first cell writes anything
        assert not any((tmp_path / "sweep").glob("*"))
    if case.startswith("online_epsilon_"):
        assert f"epsilon={float(value)}" in line
    if case in ("delta_overflow", "delta_underflow"):
        assert line == (f"error: [solver] T_max and r overflow at "
                        f"delta={float(value)}"), line


@pytest.mark.parametrize("argv", [
    pytest.param(["run", "--algo", "rsgd"], id="algo_rsgd"),
    pytest.param(["couple"], id="couple_command"),
    pytest.param(["certify"], id="certify_command"),
])
def test_removed_cli_choices_are_rejected_by_argparse(argv, capsys):
    # the rsgd baseline and the couple and certify commands are gone:
    # argparse rejects them before the config is read, so the file need
    # not exist
    with pytest.raises(SystemExit) as info:
        main([*argv, "--config", "never-read.ini"])
    assert info.value.code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"invalid choice: '{argv[-1]}'" in err


@pytest.mark.parametrize("kind", ["rayleigh", "streaming_rayleigh"])
def test_oversized_spectrum_exits_2_with_one_line(kind, tmp_path, capsys,
                                                   monkeypatch):
    # d = 5,000,000: its d x d matrices (182 TiB) exceed any address
    # space. The parsed spectrum is handed over as an array, since parsing
    # it from text would build a list of 5M Python floats
    d = 5_000_000
    monkeypatch.setattr(harness, "parse_spectrum",
                        lambda text: np.linspace(2.0, 0.0, d))
    cfg_text = BASE.format(start="random").replace(
        "sphere:3", f"sphere:{d}").replace("kind = rayleigh", f"kind = {kind}")
    if kind == "streaming_rayleigh":
        cfg_text = cfg_text.replace("n = 30\n", "")
    cfg = tmp_path / "run.ini"
    cfg.write_text(cfg_text)
    assert main(["run", "--config", str(cfg)]) == EXIT_BAD_INPUT
    line = _assert_one_error_line(capsys)
    assert line == (f"error: [problem] spectrum of length d = {d} needs d x "
                    f"d matrices of {8 * d * d} bytes each, which cannot be "
                    f"allocated")


def test_numerical_failure_exits_1(tmp_path, capsys, monkeypatch):
    def blow_up(*args, **kwargs):
        raise NumericalFailure("non-finite estimator at inner step 3",
                               iteration=3)

    monkeypatch.setattr(solver, "tssrg_run", blow_up)
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE.format(start="random"))
    assert main(["run", "--config", str(cfg)]) == EXIT_FAIL
    _assert_one_error_line(capsys)


def test_contract_violation_exits_1(tmp_path, capsys, monkeypatch):
    # no config value or flag reaches a contract check, so a failed one is
    # a library bug: exit 1, not the bad-input exit 2
    def broken(*args, **kwargs):
        raise ContractViolation("tangent vector based at the wrong point")

    monkeypatch.setattr(cli, "run_experiment", broken)
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE.format(start="random"))
    assert main(["run", "--config", str(cfg)]) == EXIT_FAIL
    line = _assert_one_error_line(capsys)
    assert line == "error: tangent vector based at the wrong point", line


def test_numerical_failure_survives_pickling():
    # a pool that runs prsrg jobs sends a worker's error back pickled
    exc = pickle.loads(pickle.dumps(NumericalFailure("bad", iteration=3)))
    assert type(exc) is NumericalFailure
    assert str(exc) == "bad (iteration 3)"
    assert exc.iteration == 3


@pytest.mark.parametrize("eta", ["1e160", "1e300"])
def test_huge_step_size_runs_to_budget(eta):
    # every step is so long that its squared norm overflows; each epoch
    # exits on the ball boundary instead of turning the iterate into NaN
    cfg = parse_config(BASE.format(start="random"))
    obj = build_problem(cfg)
    stream = master_stream(cfg.seed)
    x0 = resolve_start(cfg, obj, stream)
    derived, _ = resolve_params(cfg, obj, x0, stream)
    params = dataclasses.replace(derived, eta=float(eta))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = prsrg_run(obj, x0, params, stream)
    assert report.exit_reason == "budget"
    epochs = report.outer_iterations
    assert epochs > 1
    assert report.epochs == {"type1_descent": epochs, "type2_descent": 0,
                             "useful": 0, "wasted": 0, "escape": 0}
    exits = [row for row in report.trace if row.event != "anchor"]
    assert [row.event for row in exits] == ["boundary"] * epochs
    assert all(abs(row.u_norm - params.D) <= 1e-12 for row in exits)


def test_budget_invariant_exits_1(tmp_path, capsys, monkeypatch):
    # an epoch that charges more queries than it reports breaks the
    # end-of-run accounting check, which is an internal bug, not bad input
    real_tssrg_run = solver.tssrg_run

    def overspend(oracle, *args, **kwargs):
        out = real_tssrg_run(oracle, *args, **kwargs)
        oracle.queries += 10**9
        return out

    monkeypatch.setattr(solver, "tssrg_run", overspend)
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE.format(start="random"))
    assert main(["run", "--config", str(cfg)]) == EXIT_FAIL
    _assert_one_error_line(capsys)


# ---------------------------------------------------------- property tests

SPECTRUM_TEXT = st.text(alphabet="0123456789.,:-+e linspacif", max_size=40)

CONFIG_KEYS = {
    "experiment": ("seed", "budget", "out", "algo"),
    "problem": ("manifold", "kind", "n", "spectrum", "noise_scale",
                "rotation_seed", "start"),
    "solver": ("epsilon", "delta"),
    "sweep": ("n", "seeds"),
}

VALUES = st.one_of(
    st.sampled_from(["", "none", "true", "0", "-1", "1e3", "nan", "inf",
                     "prsrg", "rayleigh", "online", "streaming", "abc",
                     "1,2,x", "10,20"]),
    st.integers(min_value=-2**70, max_value=2**70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(alphabet="0123456789.,:-e xabn", max_size=12),
)


@st.composite
def config_texts(draw):
    """INI text over the real sections and keys, one value per key."""
    pairs = [(sec, key) for sec, keys in CONFIG_KEYS.items() for key in keys]
    entries = draw(st.lists(st.tuples(st.sampled_from(pairs), VALUES),
                            min_size=1, max_size=6))
    sections: dict[str, dict[str, str]] = {}
    for (sec, key), value in entries:
        sections.setdefault(sec, {})[key] = value
    return "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                   for sec, kv in sections.items())


def _parses_or_parameter_error(fn, text):
    try:
        fn(text)
    except ParameterError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text(max_size=40), SPECTRUM_TEXT))
def test_parse_spectrum_returns_or_raises_parameter_error(text):
    _parses_or_parameter_error(parse_spectrum, text)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text(max_size=80), config_texts()))
def test_parse_config_returns_or_raises_parameter_error(text):
    _parses_or_parameter_error(parse_config, text)


@pytest.mark.parametrize("text", [
    "[sweep]\nn = abc\n", "[experiment]\nbudget =\n",
    "[constants]\nc_eta = none\n", "[solver]\nepsilon = none\n",
])
def test_config_values_that_escaped_as_value_or_type_error(text):
    with pytest.raises(ParameterError):
        parse_config(text)


def test_spectrum_linspace_length_is_bounded():
    with pytest.raises(ParameterError):
        parse_spectrum("linspace:0:1:10000000")
