"""Failure modes at the command-line boundary.

Bad input exits 2 and an internal failure exits 1; either way the user sees
one ``error:`` line on stderr, never a traceback. The config grammar either
parses or raises ParameterError, whatever text it is given.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prsrg import solver
from prsrg.cli import EXIT_BAD_INPUT, EXIT_FAIL, main
from prsrg.errors import NumericalFailure, ParameterError
from prsrg.harness import parse_config, parse_spectrum

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

DATA_RAYLEIGH = """\
[problem]
manifold = sphere:3
kind = data_rayleigh
data = {data}
"""


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


@pytest.mark.parametrize("case", [
    "sweep_n_not_integer", "coords_not_numeric", "eig_not_integer",
    "eig_out_of_range", "data_csv_not_numeric", "data_csv_non_finite",
    "seed_above_64_bits", "noise_scale_negative", "noise_scale_nan",
    "unknown_key", "misplaced_key", "unknown_section",
    "manifold_mismatch_streaming", "manifold_mismatch_quadratic",
    "manifold_mismatch_data",
])
def test_bad_input_exits_2_with_one_line(case, tmp_path, capsys):
    cfg_text = BASE.format(start="random")
    extra: list[str] = []
    if case == "sweep_n_not_integer":
        cfg_text += "\n[sweep]\nn = abc\n"
    elif case == "coords_not_numeric":
        cfg_text = BASE.format(start="coords:a,b,c")
    elif case == "eig_not_integer":
        cfg_text = BASE.format(start="eig:x")
    elif case == "eig_out_of_range":
        cfg_text = BASE.format(start="eig:9")
    elif case == "data_csv_not_numeric":
        data = tmp_path / "rows.csv"
        data.write_text("a,b,c\n1,2,3\n")
        cfg_text = DATA_RAYLEIGH.format(data=data)
    elif case == "data_csv_non_finite":
        data = tmp_path / "rows.csv"
        data.write_text("1,2,3\ninf,0,1\n")
        cfg_text = DATA_RAYLEIGH.format(data=data)
    elif case == "seed_above_64_bits":
        extra = ["--seed", "99999999999999999999999"]
    elif case.startswith("noise_scale_"):
        value = "-0.5" if case == "noise_scale_negative" else "nan"
        cfg_text = cfg_text.replace("noise_scale = 0.2",
                                    f"noise_scale = {value}")
    elif case == "unknown_key":
        cfg_text = cfg_text.replace("budget = 6000", "budget = 6000\nbogus = 3")
    elif case == "misplaced_key":
        cfg_text = cfg_text.replace("budget = 6000", "budget = 6000\nstart = e2")
    elif case == "unknown_section":
        cfg_text += "\n[solvr]\nepsilon = 0.1\n"
    elif case == "manifold_mismatch_streaming":
        cfg_text = cfg_text.replace("sphere:3", "sphere:7").replace(
            "kind = rayleigh\nn = 30", "kind = streaming_rayleigh")
    elif case == "manifold_mismatch_quadratic":
        cfg_text = cfg_text.replace("sphere:3", "euclidean:9").replace(
            "kind = rayleigh", "kind = quadratic_saddle")
    elif case == "manifold_mismatch_data":
        data = tmp_path / "rows.csv"
        data.write_text("1,2,3,4\n0,1,0,1\n")
        cfg_text = DATA_RAYLEIGH.format(data=data)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(cfg_text)
    assert main(["run", "--config", str(cfg), *extra]) == EXIT_BAD_INPUT
    line = _assert_one_error_line(capsys)
    expect = {"data_csv_non_finite": "non-finite",
              "noise_scale_negative": "noise_scale",
              "noise_scale_nan": "noise_scale",
              "unknown_key": "'bogus'",
              "misplaced_key": "[experiment] unknown key 'start'",
              "unknown_section": "[solvr]",
              "manifold_mismatch_streaming": "sphere:7 does not match",
              "manifold_mismatch_quadratic": "euclidean:9 does not match",
              "manifold_mismatch_data": "sphere:3 does not match"}
    assert expect.get(case, "") in line


def test_numerical_failure_exits_1(tmp_path, capsys, monkeypatch):
    def blow_up(*args, **kwargs):
        raise NumericalFailure("non-finite estimator at inner step 3",
                               iteration=3)

    monkeypatch.setattr(solver, "tssrg_run", blow_up)
    cfg = tmp_path / "run.ini"
    cfg.write_text(BASE.format(start="random"))
    assert main(["run", "--config", str(cfg)]) == EXIT_FAIL
    _assert_one_error_line(capsys)


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
    "experiment": ("seed", "budget", "out", "algo", "record_gaps"),
    "problem": ("manifold", "kind", "n", "spectrum", "noise_scale",
                "rotation_seed", "gamma", "L_top", "sigma_radius", "data",
                "start"),
    "solver": ("epsilon", "delta", "mode", "eta", "m", "b", "B", "T_max",
               "r", "D"),
    "constants": ("c_eta", "c_T", "c_r", "c_m", "c_B"),
    "baseline": ("eta", "r", "escape_steps", "batch"),
    "couple": ("nu", "trials", "c2", "c3", "rho_hat"),
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
    "[constants]\nc_eta = none\n",
])
def test_config_values_that_escaped_as_value_or_type_error(text):
    with pytest.raises(ParameterError):
        parse_config(text)


def test_spectrum_linspace_length_is_bounded():
    with pytest.raises(ParameterError):
        parse_spectrum("linspace:0:1:10000000")
