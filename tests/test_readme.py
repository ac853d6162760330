"""The README's examples run as written and print what the README says."""

import dataclasses
import json
import re
from pathlib import Path

from prsrg.cli import EXIT_OK, main
from prsrg.harness import ExperimentConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.DOTALL)


def test_readme_python_quick_start(capsys):
    (code,) = _blocks("python")
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    report = namespace["report"]
    assert report.exit_reason == "certified"
    assert report.certified is not None and report.certified.passed
    printed = capsys.readouterr().out.split()
    assert printed[:2] == ["certified", str(report.queries_used)]


def test_readme_ini_example_runs_and_certifies(tmp_path, capsys):
    (ini,) = _blocks("ini")
    documented = json.loads(_blocks("json")[0])
    cfg = tmp_path / "experiment.ini"
    cfg.write_text(ini)
    out = tmp_path / "results" / "run0"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert set(summary) == set(documented)
    assert summary["certified"] is True
    assert summary == documented
    assert (tmp_path / "results" / "run0.report.json").is_file()
    # "Output files" documents the trace header the run wrote
    outputs = README.split("## Output files", 1)[1]
    (header,) = re.findall(r"```\n(.*?)\n```", outputs, flags=re.DOTALL)[:1]
    trace = (tmp_path / "results" / "run0.trace.csv").read_text()
    assert trace.splitlines()[0] == header


def test_config_reference_names_every_key():
    reference = README.split("## Config reference", 1)[1].split("\n## ", 1)[0]

    def names(section, spec):
        out = [f"`[{section}]`"]
        for f in dataclasses.fields(spec):
            value = getattr(spec, f.name)
            if dataclasses.is_dataclass(value):
                out += names(f.name, value)
            else:  # SweepSpec.n_values is the [sweep] n key
                out.append("`n`" if f.name == "n_values" else f"`{f.name}`")
        return out

    missing = [n for n in names("experiment", ExperimentConfig())
               if n not in reference]
    assert missing == []
