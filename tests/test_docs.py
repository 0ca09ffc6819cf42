"""The demos run, the README's imports are the package's public surface, its
commands parse, and its artifacts table names what ``gridcast train`` writes."""

import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import gridcast
from gridcast.attention import MODES
from gridcast.cli import build_parser, main
from gridcast.data import synthetic_sines

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(gridcast.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp_path)  # where the demos write their CSV files
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert os.listdir(tmp_path) == []  # the demo removed what it wrote


def test_importing_gridcast_loads_only_the_standard_library_and_numpy():
    # numpy stays the only runtime dependency, and ``import gridcast`` is what
    # the benchmark's setup_s times in every fresh process
    src = os.path.dirname(os.path.dirname(os.path.abspath(gridcast.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = (
        "import sys; before = set(sys.modules); import gridcast; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = {name.split(".")[0] for name in done.stdout.split()}
    assert {"gridcast", "numpy"} <= loaded
    assert loaded - set(sys.stdlib_module_names) - {"gridcast", "numpy"} == set()


def test_public_names_resolve_and_cover_the_readme():
    for name in gridcast.__all__:
        assert getattr(gridcast, name) is not None, name
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    imported = set()
    for names in re.findall(r"^from gridcast import (.+)$", readme, flags=re.MULTILINE):
        imported.update(n.strip() for n in names.split(","))
    assert imported, "the README has no 'from gridcast import' line"
    assert imported <= set(gridcast.__all__), imported - set(gridcast.__all__)


def test_readme_commands_parse():
    # a spelling the CLI dropped fails here rather than in a reader's shell
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    blocks = re.findall(r"^```(?:sh|bash|shell)\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
    commands = [line for block in blocks for line in block.splitlines() if line.startswith("gridcast ")]
    assert commands, "the README has no gridcast command"
    for line in commands:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"the README's {line!r} does not parse")


def test_readme_run_config_parses_and_builds(tmp_path, monkeypatch):
    # the README's RunConfig example runs as written, reading its ini block
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    blocks = re.findall(r"^```ini\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, "the README should hold one ```ini run.cfg block"
    examples = [
        block
        for block in re.findall(r"^```python\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
        if "load_run_config" in block
    ]
    assert len(examples) == 1, "the README should hold one RunConfig python block"
    (tmp_path / "run.cfg").write_text(blocks[0])
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(examples[0], namespace)
    assert namespace["cfg"] == gridcast.ModelConfig(**namespace["run"].model, seed=0)


def test_readme_lists_the_sequencing_modes():
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    (sentence,) = re.findall(r"Sequencing\s+modes:(.*?);", readme, flags=re.DOTALL)
    assert tuple(re.findall(r"`(\w+)`", sentence)) == MODES


def test_readme_artifacts_table_names_the_files_train_writes(tmp_path):
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    section = readme.split("### Artifacts", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    patterns = [re.escape(name).replace(re.escape("<F>"), r"\d+") for name in names]
    assert names and len(set(names)) == len(names), names
    data = tmp_path / "sines.csv"
    np.savetxt(data, synthetic_sines(200, n_variates=2).values, delimiter=",")
    out = tmp_path / "out"
    settings = "model.T=16 model.F=4 model.P=8 model.S=4 model.D=8 model.H=2 model.L=1"
    argv = ["train", "--data", str(data), "--out", str(out), "--set", "train.max_epochs=1"]
    for setting in settings.split():
        argv += ["--set", setting]
    assert main(argv) == 0
    written = sorted(os.listdir(out))
    for name in written:
        assert sum(bool(re.fullmatch(p, name)) for p in patterns) == 1, name
    for name, pattern in zip(names, patterns):
        assert any(re.fullmatch(pattern, w) for w in written), name
