"""The README's shown CLI output and the library names it gives match the code."""

import contextlib
import importlib
import io
import re
import shlex
import sys
from pathlib import Path

import graphtorsion
from graphtorsion.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def shown_examples():
    """(command, shown output lines) for each `graphtorsion` line of the README's
    sh blocks, where the output is the '# ' lines right under the command.  Each
    block stops at its last command that shows output; the commands before it
    run too, since later ones may read the files they write."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README, flags=re.S):
        cmds = []
        for line in block.splitlines():
            if line.startswith("graphtorsion "):
                cmds.append((line, []))
            elif line.startswith("# ") and cmds:
                cmds[-1][1].append(line[2:])
        shown = [i for i, (_, out) in enumerate(cmds) if out]
        if shown:
            examples += cmds[: shown[-1] + 1]
    return examples


def run_pipeline(line, monkeypatch):
    """Run `graphtorsion ... | graphtorsion ...` in process; return the last stdout."""
    data = ""
    for stage in line.split(" | "):
        argv = shlex.split(stage, comments=True)
        assert argv[0] == "graphtorsion", stage
        monkeypatch.setattr(sys, "stdin", io.StringIO(data))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(argv[1:])
        assert rc == 0, stage
        data = out.getvalue()
    return data


def test_shown_cli_output_is_printed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = shown_examples()
    checked = [cmd for cmd, shown in examples if shown]
    assert any(" rigidity " in cmd for cmd in checked)
    assert any(" spectrum " in cmd for cmd in checked)
    for cmd, shown in examples:
        out = run_pipeline(cmd, monkeypatch)
        if shown:
            assert out.splitlines() == shown, cmd


def test_library_names_import_from_the_package():
    section = README.split("## Library", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    names = re.findall(r"`([A-Za-z_][\w.]*)`", prose)
    assert "torsion_function" in names
    for name in names:
        if "." in name:
            importlib.import_module(name)
        else:
            assert hasattr(graphtorsion, name), name
    code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    for line in code.splitlines():
        if line.startswith("from graphtorsion import "):
            for name in line.split("import", 1)[1].split(","):
                assert hasattr(graphtorsion, name.strip()), name
