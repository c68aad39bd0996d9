"""The README's examples, run as written: the library quick start against
the outputs its comments state, and the CLI examples whose output the
README shows in full against that text, byte for byte."""

import re
import shlex
from pathlib import Path

import pytest

from rsys.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8"
)

CLI_EXAMPLES = [
    "rsys validate oncogenic",
    "rsys corpus",
    "rsys decide chain.rs.txt --constraint max-cardinality=1",
    "rsys decide chain.rs.txt --minimal-n",
    "rsys decide wide17.rs.txt --constraint max-cardinality=1 --force",
    'rsys graph oncogenic --input-set "{GF, iPI3K}" --seeds S19 --dot graph.dot',
]


def code_blocks(text):
    """(language, body) of each fenced block."""
    return re.findall(r"^```(\w*)\n(.*?)^```$", text, flags=re.M | re.S)


def section(title):
    start = README.index(f"\n## {title}\n")
    return README[start : README.index("\n## ", start + 1)]


def shown_runs():
    """{command line: the output shown under it} over every block."""
    runs = {}
    for _, body in code_blocks(README):
        command = None
        for line in body.splitlines():
            if line.startswith("$ "):
                command = line[2:]
                runs[command] = []
            elif command is not None:
                runs[command].append(line)
    return {cmd: "\n".join(lines).rstrip("\n") + "\n" for cmd, lines in runs.items()}


def test_library_quick_start_prints_what_its_comments_state(capsys):
    blocks = [
        body
        for lang, body in code_blocks(section("Library quick start"))
        if lang == "python"
    ]
    code = "".join(blocks)
    lines = code.splitlines()
    stated = []
    for k, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        inline = re.search(r"\)\s+# (.*)$", line)
        stated.append(inline.group(1) if inline else lines[k + 1].removeprefix("# "))
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(stated) == 5
    for got, claim in zip(printed, stated):
        # A comment may explain the value after it, in parentheses.
        assert claim == got or claim.startswith(got + " (")


@pytest.mark.parametrize("command", CLI_EXAMPLES)
def test_cli_example_prints_the_readme_text(capsys, monkeypatch, tmp_path, command):
    shown = shown_runs()
    assert command in shown
    (chain,) = [body for _, body in code_blocks(README) if body.startswith("@name chain\n")]
    (tmp_path / "chain.rs.txt").write_text(chain)
    # The README's wide17: 17 species and no reactions.
    species = ", ".join(f"s{k}" for k in range(17))
    (tmp_path / "wide17.rs.txt").write_text(f"@name wide17\n@species {species}\n")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == shown[command]
