"""The README's examples run as printed: the sample CLI output is what the
command prints, and the Python API block runs."""

import re
import shlex
from pathlib import Path

from gjmsdet.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(after: str, lang: str) -> str:
    """The body of the first ``lang`` fenced block after the line ``after``."""
    match = re.search(
        rf"^{re.escape(after)}\n+```{lang}\n(.*?)^```$", README, re.MULTILINE | re.DOTALL
    )
    assert match, f"no {lang} block after {after!r}"
    return match.group(1)


def test_sample_output_is_what_eval_prints(capsys):
    command, printed = _block("Sample output:", "text").split("\n", 1)
    argv = shlex.split(command.removeprefix("$ "))
    assert argv[:1] == ["gjmsdet"] and argv[1:] == ["eval", "--d", "5", "--k", "2"]
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out == printed


def test_python_api_block_runs():
    namespace: dict = {}
    exec(compile(_block("## Python API", "python"), "README.md", "exec"), namespace)
    assert namespace["powers"] == (4, 10, 6, 1)
    assert namespace["res"].method == namespace["tight"].method == "direct"
