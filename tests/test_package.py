"""The package's public namespace and the README's library and CLI examples."""

import io
import re
import shlex
import sys
import types
from pathlib import Path

import prefixnormal
from prefixnormal.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_star_exports_resolve_and_exclude_modules():
    for name in prefixnormal.__all__:
        value = getattr(prefixnormal, name)
        assert not isinstance(value, types.ModuleType), name
    assert {"FiniteWord", "max_word", "min_word", "build_index"} <= set(prefixnormal.__all__)


def test_readme_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})



#: The README's CLI lines whose comments state an outcome: exit code and stdout.
STATED = {
    "pnw check --word 11100110110": (1, "len=5 start=6 ones=4 prefix_ones=3\n"),
    "pnw density --word 1110000": (0, "3/7 7 3\n"),
    "pnw density --period 1,10": (0, "1/2\n"),
    'echo "3 2" | pnw index query fib.pnji': (0, "yes\n"),
}


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    (block,) = [block for block in blocks if block.startswith("pnw ")]
    monkeypatch.chdir(tmp_path)
    runs = {}
    for line in block.splitlines():
        command, _, comment = (part.strip() for part in line.partition("#"))
        echo, _, pnw = command.rpartition(" | ")  # echo TEXT | pnw ...
        pnw, _, target = pnw.partition(" > ")  # pnw ... > FILE
        monkeypatch.setattr(sys, "stdin", io.StringIO(" ".join(shlex.split(echo)[1:]) + "\n"))
        code = main(shlex.split(pnw)[1:])
        out = capsys.readouterr().out
        if target:
            Path(target).write_text(out)
        runs[command] = code, out, comment
    for command, (code, out, comment) in runs.items():
        if command in STATED:
            assert (code, out) == STATED[command]
            assert (f"exit {code}" if code else out.strip()) in comment, command
        else:
            assert code == 0, command
    assert set(STATED) <= set(runs)
    assert Path("fib.tsv").read_text().startswith("0\t0\t0\t0\n")
