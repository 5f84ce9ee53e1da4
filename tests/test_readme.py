"""The README's Python examples run as written, its JSON configs and CLI
lines parse, and its notes name every argument rule."""
import json
import re
import shlex
from pathlib import Path

from privtext import errors
from privtext.cli import build_parser
from privtext.pipeline import ProtocolConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_json_blocks_are_pipeline_configs():
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        ProtocolConfig.from_dict(json.loads(block))


def test_cli_lines_parse():
    # argparse exits 2 on a flag the CLI no longer has
    text = README.read_text(encoding="utf-8")
    lines = re.findall(r"^privtext (.*)$", text, re.M)
    assert lines
    for line in lines:
        args = shlex.split(line)
        while "<" in args:
            at = args.index("<")
            del args[at : at + 2]
        build_parser().parse_args(args)


def test_semantics_notes_name_every_rule():
    # the notes say every public argument is checked by one rule of
    # privtext.errors: a rule they leave out is a check they do not describe
    text = README.read_text(encoding="utf-8")
    notes = text.split("\n## Notes on semantics\n", 1)[1].split("\n## ", 1)[0]
    rules = [name for name in vars(errors) if name.startswith("require_")]
    assert rules
    assert [name for name in rules if f"`{name}`" not in notes] == []
