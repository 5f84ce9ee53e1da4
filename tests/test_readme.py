"""The README's Python examples run as written, and its JSON configs parse."""
import json
import re
from pathlib import Path

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
