"""The README's Library quickstart runs as printed and says what it claims."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart_source():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quickstart_runs_and_prints_its_claims(capsys):
    """Executed in the suite's process, so any warning is an error."""
    exec(compile(_quickstart_source(), str(README), "exec"), {})
    energy, deviation, value = capsys.readouterr().out.split()
    assert float(energy) == math.sqrt(7.0)
    assert float(deviation) < 1e-13
    assert math.isfinite(float(value))
