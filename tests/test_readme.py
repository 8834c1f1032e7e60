"""The README's Library quickstart runs as printed and says what it claims,
and the internals the README names still exist."""

import ast
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def _defined_names():
    """Every function, class and assigned name in src/kgo, at any level."""
    names = set()
    for path in (ROOT / "src" / "kgo").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
    return names


# a private name (`_name`, also as `module._name`) or an upper-case constant
# with an underscore (`GRAM_GATE`)
_INTERNAL = re.compile(r"(?<![\w*])_[A-Za-z]\w*|\b[A-Z][A-Z0-9]+(?:_[A-Z0-9]+)+\b")


def test_readme_cites_only_names_the_package_defines():
    """Every private name and every upper-case constant with an underscore
    that the README quotes in backticks is defined in src/kgo, so deleting
    or renaming an internal the README names fails here until the README
    follows.  The README need not cite any, so the pattern is checked on a
    sample: it finds both kinds, and not the names of the public API or of
    report fields (`*_poly`, `n_r`)."""
    sample = "`_renormalize`, `special._MIN_OFFSET`, `GRAM_GATE`, `*_poly`, `n_r`"
    assert _INTERNAL.findall(sample) == ["_renormalize", "_MIN_OFFSET", "GRAM_GATE"]
    cited = set()
    for span in re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8")):
        cited.update(_INTERNAL.findall(span))
    assert cited <= _defined_names(), sorted(cited - _defined_names())
