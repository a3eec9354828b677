"""tools/output_digests.py: an entry of its table gives the same digest on every run."""

import importlib.util
import re
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "output_digests", Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"
)
output_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digests)


def test_generate_entry_is_reproducible(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write = dict(output_digests.OUTPUTS)["generate"]
    first, second = output_digests.digest(write), output_digests.digest(write)
    assert re.fullmatch("[0-9a-f]{64}", first)
    assert first == second
    assert list(tmp_path.iterdir()) == []
