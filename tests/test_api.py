import re
from pathlib import Path

import votegame

README = Path(__file__).resolve().parents[1] / "README.md"


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from votegame import *", namespace)
    for name in votegame.__all__:
        assert namespace[name] is getattr(votegame, name)


def test_readme_export_list_is_all():
    text = README.read_text(encoding="utf-8")
    block = text.split("The package exports:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"`(\w+)`", block)
    assert len(listed) == len(set(listed)), "README lists an export twice"
    assert sorted(listed) == sorted(votegame.__all__)
