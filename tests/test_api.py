import re
from pathlib import Path

import votegame
from votegame import experiments, serialize
from votegame.cli import build_parser

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


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    *body, last = block.strip().splitlines()
    expression, expected = (part.strip() for part in last.split("#", 1))
    namespace = {}
    exec("\n".join(body), namespace)
    assert repr(eval(expression, namespace)) == expected


def test_readme_library_names_resolve():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library\n", 1)[1].split("\n## ", 1)[0]
    section = re.sub(r"```.*?```", "", section, flags=re.S)
    names = set()
    for span in re.findall(r"`([^`]+)`", section):
        calls = re.findall(r"([\w.]+)\(", span)
        names.update(call.rsplit(".", 1)[-1] for call in calls)
        names.update(re.findall(r"\b[A-Z][A-Z0-9_]+\b", span))
    assert "run_cells" in names and "TREND_TOLERANCE_SE" in names
    modules = (votegame, experiments, serialize)
    missing = [n for n in names if not any(hasattr(mod, n) for mod in modules)]
    assert not missing, f"README Library section names unknown API: {missing}"


def test_readme_cli_commands_parse():
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].split() for line in block.splitlines()]
    commands = [words for words in commands if words]
    assert commands and all(words[0] == "votegame" for words in commands)
    parser = build_parser()
    for words in commands:
        parser.parse_args(words[1:])
