"""README.md against the tree: its examples, the paths it cites and its index.

The README's command lines themselves run in ``scripts/readme.py``; these
checks read it statically, so each runs wherever the suite does.
"""
import argparse
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

from wavecrit.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _readme_tool():
    spec = importlib.util.spec_from_file_location("readme", ROOT / "scripts" / "readme.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_subcommand_has_an_example():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    examples = {line.split()[1] for line in _readme_tool().examples_of(README)}
    missing = [f"wavecrit {command}" for command in subparsers.choices if command not in examples]
    assert subparsers.choices and not missing, \
        f"README's Command line block has no example of {missing}"


def test_every_cited_path_exists():
    # every backticked scripts/, tests/ or perfbench/ path, with any ::test suffix dropped
    cited = {m.split("::")[0] for m in re.findall(r"`((?:scripts|tests|perfbench)/[^`\s]*)", README)}
    missing = sorted(path for path in cited if not (ROOT / path).exists())
    assert cited and not missing, f"README cites what does not exist: {missing}"


def test_index_names_only_what_exists():
    # every backticked bare identifier in a module bullet of "The paper's objects and
    # where they live" is an attribute of that module, a method of one of its classes
    # (`log_mu(L)`) or a wavecrit submodule (`reporting`); paths and dotted names are
    # left to the test above and to the docstrings
    section = README.split("## The paper's objects and where they live\n")[1]
    bullets, missing = [], []
    for line in section.split("\n## ")[0].splitlines():
        if line.startswith("- **`"):
            bullets.append(line)
        elif line.startswith("  ") and bullets:
            bullets[-1] += " " + line.strip()
    for bullet in bullets:
        name, *cited = re.findall(r"`([^`]*)`", bullet)
        module = importlib.import_module(f"wavecrit.{name}")
        classes = [c for _, c in inspect.getmembers(module, inspect.isclass)
                   if c.__module__ == module.__name__]
        for word in cited:
            bare = re.fullmatch(r"([A-Za-z_]\w*)(\(.*\))?", word)
            if bare and not (hasattr(module, bare[1])
                             or any(hasattr(c, bare[1]) for c in classes)
                             or importlib.util.find_spec(f"wavecrit.{bare[1]}")):
                missing.append(f"`{word}` in the {name} bullet")
    assert bullets and not missing, f"README index names what does not exist: {missing}"
