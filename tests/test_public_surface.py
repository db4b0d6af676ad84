"""The top-level names are the documented library surface: the README's
"Library use" example runs as written, and every exported name resolves."""

import os
import re

import divcast

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def library_use_block() -> str:
    with open(README) as fh:
        text = fh.read()
    match = re.search(r"## Library use\n+```python\n(.*?)```", text, re.S)
    assert match, "README has no python block under its Library use heading"
    return match.group(1)


def test_readme_library_use_runs():
    scope: dict = {}
    exec(compile(library_use_block(), "README.md", "exec"), scope)
    assert scope["out"].weights_mean.shape == (100, 3, 1)


def test_every_exported_name_resolves():
    missing = [name for name in divcast.__all__ if not hasattr(divcast, name)]
    assert not missing
