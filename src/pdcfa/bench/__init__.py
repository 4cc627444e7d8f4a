"""Bundled benchmark corpus.

Classic higher-order analysis stress tests, re-encoded for this language
surface (no exact correspondence with any published state counts is
claimed).  Each name's program is the file <name>.scm beside this one.
"""
from importlib import resources

from ..syntax import parse_and_normalize


BENCHMARKS = ("fig1", "mj09", "eta", "kcfa2", "kcfa3", "blur", "loop2", "sat")


def source(name: str) -> str:
    if name not in BENCHMARKS:
        raise KeyError(name)
    return resources.files(__package__).joinpath(f"{name}.scm").read_text()


def load(name: str):
    """Parse and normalize a bundled benchmark; returns the root Exp."""
    return parse_and_normalize(source(name))
