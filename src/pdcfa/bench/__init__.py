"""Bundled benchmark corpus.

Classic higher-order analysis stress tests, re-encoded for this language
surface (no exact correspondence with any published state counts is
claimed).
"""
from importlib import resources

from ..frozen import Frozen, setfield
from ..syntax import parse_and_normalize


class BenchmarkEntry(Frozen):
    def __init__(self, name, path):
        setfield(self, "name", name)
        setfield(self, "path", path)


BENCHMARKS = [
    BenchmarkEntry("fig1", "fig1.scm"),
    BenchmarkEntry("mj09", "mj09.scm"),
    BenchmarkEntry("eta", "eta.scm"),
    BenchmarkEntry("kcfa2", "kcfa2.scm"),
    BenchmarkEntry("kcfa3", "kcfa3.scm"),
    BenchmarkEntry("blur", "blur.scm"),
    BenchmarkEntry("loop2", "loop2.scm"),
    BenchmarkEntry("sat", "sat.scm"),
]

BY_NAME = {b.name: b for b in BENCHMARKS}


def source(name: str) -> str:
    entry = BY_NAME[name]
    return resources.files(__package__).joinpath(entry.path).read_text()


def load(name: str):
    """Parse and normalize a bundled benchmark; returns the root Exp."""
    return parse_and_normalize(source(name))
