"""Pushdown control-flow analysis with abstract garbage collection."""

from .syntax import parse_program, normalize, parse_and_normalize
from .concrete import inject, step, run
from .abstract import Mono, OneCFA, KCFA, astep, areturn, store_join
from .gc import touches, reachable_addrs
from .analyses import run_one, AnalysisResult
from .metrics import Metrics, singleton_count, to_dot, to_json

__version__ = "0.1.0"
