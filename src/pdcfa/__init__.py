"""Pushdown control-flow analysis with abstract garbage collection."""

from .syntax import parse_program, normalize, parse_and_normalize, free_vars
from .concrete import inject, step, run
from .abstract import (Mono, OneCFA, KCFA, PolySplit, astep, areturn,
                       step_conf, alpha, leq, store_join)
from .pushdown import net, stackify, compact_naive, compact_worklist
from .gc import touches, stack_root, reachable_addrs, gc, gc_step
from .analyses import (analyze_pdcfa, analyze_gc_precise, analyze_gc_approx,
                       analyze_pdcfa_widened, analyze_finite,
                       compute_root_cache, AnalysisResult)
from .metrics import Metrics, singleton_count, to_dot, to_json

__version__ = "0.1.0"
