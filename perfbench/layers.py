"""Charge a profiled run's self time to the ``repro`` layer that owns it.

A layer is a ``repro`` subpackage.  Every function's self time
(``tottime``) goes to the subpackage whose file defines it; functions
outside ``repro`` (the standard library, builtins, NumPy's Python parts)
go to ``other``.  The subpackages that are switched off in every workload
still run their disabled guards; that time is charged to the layer of the
caller, through the profiler's per-caller breakdown, so the layer table
names the code that pays for the guard.  Nothing is dropped: the layer
totals sum to the profile's total self time.
"""

from __future__ import annotations

import pstats
from pathlib import Path
from typing import Dict, Tuple

__all__ = ["LAYERS", "OFF", "layer_self_times", "call_count"]

#: layers reported, in table order; ``other`` is everything outside repro
LAYERS = (
    "sim", "osmodel", "network", "protocol", "dse", "apps", "traffic",
    "shard", "experiments", "hardware", "ssi", "util", "other",
)
#: subpackages (and top-level modules) off in every workload: charged to callers
OFF = frozenset({"obs", "sanitize", "resilience", "replay", "check", "mp", "perf", "<top>"})

Func = Tuple[str, int, str]


def _package(filename: str, repro_root: Path) -> str:
    try:
        rel = Path(filename).resolve().relative_to(repro_root)
    except ValueError:
        return "other"
    if len(rel.parts) == 1:
        return "<top>"  # repro/errors.py, repro/__init__.py
    return rel.parts[0] if rel.parts[0] in LAYERS or rel.parts[0] in OFF else "other"


def layer_self_times(stats: pstats.Stats, repro_root: Path) -> Dict[str, float]:
    """Self seconds per layer; the values sum to ``stats.total_tt``."""
    raw = stats.stats  # func -> (cc, nc, tottime, cumtime, callers)
    own = {func: _package(func[0], repro_root) for func in raw}

    def owner(func: Func, seen: frozenset = frozenset()) -> str:
        layer = own.get(func, "other")
        if layer not in OFF:
            return layer
        callers = raw[func][4] if func in raw else {}
        if not callers or func in seen:
            return "other"
        # the caller that spent the most self time in this function
        top = max(callers, key=lambda c: callers[c][2])
        return owner(top, seen | {func})

    totals = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tottime, _ct, callers) in raw.items():
        if own[func] not in OFF:
            totals[own[func]] += tottime
            continue
        charged = 0.0
        for caller, (_n, _c, caller_tt, _ct2) in callers.items():
            totals[owner(caller, frozenset({func}))] += caller_tt
            charged += caller_tt
        totals[owner(func)] += tottime - charged
    return totals


def call_count(stats: pstats.Stats, path_suffix: str, name: str) -> int:
    """Calls of function ``name`` defined in a file ending in ``path_suffix``."""
    return sum(
        entry[1]
        for (filename, _line, funcname), entry in stats.stats.items()
        if funcname == name and filename.endswith(path_suffix)
    )

