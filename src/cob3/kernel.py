"""The diagram kernel: canonical forms, window matching and surgery.

The one implementation is pure Python, in `cob3._kernel_py`; the rest of
the package imports it under this name. `KERNEL` names it.
"""

from cob3._kernel_py import (
    apply_insertion,
    apply_match,
    find_insertions,
    find_matches,
    instantiate,
    nf,
    side_hull,
    successors,
)

KERNEL = "python"

__all__ = [
    "KERNEL",
    "nf",
    "find_matches",
    "apply_match",
    "find_insertions",
    "apply_insertion",
    "instantiate",
    "side_hull",
    "successors",
]
