"""Cut enumeration substrate."""

from .cut import Cut, cut_is_stamp_alive, cut_leaves_alive, trivial_cut
from .manager import DEFAULT_MAX_CUTS, CutManager

__all__ = [
    "Cut",
    "cut_is_stamp_alive",
    "cut_leaves_alive",
    "trivial_cut",
    "DEFAULT_MAX_CUTS",
    "CutManager",
]
