"""Enumeration of the 4-input NPN classes.

The full space has 222 classes (the paper quotes this for ABC's ``drw``
operator).  ABC's ``rewrite`` evaluates only the 134 classes whose
functions occur in practical circuits; the exact membership list is an
artifact of ABC's precomputation, so this reproduction needs a
deterministic, motivated stand-in: the 134 *most populous* classes
(largest number of member functions, ties broken by canonical value).
Population is a direct proxy for "occurs in practice" — random and
arithmetic logic alike lands overwhelmingly in the big classes.  All of
our engines use the same subset, so cross-engine comparisons are fair.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Tuple

import numpy as np

from .canon import canon_all_functions

NUM_NPN_CLASSES_4 = 222
NUM_PRACTICAL_CLASSES = 134


@lru_cache(maxsize=1)
def _canon_table() -> np.ndarray:
    return canon_all_functions()


@lru_cache(maxsize=1)
def all_classes() -> Tuple[int, ...]:
    """Canonical representatives of all 222 classes, ascending."""
    return tuple(int(x) for x in np.unique(_canon_table()))


@lru_cache(maxsize=1)
def class_populations() -> Dict[int, int]:
    """Canonical representative -> number of member functions."""
    reps, counts = np.unique(_canon_table(), return_counts=True)
    return {int(r): int(c) for r, c in zip(reps, counts)}


@lru_cache(maxsize=1)
def practical_classes() -> FrozenSet[int]:
    """The 134-class stand-in for ABC ``rewrite``'s practical subset."""
    pops = class_populations()
    ranked = sorted(pops.items(), key=lambda item: (-item[1], item[0]))
    return frozenset(rep for rep, _ in ranked[:NUM_PRACTICAL_CLASSES])


@lru_cache(maxsize=None)
def class_set(name: str) -> FrozenSet[int]:
    """Resolve a class-set name: ``'all222'`` or ``'common134'`` (the
    same frozenset on every call)."""
    if name == "all222":
        return frozenset(all_classes())
    if name == "common134":
        return practical_classes()
    raise ValueError(f"unknown NPN class set {name!r}")
