"""Additive attention masks with a controllable look-ahead budget.

A mask entry is 0 where attention is allowed and -inf where it is blocked.
The look-ahead mask permits all history plus at most L future positions.
Masks are cached per (length, budget) pair since streaming re-decodes the
buffer every step with slowly varying lengths.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class EmptyInputError(ValueError):
    pass


@dataclass(frozen=True)
class MaskSpec:
    """Per-encoder-layer look-ahead budgets, in word positions."""

    per_layer_lookahead: tuple

    def __post_init__(self):
        budgets = tuple(int(x) for x in self.per_layer_lookahead)
        if any(b < 0 for b in budgets):
            raise ValueError(f"look-ahead budgets must be non-negative: {budgets}")
        object.__setattr__(self, "per_layer_lookahead", budgets)

    @classmethod
    def from_string(cls, text):
        """Parse a comma-separated budget list, e.g. "0,0,0,0,0,9"."""
        try:
            return cls(tuple(int(p.strip()) for p in text.split(",")))
        except ValueError as e:
            raise ValueError(f"bad look-ahead list {text!r}: {e}") from None

    def to_string(self):
        return ",".join(str(b) for b in self.per_layer_lookahead)

    def __len__(self):
        return len(self.per_layer_lookahead)


def effective_lookahead(spec):
    """Total future-word visibility: the sum of per-layer budgets."""
    return sum(spec.per_layer_lookahead)


@lru_cache(maxsize=64)
def _mask_table(rows, lookahead):
    i = np.arange(rows)
    m = np.where(i[:, None] + lookahead >= i, 0.0, -np.inf)
    m.setflags(write=False)
    return m


@lru_cache(maxsize=512)
def build_ct_mask(n, lookahead):
    """Mask allowing all history plus at most `lookahead` future positions.

    Returns a read-only (n, n) array, shared by every caller: entry (i, j)
    is 0 iff i + lookahead >= j (0-based), else -inf. A budget of 0 gives
    the causal mask, a budget of n - 1 or more unrestricted attention: a view
    of one table per (next power of two >= n, budget clamped to it).
    """
    if n < 1:
        raise EmptyInputError(f"mask length must be >= 1, got {n}")
    if lookahead < 0:
        raise ValueError(f"lookahead must be >= 0, got {lookahead}")
    rows = 1 << (n - 1).bit_length()
    return _mask_table(rows, min(lookahead, rows))[:n, :n]
