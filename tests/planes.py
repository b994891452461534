"""Reading the plane backend's arrays back as one world set per assignment.

A value of vector.SpaceEvaluator has one plane per world, then the last
variable's values packed 64 to a word, first value lowest, then one axis per
other variable. world_sets unpacks it in the most direct way, for
comparison with the int backend and the oracles.
"""

from __future__ import annotations

import numpy as np


def world_sets(planes: np.ndarray, lengths: tuple[int, ...]) -> np.ndarray:
    """The world set at each assignment of a block with the given
    per-variable lengths (() for no variables: one assignment), as a uint64
    array of that shape: bit w is the assignment's bit in plane w."""
    lengths = tuple(lengths) or (1,)
    words = np.ascontiguousarray(np.moveaxis(np.asarray(planes), 1, -1), dtype="<u8")
    bits = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")
    # a value that does not depend on the packed variable has one word per row
    bits = bits[..., :lengths[-1]] if lengths[-1] <= bits.shape[-1] else bits[..., :1]
    out = np.zeros(lengths, dtype=np.uint64)
    for w, plane in enumerate(np.broadcast_to(bits, (bits.shape[0], *lengths))):
        out |= plane.astype(np.uint64) << np.uint64(w)
    return out
