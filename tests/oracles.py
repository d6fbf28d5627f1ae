"""Brute-force oracles shared by several test modules; no kernel code calls them."""

import itertools
from functools import lru_cache

from opdbim.perms import Perm, Word, ssorted


@lru_cache(maxsize=65536)
def word_arrows(v: Word, w: Word) -> tuple[Perm, ...]:
    """All arrows ``p: v -> w``, i.e. permutations with ``act_word(v, p) == w``."""
    if len(v) != len(w):
        return ()
    positions: dict = {}
    for i, s in enumerate(v):
        positions.setdefault(s, []).append(i)
    by_letter: dict = {}
    for i, s in enumerate(w):
        by_letter.setdefault(s, []).append(i)
    if {k: len(ps) for k, ps in positions.items()} != {
        k: len(ps) for k, ps in by_letter.items()
    }:
        return ()
    letters = ssorted(by_letter)
    choices = []
    for s in letters:
        tgt = by_letter[s]
        src = positions[s]
        choices.append([list(zip(tgt, perm)) for perm in itertools.permutations(src)])
    out = []
    for combo in itertools.product(*choices):
        im = [0] * len(w)
        for pairs in combo:
            for tgt_pos, src_pos in pairs:
                im[tgt_pos] = src_pos
        out.append(Perm(tuple(im)))
    out.sort(key=lambda p: p.images)
    return tuple(out)
