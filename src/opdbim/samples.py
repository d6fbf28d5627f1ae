"""Deterministic random instances for the property suites and scripts."""

from __future__ import annotations

import random

from .perms import YoungSet, enumerate_equivariant_maps, skey, ssorted, stab_gens
from .symseq import SymSeq, SymSeqMap
from .operads import Operad, com_operad, unit_operad
from .bimodules import _all_young_structures, free_bimodule, Bimodule


def rand_young(rng: random.Random, word, n_labels: int) -> YoungSet:
    structures = _all_young_structures(word, n_labels)
    return structures[rng.randrange(len(structures))]


def rand_symseq(
    rng: random.Random,
    sorts=("*",),
    max_arity: int = 3,
    max_labels: int = 3,
    n_cells: int = 2,
    out_sorts=None,
) -> SymSeq:
    """A small reduced symmetric sequence with random Young structures."""
    sorts = ssorted(sorts)
    out_sorts = sorts if out_sorts is None else ssorted(out_sorts)
    cells = {}
    attempts = 0
    while len(cells) < n_cells and attempts < 40:
        attempts += 1
        n = rng.randint(1, max_arity)
        word = tuple(sorted(rng.choices(sorts, k=n), key=skey))
        out = rng.choice(out_sorts)
        if (word, out) in cells:
            continue
        k = rng.randint(1, max_labels)
        cells[(word, out)] = rand_young(rng, word, k)
    return SymSeq(sorts, out_sorts, cells)


def rand_small_symseq(rng: random.Random, sorts=("*",)) -> SymSeq:
    """Small sample profile for the coherence suites: mostly unary cells."""
    sorts = ssorted(sorts)
    cells = {}
    n_cells = rng.randint(1, 2)
    attempts = 0
    while len(cells) < n_cells and attempts < 20:
        attempts += 1
        n = rng.choices([1, 2, 3], [0.55, 0.3, 0.15])[0]
        word = tuple(sorted(rng.choices(sorts, k=n), key=skey))
        out = rng.choice(sorts)
        if (word, out) in cells:
            continue
        k = rng.choices([1, 2, 3], [0.5, 0.35, 0.15])[0]
        cells[(word, out)] = rand_young(rng, word, k)
    return SymSeq(sorts, sorts, cells)


def rand_equivariant_endo(rng: random.Random, cell: YoungSet) -> dict:
    maps = enumerate_equivariant_maps(cell, cell)
    return maps[rng.randrange(len(maps))]


def reflexive_pair(rng: random.Random, f1: SymSeq):
    """A parallel pair ``F0 => F1`` with a common section of the doubling."""
    cells0 = {}
    for key, cell in f1.cells.items():
        labels = tuple(("o", l) for l in cell.labels) + tuple(("x", l) for l in cell.labels)
        gen_maps = {}
        for i in stab_gens(key[0]):
            m = {}
            for tag in ("o", "x"):
                for l in cell.labels:
                    m[(tag, l)] = (tag, cell.gen_maps[i][l])
            gen_maps[i] = m
        cells0[key] = YoungSet(key[0], labels, gen_maps)
    f0 = SymSeq(f1.dom, f1.cod, cells0)
    alpha_comp, beta_comp, section_comp = {}, {}, {}
    for key, cell in f1.cells.items():
        endo = rand_equivariant_endo(rng, cell)
        alpha_comp[key] = {("o", l): l for l in cell.labels}
        alpha_comp[key].update({("x", l): l for l in cell.labels})
        beta_comp[key] = {("o", l): l for l in cell.labels}
        beta_comp[key].update({("x", l): endo[l] for l in cell.labels})
        section_comp[key] = {l: ("o", l) for l in cell.labels}
    alpha = SymSeqMap(f0, f1, alpha_comp)
    beta = SymSeqMap(f0, f1, beta_comp)
    section = SymSeqMap(f1, f0, section_comp)
    return f0, alpha, beta, section


def rand_operad(rng: random.Random, arity_bound: int = 2) -> Operad:
    if rng.random() < 0.5:
        return unit_operad(("*",), arity_bound)
    return com_operad(arity_bound)


def rand_bimodule(rng: random.Random, left: Operad, right: Operad,
                  window: int) -> Bimodule:
    """A free bimodule on a one-cell random seed sequence."""
    n = rng.randint(1, 2)
    word = ("*",) * n
    k = rng.randint(1, 2)
    seed = SymSeq(
        right.sorts, left.sorts, {(word, "*"): rand_young(rng, word, k)}
    )
    return free_bimodule(left, right, seed, window=window)
