"""Brute-force oracles shared by several test modules; no kernel code calls them."""

import itertools
from functools import lru_cache
from typing import Optional

from opdbim.catsym import CatSymSeq
from opdbim.perms import (
    FinGroupoid,
    InputError,
    Perm,
    ValidationError,
    Word,
    act_word,
    block_offsets,
    canonical_word,
    compose,
    disjoint_union,
    equivariant_iso_search,
    skey,
    ssorted,
)
from opdbim.symseq import Composite, EvalResult, Family, SymSeq, SymSeqMap, analytic_eval


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


def eval_general(f: SymSeq, w: Word, y) -> tuple[tuple, Perm]:
    """Labels of the canonical cell realizing ``f`` at ``(w, y)`` plus transport.

    The transport ``t`` is the stable-sort arrow ``canonical(w) -> w``; along
    an arrow ``sigma: v -> w`` labels pull back by the stabilizer element
    ``compose(compose(t_v, sigma), t_w.inverse())`` of the canonical word.
    """
    if any(s not in set(f.dom) for s in w) or y not in set(f.cod):
        raise InputError(f"({w}, {y!r}) outside the sorts of the sequence")
    cw, t = canonical_word(w)
    return f.labels(cw, y), t


def transport(f: SymSeq, sigma: Perm, v: Word, w: Word, y) -> dict:
    """Label map of the contravariant transport along ``sigma: v -> w``."""
    if act_word(v, sigma) != w:
        raise InputError("sigma is not an arrow v -> w")
    cv, tv = canonical_word(v)
    cw, tw = canonical_word(w)
    if cv != cw:
        raise InputError("v and w are not in the same orbit")
    cell = f.cell(cv, y)
    if cell is None:
        return {}
    h = compose(compose(tv, sigma), tw.inverse())
    return {lab: cell.act(lab, h) for lab in cell.labels}


def iso_symseq(f: SymSeq, g: SymSeq) -> Optional[SymSeqMap]:
    """Cell-by-cell equivariant iso, or None when any cell fails."""
    if set(f.dom) != set(g.dom) or set(f.cod) != set(g.cod):
        return None
    comp = {}
    keys = set(k for k, c in f.cells.items() if c.size) | set(
        k for k, c in g.cells.items() if c.size
    )
    for key in keys:
        a, b = f.cell(*key), g.cell(*key)
        if a is None or b is None or a.size != b.size:
            return None
        m = equivariant_iso_search(a, b)
        if m is None:
            return None
        comp[key] = m
    return SymSeqMap(f, g, comp)


def analytic_compose_iso(comp: Composite, t: Family, max_arity: Optional[int] = None):
    """Explicit bijection ``(G o F)(T) -> G(F(T))`` on evaluation classes.

    Returns ``(mapping, ev_comp, ev_inner, ev_outer)`` where ``mapping[y]``
    sends classes of the composite's value to classes of the iterated value;
    bijectivity is asserted.
    """
    g, f = comp.outer, comp.inner
    ev_comp = analytic_eval(comp.seq, t, max_arity=max_arity)
    ev_inner = analytic_eval(f, t, max_arity=max_arity)
    ev_outer = analytic_eval(g, ev_inner.value, max_arity=max_arity)
    mapping = {}
    for z in g.cod:
        m = {}
        for idx, (w, cls, tvec) in enumerate(ev_comp.reps[z]):
            mid, glab, blocks, fs, sig = comp.rep(w, z, cls)
            sigma = Perm(sig)
            concat_tv = tuple(tvec[sigma(p)] for p in range(len(w)))
            offs = block_offsets([len(b) for b in blocks])
            svec = tuple(
                ev_inner.class_of(y, b, lab, concat_tv[offs[i]:offs[i + 1]])
                for i, (b, y, lab) in enumerate(zip(blocks, mid, fs))
            )
            m[idx] = ev_outer.class_of(z, mid, glab, svec)
        if len(set(m.values())) != len(m) or len(m) != len(ev_outer.value.sets[z]):
            raise ValidationError(f"analytic composition map fails to biject at {z!r}")
        mapping[z] = m
    return mapping, ev_comp, ev_inner, ev_outer


def family_map_image(ev_src: EvalResult, ev_dst: EvalResult, fam_map: dict) -> dict:
    """Induced map on classes of a family map ``t: T -> T'`` (naturality data)."""
    out = {}
    for y in ev_src.seq.cod:
        m = {}
        for idx, (w, lab, tvec) in enumerate(ev_src.reps[y]):
            tvec2 = tuple(fam_map[s][v] for s, v in zip(w, tvec))
            m[idx] = ev_dst.class_of(y, w, lab, tvec2)
        out[y] = m
    return out


def product_object(x: FinGroupoid, y: FinGroupoid) -> FinGroupoid:
    """Binary product of objects: the coproduct of the groupoids."""
    return disjoint_union(x, y)


def cat_iso(f: CatSymSeq, g: CatSymSeq) -> Optional[SymSeqMap]:
    """Global equivariant iso search with propagation along every transport."""
    keys = sorted(set(f.support()) | set(g.support()), key=skey)
    for key in keys:
        if len(f.labels(*key)) != len(g.labels(*key)):
            return None
    mapping: dict = {}

    def propagate(seed_key, seed_a, seed_b, mapping):
        queue = [(seed_key, seed_a)]
        mapping = dict(mapping)
        if mapping.get((seed_key, seed_a), seed_b) != seed_b:
            return None
        mapping[(seed_key, seed_a)] = seed_b
        while queue:
            key, la = queue.pop()
            lb = mapping[(key, la)]
            moves = [((v, key[1]), f.dom_tr[key][(v, a)][la], g.dom_tr[key][(v, a)][lb])
                     for v, a in f.dom_arrows(key)]
            moves += [((key[0], f.cod.dst[b]), f.cod_tr[key][b][la], g.cod_tr[key][b][lb])
                      for b in f.cod_arrows(key)]
            for key2, xa, xb in moves:
                node = (key2, xa)
                if node not in mapping:
                    mapping[node] = xb
                    queue.append(node)
                elif mapping[node] != xb:
                    return None
        return mapping

    def injective_per_cell(mapping):
        seen: dict = {}
        for (key, la), lb in mapping.items():
            if (key, lb) in seen and seen[(key, lb)] != la:
                return False
            seen[(key, lb)] = la
        return True

    def search(mapping):
        pending = next(
            ((key, la) for key in keys for la in f.labels(*key) if (key, la) not in mapping), None
        )
        if pending is None:
            return mapping
        key, la = pending
        for lb in g.labels(*key):
            ext = propagate(key, la, lb, mapping)
            if ext is None or not injective_per_cell(ext):
                continue
            res = search(ext)
            if res is not None:
                return res
        return None

    res = search({})
    if res is None:
        return None
    comp: dict = {}
    for (key, la), lb in res.items():
        comp.setdefault(key, {})[la] = lb
    return SymSeqMap(f, g, comp)
