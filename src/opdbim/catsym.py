"""Categorical symmetric sequences over finite groupoids and the exponential operad.

Words over a groupoid form the free symmetric monoidal groupoid: an arrow
``A: v -> w`` is encoded as ``(images, comps)`` where ``images`` is a
permutation with ``comps[i]: v[images[i]] -> w[i]`` componentwise.  Diagram
order composition matches the permutation convention of :mod:`.perms`.

A categorical symmetric sequence stores, per cell, a plain label tuple plus
transports along every word arrow between canonical words (contravariant)
and every codomain arrow (covariant).  Every builder gives them one way
(:func:`_read_on_demand`): a callback that reads the transport along any
arrow, called on the labels of a cell the first time its table along that
arrow is read, which is then kept.  Only a small share of the tables is
ever read: the ``exponential`` benchmark's six operations read 592, where
filling every table built 3,402 and ``cat_sum`` copied 1,000 more.  The
tables cannot be iterated: a check along every arrow enumerates the arrows.
Composition, coherence maps, the evaluation 1-cell and the transpose
bijection follow the same raw-tuple discipline as :mod:`.symseq`, and
composition builds one raw per coend class.  A coend over a finite groupoid
depends only on its skeleton: every
raw is related to one whose middle word and blocks are the least support
words isomorphic to them, with the blocks sorted within each run of the
middle word.  There the automorphisms of a word in which the letter ``x``
occurs ``m`` times form ``Aut(x) ≀ S_m``, so the orbit walk of
:class:`.symseq._Shape` applies with groupoid arrows in place of
permutations, and the arrows least under each label pair's stabilizer are
found by closure on their indices.  ``Composite.class_of`` carries any other
raw to that least raw (``canon``).  Arrow sets between words are enumerated
once per groupoid instance (``sw_arrows``).

Maps are :class:`.symseq.SymSeqMap`, the one map type of both layers, and
share its identity, composites, equality and inverse; an inverse unitor is
``map_inverse`` of the unitor.  Every map is total on
the cells it holds.  Reading a cell or label a map lacks, or a raw outside a
composite, raises ``ValidationError`` naming the cell; nothing is skipped.
Two maps of the hom monad are windowed: ``cat_sum_split`` leaves a cell out
iff the untagged cell is not a cell of the part composite, and the
associator ``(B o B) o Ev_A -> B o T`` misses the cells of ``B o T`` above
the window of ``B o B``.  Before either is inverted, ``_on_window``
restricts both ends to the cells the map holds, so ``map_inverse`` still
checks a bijection.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .perms import (
    FinGroupoid,
    InputError,
    Perm,
    ValidationError,
    Word,
    YoungSet,
    block_offsets,
    disjoint_union,
    index_quotient,
    inverse_images,
    quotient,
    skey,
    ssorted,
    stab_gens,
)
from .symseq import (
    Composite,
    SymSeq,
    SymSeqMap,
    _Shape,
    compose_maps,
    hcompose_maps,
    identity_map,
    map_inverse,
    require_equal,
    sum_symseq,
)
from .operads import Operad, make_operad, mu_from_raws

Arrow = tuple  # (perm images, component arrow ids indexed by target position)


# ---------------------------------------------------------------------------
# words over a groupoid
# ---------------------------------------------------------------------------


def sw_canonical(gpd: FinGroupoid, word: Word) -> tuple[Word, Perm]:
    """Sort by object order; returns (canonical, t) with word[i] == canonical[t(i)]."""
    order = sorted(range(len(word)), key=lambda i: (gpd.obj_index(word[i]), i))
    cw = tuple(word[i] for i in order)
    t = [0] * len(word)
    for j, i in enumerate(order):
        t[i] = j
    return cw, Perm(tuple(t))


def sw_is_canonical(gpd: FinGroupoid, word: Word) -> bool:
    return all(gpd.obj_index(word[i]) <= gpd.obj_index(word[i + 1]) for i in range(len(word) - 1))


def sw_arrows(gpd: FinGroupoid, v: Word, w: Word) -> tuple[Arrow, ...]:
    """All arrows ``v -> w`` in ``skey`` order, enumerated once per groupoid instance.

    The sorted tuple is kept in ``gpd.word_arrows``, so it lives exactly as
    long as the groupoid.
    """
    arrows = gpd.word_arrows.get((v, w))
    if arrows is None:
        arrows = gpd.word_arrows[(v, w)] = tuple(sorted(_enumerate_arrows(gpd, v, w), key=skey))
    return arrows


def _enumerate_arrows(gpd: FinGroupoid, v: Word, w: Word) -> list[Arrow]:
    """Arrows ``v -> w`` by backtracking: permutations with componentwise groupoid arrows."""
    n = len(v)
    if len(w) != n:
        return []
    out = []
    # choose, for each target position i, a source position and an arrow
    def backtrack(i, used, images, comps):
        if i == n:
            out.append((tuple(images), tuple(comps)))
            return
        for j in range(n):
            if used[j]:
                continue
            arrows = gpd.arrows(v[j], w[i])
            if not arrows:
                continue
            used[j] = True
            images.append(j)
            for a in arrows:
                comps.append(a)
                backtrack(i + 1, used, images, comps)
                comps.pop()
            images.pop()
            used[j] = False

    backtrack(0, [False] * n, [], [])
    return out


def sw_id(gpd: FinGroupoid, w: Word) -> Arrow:
    return (tuple(range(len(w))), tuple(gpd.ident[o] for o in w))


def sw_compose(gpd: FinGroupoid, a1: Arrow, a2: Arrow) -> Arrow:
    """Diagram-order composite of ``a1: u -> v`` followed by ``a2: v -> w``."""
    im1, c1 = a1
    im2, c2 = a2
    table = gpd.comp  # (g, f) -> f followed by g
    return (tuple(im1[j] for j in im2), tuple(table[(g, c1[j])] for g, j in zip(c2, im2)))


def sw_inverse(gpd: FinGroupoid, a: Arrow) -> Arrow:
    im, cs = a
    inv = inverse_images(im)
    return (inv, tuple(gpd.inv[cs[j]] for j in inv))


def sw_perm_arrow(gpd: FinGroupoid, target: Word, p: Perm) -> Arrow:
    """Pure permutation arrow ``v -> target`` (identity components)."""
    return (p.images, tuple(gpd.ident[o] for o in target))


def sw_block_perm(gpd: FinGroupoid, blocks: list[Word], psi: Perm) -> Arrow:
    """Block-moving arrow ``concat(blocks) -> concat(blocks[psi(j)])``."""
    lengths = [len(b) for b in blocks]
    old = block_offsets(lengths)
    new_blocks = [blocks[psi(j)] for j in range(len(blocks))]
    new = block_offsets([len(b) for b in new_blocks])
    total = old[-1]
    im = [0] * total
    for j in range(len(blocks)):
        for t in range(len(new_blocks[j])):
            im[new[j] + t] = old[psi(j)] + t
    target = tuple(o for b in new_blocks for o in b)
    return (tuple(im), tuple(gpd.ident[o] for o in target))


def sw_block_diag(gpd: FinGroupoid, arrows: list[Arrow], sources: list[Word]) -> Arrow:
    """Blockwise arrow ``concat(sources) -> concat(targets)``."""
    offs = block_offsets([len(s) for s in sources])
    images, comps = [], []
    for k, (im, cs) in enumerate(arrows):
        images.extend(offs[k] + i for i in im)
        comps.extend(cs)
    return (tuple(images), tuple(comps))


def sw_embed_at(gpd: FinGroupoid, concat: Word, offset: int, a: Arrow, blocklen: int) -> Arrow:
    """Arrow acting as ``a`` inside one block of a concatenation."""
    im = list(range(len(concat)))
    comps = [gpd.ident[o] for o in concat]
    ai, ac = a
    for t in range(blocklen):
        im[offset + t] = offset + ai[t]
        comps[offset + t] = ac[t]
    return (tuple(im), tuple(comps))


# ---------------------------------------------------------------------------
# categorical symmetric sequences
# ---------------------------------------------------------------------------


@dataclass
class CatSymSeq:
    dom: FinGroupoid
    cod: FinGroupoid
    cells: dict     # (canonical word, out object) -> labels tuple
    dom_tr: object  # [(word, out)][(src word, arrow)] -> {label: label}; not iterable
    cod_tr: object  # [(word, out)][cod arrow] -> {label: label}; not iterable

    def __post_init__(self):
        # cells are never changed once the sequence is built, so sort the
        # non-empty ones once: by arity, then word, then output
        self._support = tuple(sorted(
            (k for k, v in self.cells.items() if v),
            key=lambda k: (len(k[0]), skey(k[0]), skey(k[1])),
        ))
        words: dict = {}
        for w, y in self._support:
            words.setdefault(y, []).append(w)
        self._support_words = {y: tuple(ws) for y, ws in words.items()}

    def labels(self, w: Word, y) -> tuple:
        return self.cells.get((w, y), ())

    def size(self, w: Word, y) -> int:
        return len(self.cells.get((w, y), ()))

    def support(self) -> tuple:
        return self._support

    def support_words(self, y) -> tuple:
        """Words of the non-empty cells at output ``y``, by arity, then word."""
        return self._support_words.get(y, ())

    def max_arity(self) -> int:
        return max((len(w) for (w, _y), v in self.cells.items() if v), default=0)

    def dom_arrows(self, key) -> list:
        """Every ``(v, a)`` with ``a: v -> w`` from a support word ``v`` at the output of ``key = (w, y)``."""
        w, y = key
        return [(v, a) for v in self.support_words(y) if len(v) == len(w) for a in sw_arrows(self.dom, v, w)]

    def cod_arrows(self, key) -> list:
        """Every codomain arrow out of the output of ``key``."""
        return [b for y2 in self.cod.objects for b in self.cod.arrows(key[1], y2)]

    def validate(self) -> None:
        """Identity, typing, functoriality and interchange of the transports along every arrow."""
        dom, cod, dtr, ctr = self.dom, self.cod, self.dom_tr, self.cod_tr
        for key in self.support():
            (w, y), labels = key, self.cells[key]
            if any(dtr[key][(w, sw_id(dom, w))][l] != l for l in labels):
                raise ValidationError(f"identity transport wrong at {key}")
            for v, a in self.dom_arrows(key):
                m = dtr[key][(v, a)]
                if set(m) != set(labels) or not set(m.values()) <= set(self.labels(v, y)):
                    raise ValidationError(f"dom transport mistyped at {key} along {a}")
                for u, b in self.dom_arrows((v, y)):
                    if any(dtr[(v, y)][(u, b)][m[l]] != dtr[key][(u, sw_compose(dom, b, a))][l] for l in labels):
                        raise ValidationError(f"dom functoriality fails at {key}")
            for b in self.cod_arrows(key):
                y2, m = cod.dst[b], ctr[key][b]
                if set(m) != set(labels) or not set(m.values()) <= set(self.labels(w, y2)):
                    raise ValidationError(f"cod transport mistyped at {key} along {b}")
                for b2 in self.cod_arrows((w, y2)):
                    if any(ctr[(w, y2)][b2][m[l]] != ctr[key][cod.compose(b2, b)][l] for l in labels):
                        raise ValidationError(f"cod functoriality fails at {key}")
                for v, a in self.dom_arrows(key):
                    if any(ctr[(v, y)][b][dtr[key][(v, a)][l]] != dtr[(w, y2)][(v, a)][m[l]] for l in labels):
                        raise ValidationError(f"dom/cod interchange fails at {key}")

    def check_equivariance(self, m: SymSeqMap) -> None:
        """``ValidationError`` unless ``m``, total on ``self``, commutes with the transport along every arrow."""
        for key in self.support():
            labels, mk = self.cells[key], m.comp[key]
            moves = [((v, key[1]), a, self.dom_tr[key][(v, a)], m.dst.dom_tr[key][(v, a)])
                     for v, a in self.dom_arrows(key)]
            moves += [((key[0], self.cod.dst[b]), b, self.cod_tr[key][b], m.dst.cod_tr[key][b])
                      for b in self.cod_arrows(key)]
            for key2, arrow, tm, other in moves:
                if any(m.comp[key2][tm[l]] != other[mk[l]] for l in labels):
                    raise ValidationError(f"equivariance fails at cell {key} along {arrow}")


class _Tables:
    """A mapping that builds each value when first read, by ``build(arg)``, and keeps it.

    It cannot be iterated, so no walk sees only the values read so far.
    """

    __slots__ = ("build", "built")
    __iter__ = None

    def __init__(self, build: Callable):
        self.build, self.built = build, {}

    def __getitem__(self, arg):
        value = self.built.get(arg)
        if value is None:
            value = self.built[arg] = self.build(arg)
        return value


def _read_on_demand(seq: CatSymSeq, dom_fn: Callable, cod_fn: Callable) -> CatSymSeq:
    """``seq`` with tables built when first read: ``dom_tr[(w, y)][(v, a)]`` holds ``dom_fn((w, y), v, a, l)``
    for an arrow ``a: v -> w`` from a support word, ``cod_tr[(w, y)][b]`` holds ``cod_fn((w, y), b, l)`` for an
    arrow ``b`` out of ``y``, on each label ``l``; any other key or arrow raises ``KeyError``.

    Neither callback may hold ``seq``, so reference counting alone frees it.
    """
    dom, cod, cells = seq.dom, seq.cod, seq.cells

    def on_read(fn, is_arrow):
        def cell(key):
            labels = cells.get(key)
            if not labels:
                raise KeyError(key)

            def along(arrow):
                if not is_arrow(key, arrow):
                    raise KeyError(arrow)
                return {l: fn(key, arrow, l) for l in labels}

            return _Tables(along)

        return _Tables(cell)

    def is_dom_arrow(key, arrow):
        (v, a), w = arrow, key[0]
        return len(v) == len(w) and bool(cells.get((v, key[1]))) and a in sw_arrows(dom, v, w)

    seq.dom_tr = on_read(lambda key, arrow, label: dom_fn(key, *arrow, label), is_dom_arrow)
    seq.cod_tr = on_read(cod_fn, lambda key, b: cod.src.get(b) == key[1])
    return seq


def cat_from_symseq(f: SymSeq) -> CatSymSeq:
    """Embed an ordinary symmetric sequence along discrete groupoids."""
    dom = FinGroupoid.discrete(f.dom)
    cod = FinGroupoid.discrete(f.cod)
    cells = {key: cell.labels for key, cell in f.cells.items() if cell.size}
    seq = CatSymSeq(dom, cod, cells, {}, {})

    def dom_fn(key, v, a, label):
        # discrete: v == key word and the arrow is a pure stabilizer permutation
        return f.cells[key].act(label, Perm(a[0]))

    def cod_fn(key, b, label):
        return label

    return _read_on_demand(seq, dom_fn, cod_fn)


def cat_id(gpd: FinGroupoid) -> CatSymSeq:
    """Identity 1-cell: unary cells are the hom sets of the groupoid."""
    cells = {}
    for o1 in gpd.objects:
        for o2 in gpd.objects:
            arrows = gpd.arrows(o1, o2)
            if arrows:
                cells[((o1,), o2)] = tuple(arrows)
    seq = CatSymSeq(gpd, gpd, cells, {}, {})

    def dom_fn(key, v, a, label):
        return gpd.compose(label, a[1][0])

    def cod_fn(key, b, label):
        return gpd.compose(b, label)

    return _read_on_demand(seq, dom_fn, cod_fn)


def cat_sum(f: CatSymSeq, g: CatSymSeq) -> CatSymSeq:
    """Coproduct on tagged groupoids; mixed cells are empty.  A transport is its part's, read untagged."""
    parts = {"l": f, "r": g}
    cells = {
        (tuple((tag, o) for o in w), (tag, y)): labels
        for tag, part in parts.items() for (w, y), labels in part.cells.items() if labels
    }
    seq = CatSymSeq(disjoint_union(f.dom, g.dom), disjoint_union(f.cod, g.cod), cells, {}, {})

    def dom_fn(key, v, a, label):
        (w, (tag, y)) = key
        return parts[tag].dom_tr[(_untag(w), y)][(_untag(v), (a[0], _untag(a[1])))][label]

    def cod_fn(key, b, label):
        (w, (tag, y)) = key
        return parts[tag].cod_tr[(_untag(w), y)][b[1]][label]

    return _read_on_demand(seq, dom_fn, cod_fn)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def _components(gpd: FinGroupoid) -> dict:
    """``object -> index of the first object isomorphic to it``."""
    return {o: next(i for i, b in enumerate(gpd.objects) if gpd.arrows(b, o)) for o in gpd.objects}


def _least_words(seq: CatSymSeq, comp: dict) -> dict:
    """``(word, out) -> least support word at out isomorphic to word``, over the support of ``seq``.

    ``comp`` maps each domain object to its component.  The support words
    at an output are sorted, so the first of each isomorphism class is its
    least.  When the support is closed under isomorphism, the letters of a
    least word that are isomorphic are equal: were ``u`` and ``v`` two of
    them, the word with every ``v`` made ``u`` or the one with every ``u``
    made ``v`` would be less.  Its automorphisms then keep each letter, and
    :func:`_aut_generators` generates them.
    """
    least, first = {}, {}
    for w, y in seq.support():
        w0 = first.setdefault((y, tuple(sorted(comp[o] for o in w))), w)
        if w0 is w and len({comp[o] for o in w}) != len(set(w)):
            raise ValidationError(f"support not closed under isomorphism at cell {(w, y)!r}")
        least[(w, y)] = w0
    return least


def _aut_generators(gpd: FinGroupoid, w: Word) -> list[Arrow]:
    """Arrows generating ``Aut(w)`` for a word whose isomorphic letters are equal.

    They are the adjacent swaps of equal letters and the non-identity
    automorphisms of each letter.
    """
    n = len(w)
    gens = [sw_perm_arrow(gpd, w, Perm.transposition(n, t)) for t in stab_gens(w)]
    idcomps = tuple(gpd.ident[o] for o in w)
    for p, o in enumerate(w):
        gens += [
            (tuple(range(n)), idcomps[:p] + (a,) + idcomps[p + 1 :])
            for a in gpd.arrows(o, o)
            if a != gpd.ident[o]
        ]
    return gens


def _same(a):
    """The step of a generator that leaves the arrow as it is."""
    return a


def _label_perm(table: dict, pos: dict) -> tuple:
    """A transport table on the labels of one cell, as a permutation of their positions."""
    return tuple(pos[table[lab]] for lab in pos)


class _CatPlan:
    """What :func:`cat_compose` plans once for ``outer o inner``, and its ``canon``.

    A coend over a groupoid depends only on its skeleton.  Each middle word
    and each block goes to its least isomorphic support word
    (:func:`_least_words`); there the automorphisms of a word with ``m``
    copies of a letter ``x`` form ``Aut(x) ≀ S_m``.  A ``(mid, blocks)``
    with both least and the blocks sorted within each run of ``mid`` is a
    slice, planned once as a :class:`.symseq._Shape` whose elements act on
    arrows ``concat -> concat``.  Its ``least`` maps each least label pair to
    the Schreier generators of the pair's stabilizer; the arrows of
    ``sw_arrows(cw, concat)`` least under those are found by closure on their
    indices, once per ``cw`` and stabilizer (:meth:`arrow_orbits`).
    """

    def __init__(self, outer: CatSymSeq, inner: CatSymSeq):
        self.outer, self.inner, self.dom = outer, inner, inner.dom
        self.then, self.inverse = functools.partial(sw_compose, self.dom), functools.partial(sw_inverse, self.dom)
        self.comp = _components(inner.dom)
        self.least_mid = _least_words(outer, _components(outer.dom))
        self.least_block = _least_words(inner, self.comp)
        outs = {y for _w, y in inner.support()}
        self.rank = {(w, y): i for y in outs for i, w in enumerate(inner.support_words(y))}
        self.gpos: dict = {}     # outer cell -> {label: position}
        self.fpos: dict = {}     # inner cell -> {label: position}
        self.shapes: dict = {}   # (mid, out, blocks) -> _Shape
        self.index: dict = {}    # (cw, concat) -> {arrow: position in sw_arrows}
        self.orbits: dict = {}   # (cw, concat, generators) -> index_quotient of the arrows
        self.words: dict = {}    # component multiset -> canonical words with it

    def forget(self) -> None:
        """Drop the plans of the slices; ``canon`` and the transport tables plan again the few read later.

        They are kept only while the composite is built, so that a composite
        holds no more than its representatives once it is built.
        """
        for memo in (self.shapes, self.index, self.orbits, self.gpos, self.fpos, self.words):
            memo.clear()

    def then_by(self, b: Arrow) -> Callable:
        """The function ``a -> sw_compose(dom, a, b)``."""
        return functools.partial(sw_compose, self.dom, a2=b)

    def positions(self, cache: dict, seq: CatSymSeq, key) -> dict:
        pos = cache.get(key)
        if pos is None:
            pos = cache[key] = {lab: i for i, lab in enumerate(seq.cells[key])}
        return pos

    def block_tuples(self, mid: Word):
        """Tuples of least block words over ``mid``, sorted within each run, in product order."""
        runs = []
        for y, run in itertools.groupby(mid):
            words = [w for w in self.inner.support_words(y) if self.least_block[(w, y)] == w]
            runs.append(itertools.combinations_with_replacement(words, len(tuple(run))))
        return (tuple(b for run in combo for b in run) for combo in itertools.product(*runs))

    def iso_words(self, concat: Word) -> list:
        """The canonical words isomorphic to ``concat``: per component, a multiset of its objects."""
        key = tuple(sorted(self.comp[o] for o in concat))
        words = self.words.get(key)
        if words is None:
            gpd, members = self.dom, {}
            for o in gpd.objects:
                members.setdefault(self.comp[o], []).append(o)
            choices = [
                itertools.combinations_with_replacement(members[c], len(tuple(run)))
                for c, run in itertools.groupby(key)
            ]
            words = self.words[key] = [
                tuple(sorted((o for part in combo for o in part), key=gpd.obj_index))
                for combo in itertools.product(*choices)
            ]
        return words

    def arrow_index(self, cw: Word, concat: Word) -> dict:
        key = (cw, concat)
        index = self.index.get(key)
        if index is None:
            index = self.index[key] = {a: i for i, a in enumerate(sw_arrows(self.dom, cw, concat))}
        return index

    def arrow_orbits(self, cw: Word, concat: Word, gens: frozenset) -> tuple:
        """``(orbit of each index, least index of each orbit)`` of ``sw_arrows(cw, concat)`` under ``gens``.

        An arrow ``a`` is related to ``a`` followed by each generator.
        """
        key = (cw, concat, gens)
        orbits = self.orbits.get(key)
        if orbits is None:
            dom, arrows, index = self.dom, sw_arrows(self.dom, cw, concat), self.arrow_index(cw, concat)
            pairs = ((i, index[sw_compose(dom, a, s)]) for i, a in enumerate(arrows) for s in gens)
            orbits = self.orbits[key] = index_quotient(len(arrows), pairs)
        return orbits

    def shape(self, mid: Word, z, blocks: tuple) -> _Shape:
        """The plan of a slice: its group ``H`` and the least pairs of its orbits.

        ``H`` is generated by the swaps of equal adjacent blocks, the letter
        automorphisms of ``mid`` and the automorphisms of each block.
        """
        shape = self.shapes.get((mid, z, blocks))
        if shape is not None:
            return shape
        outer, inner, dom, mgpd = self.outer, self.inner, self.dom, self.outer.dom
        gpos = self.positions(self.gpos, outer, (mid, z))
        fkeys = tuple(zip(blocks, mid))
        fpos = [self.positions(self.fpos, inner, k) for k in fkeys]
        concat = tuple(o for b in blocks for o in b)
        offs = block_offsets(len(b) for b in blocks)
        one = sw_id(dom, concat)
        gtr = outer.dom_tr[(mid, z)]
        swaps = []
        for t in stab_gens(mid):
            if blocks[t] == blocks[t + 1]:
                swap = Perm.transposition(len(mid), t)
                g_back = gtr[(mid, sw_perm_arrow(mgpd, mid, swap))]  # the swap is its own inverse
                swaps.append((t, _label_perm(g_back, gpos), self.then_by(sw_block_perm(dom, list(blocks), swap))))
        moves = []
        idmid = tuple(mgpd.ident[o] for o in mid)
        for p, y in enumerate(mid):
            for a in mgpd.arrows(y, y):
                if a != mgpd.ident[y]:
                    back = (tuple(range(len(mid))), idmid[:p] + (mgpd.inv[a],) + idmid[p + 1 :])
                    f_fwd = inner.cod_tr[fkeys[p]][a]
                    moves.append((p, _label_perm(gtr[(mid, back)], gpos), _label_perm(f_fwd, fpos[p]), _same))
        fixed = tuple(range(len(gpos)))
        for k, b in enumerate(blocks):
            ftr = inner.dom_tr[fkeys[k]]
            for beta in _aut_generators(dom, b):
                f_back = ftr[(b, sw_inverse(dom, beta))]
                emb = sw_embed_at(dom, concat, offs[k], beta, len(b))
                moves.append((k, fixed, _label_perm(f_back, fpos[k]), self.then_by(emb)))
        shape = self.shapes[(mid, z, blocks)] = _Shape(one, self.then, self.inverse, swaps, moves, {})
        for x0, schreier in shape.least_pairs((len(gpos),) + tuple(len(f) for f in fpos)):
            shape.least[x0] = frozenset(schreier)
        return shape

    def _along_mid(self, z, raw: tuple, mid2: Word, psi: Arrow) -> tuple:
        """``raw`` moved along the middle arrow ``psi: mid -> mid2``: whole blocks move, labels transport."""
        mid, g, blocks, fs, arr = raw
        order = psi[0]  # block k of the result is block order[k] of raw; psi[1][k]: mid[order[k]] -> mid2[k]
        g2 = self.outer.dom_tr[(mid, z)][(mid2, sw_inverse(self.outer.dom, psi))][g]
        fs2 = tuple(self.inner.cod_tr[(blocks[j], mid[j])][c][fs[j]] for j, c in zip(order, psi[1]))
        arr2 = sw_compose(self.dom, arr, sw_block_perm(self.dom, list(blocks), Perm(order)))
        return mid2, g2, tuple(blocks[j] for j in order), fs2, arr2

    def least_raw(self, w: Word, z, raw):
        """The least raw of the class of ``raw`` in cell ``(w, z)``, or ``None`` if it is not a raw there.

        The categorical twin of :func:`.symseq.least_raw`: the middle word
        goes to its least isomorphic word, each block to its own, the blocks
        are sorted within each run, the label pair goes to the least pair of
        its orbit, and the arrow to the least of its orbit under that pair's
        stabilizer.
        """
        outer, inner, dom = self.outer, self.inner, self.dom
        if type(raw) is not tuple or len(raw) != 5:
            return None
        mid, g, blocks, fs, arr = raw
        if not outer.cells.get((mid, z)) or type(blocks) is not tuple or type(fs) is not tuple:
            return None
        if not len(mid) == len(blocks) == len(fs) or g not in self.positions(self.gpos, outer, (mid, z)):
            return None
        for key, f in zip(zip(blocks, mid), fs):
            if not inner.cells.get(key) or f not in self.positions(self.fpos, inner, key):
                return None
        if arr not in self.arrow_index(w, tuple(o for b in blocks for o in b)):
            return None
        mid0 = self.least_mid[(mid, z)]
        if mid0 != mid:
            mid, g, blocks, fs, arr = self._along_mid(z, raw, mid0, sw_arrows(outer.dom, mid, mid0)[0])
        blocks, fs = list(blocks), list(fs)
        for k, y in enumerate(mid):
            b, b0 = blocks[k], self.least_block[(blocks[k], y)]
            if b0 != b:
                rho = sw_arrows(dom, b0, b)[0]
                fs[k] = inner.dom_tr[(b, y)][(b0, rho)][fs[k]]
                concat = tuple(o for x in blocks for o in x)
                offset = sum(len(x) for x in blocks[:k])
                arr = sw_compose(dom, arr, sw_embed_at(dom, concat, offset, sw_inverse(dom, rho), len(b)))
                blocks[k] = b0
        order = sorted(range(len(mid)), key=lambda k: (mid.index(mid[k]), self.rank[(blocks[k], mid[k])]))
        raw = (mid, g, tuple(blocks), tuple(fs), arr)
        if order != list(range(len(mid))):
            raw = self._along_mid(z, raw, mid, sw_perm_arrow(outer.dom, mid, Perm(tuple(order))))
        mid, g, blocks, fs, arr = raw
        fkeys = tuple(zip(blocks, mid))
        shape = self.shape(mid, z, blocks)
        pair = (self.gpos[(mid, z)][g], tuple(self.fpos[k][f] for k, f in zip(fkeys, fs)))
        least, h = shape.locate(pair)
        if h is not shape.one:
            arr = sw_compose(dom, arr, sw_inverse(dom, h))
        concat = tuple(o for b in blocks for o in b)
        label, roots = self.arrow_orbits(w, concat, shape.least[least])
        sig = sw_arrows(dom, w, concat)[roots[label[self.arrow_index(w, concat)[arr]]]]
        fs0 = tuple(inner.cells[k][i] for k, i in zip(fkeys, least[1]))
        return (mid, outer.cells[(mid, z)][least[0]], blocks, fs0, sig)


def cat_compose(outer: CatSymSeq, inner: CatSymSeq, max_arity: Optional[int] = None) -> Composite:
    """Composite ``outer o inner``, built from the least raw of each coend class.

    The enumeration order of raws is the middle word in ``outer.support()``
    order, the blocks in product order over ``inner.support_words``, then the
    outer label, the inner labels and the arrow's index in
    ``sw_arrows(cw, concat)``; a class is numbered by its least raw.  Only
    those least raws are built, one slice at a time (:class:`_CatPlan`), so
    representatives and class numbers are those of the union-find over every
    raw.  ``canon`` carries any other raw to its least raw.  A bound
    restricts the result words, never individual cells.
    """
    if inner.cod.objects != outer.dom.objects:
        raise InputError("cat composition groupoid mismatch")
    dom = inner.dom
    plan = _CatPlan(outer, inner)
    built: dict = {}   # (word, out) -> (representatives, the group of each)
    groups = []        # (concat, generators) of each (slice, least pair)
    first: dict = {}   # (word, group) -> class of the group's first representative in that cell
    for (mid, z) in outer.support():
        if plan.least_mid[(mid, z)] != mid:
            continue
        glabels = outer.cells[(mid, z)]
        for blocks in plan.block_tuples(mid):
            if max_arity is not None and sum(len(b) for b in blocks) > max_arity:
                continue
            concat = tuple(o for b in blocks for o in b)
            fcells = [inner.cells[(b, y)] for b, y in zip(blocks, mid)]
            shape = plan.shape(mid, z, blocks)
            cws = plan.iso_words(concat)
            for x0, gens in shape.least.items():
                g, fs = glabels[x0[0]], tuple(c[i] for c, i in zip(fcells, x0[1]))
                group = len(groups)
                groups.append((concat, gens))
                for cw in cws:
                    arrows = sw_arrows(dom, cw, concat)
                    roots = plan.arrow_orbits(cw, concat, gens)[1]
                    reps, origins = built.setdefault((cw, z), ([], []))
                    first[(cw, group)] = len(reps)
                    reps += [(mid, g, blocks, fs, arrows[r]) for r in roots]
                    origins += [group] * len(roots)
    cells, cls_out, reps_out = {}, {}, {}
    for key in sorted(built, key=lambda k: (len(k[0]), skey(k[0]), skey(k[1]))):
        reps = reps_out[key] = built[key][0]
        cells[key] = tuple(range(len(reps)))
        cls_out[key] = {raw: idx for idx, raw in enumerate(reps)}
    seq = CatSymSeq(dom, outer.cod, cells, {}, {})
    comp = Composite(outer, inner, seq, reps_out, cls_out, reps_out, plan.least_raw, max_arity)
    targets: dict = {}  # (word, group) -> (first class, orbit of each arrow index, arrow index)

    def dom_fn(key, v, a, cls):
        # only the arrow moves, so the slice and the least pair stay
        group = built[key][1][cls]
        target = targets.get((v, group))
        if target is None:
            concat, gens = groups[group]
            target = targets[(v, group)] = (
                first[(v, group)], plan.arrow_orbits(v, concat, gens)[0], plan.arrow_index(v, concat)
            )
        base, label, index = target
        return base + label[index[sw_compose(dom, a, reps_out[key][cls][4])]]

    def cod_fn(key, b, cls):
        # reads cls_out and the plan, not comp, so that the tables hold no cycle
        mid, g, blocks, fs, arr = reps_out[key][cls]
        key2 = (key[0], outer.cod.dst[b])
        return cls_out[key2][plan.least_raw(*key2, (mid, outer.cod_tr[(mid, key[1])][b][g], blocks, fs, arr))]

    _read_on_demand(seq, dom_fn, cod_fn)
    plan.forget()
    return comp


def cat_left_unitor(idf: Composite) -> SymSeqMap:
    """``Id o F -> F``: transport along the shuffle, then along the unary arrow."""
    f = idf.inner
    comp = {}
    for key, reps in idf.reps.items():
        w, y = key
        m = {}
        for idx, raw in enumerate(reps):
            mid, g, blocks, fs, arr = raw
            # g: mid[0] -> y in the codomain groupoid; block word realizes F at w
            b = blocks[0]
            lab = f.dom_tr[(b, mid[0])][(w, arr)][fs[0]]
            m[idx] = f.cod_tr[(w, mid[0])][g][lab]
        comp[key] = m
    return SymSeqMap(idf.seq, f, comp)


def cat_right_unitor(fid: Composite) -> SymSeqMap:
    """``F o Id -> F``: absorb the unary arrows and the shuffle."""
    f = fid.outer
    dom = f.dom
    comp = {}
    for key, reps in fid.reps.items():
        w, y = key
        m = {}
        for idx, raw in enumerate(reps):
            mid, g, blocks, fs, arr = raw
            # arr: w -> concat(blocks); then letterwise arrows into mid
            d = (tuple(range(len(mid))), tuple(fs))
            total = sw_compose(dom, arr, d)
            m[idx] = f.dom_tr[(mid, y)][(w, total)][g]
        comp[key] = m
    return SymSeqMap(fid.seq, f, comp)


def cat_associator(hg: Composite, hg_f: Composite, gf: Composite, h_gf: Composite) -> SymSeqMap:
    dom = gf.inner.dom
    f = gf.inner
    comp = {}
    for key, reps in hg_f.reps.items():
        w, t_out = key
        m = {}
        for idx, raw in enumerate(reps):
            mid, q, blocks, fs, arr = raw
            zmid, h, yblocks, gs, tau = hg.rep(mid, t_out, q)
            sigma_tau = Perm(tau[0])
            yoffs = block_offsets([len(d) for d in yblocks])
            new_blocks, new_fs, kappas, group_words = [], [], [], []
            for j, d in enumerate(yblocks):
                # cod-transport the inner labels along the components of tau
                sub_blocks, sub_fs = [], []
                for p in range(yoffs[j], yoffs[j + 1]):
                    i = sigma_tau(p)
                    comp_arrow = tau[1][p]  # mid[i] -> (+yblocks)[p]
                    sub_blocks.append(blocks[i])
                    sub_fs.append(f.cod_tr[(blocks[i], mid[i])][comp_arrow][fs[i]])
                u = tuple(o for bl in sub_blocks for o in bl)
                e, kap = sw_canonical(dom, u)
                kap_arrow = sw_perm_arrow(dom, u, kap)
                gf_raw = (d, gs[j], tuple(sub_blocks), tuple(sub_fs), kap_arrow)
                new_blocks.append(e)
                new_fs.append(gf.class_of(e, zmid[j], gf_raw))
                kappas.append(kap_arrow)
                group_words.append(u)
            rearrange = sw_block_perm(dom, list(blocks), sigma_tau)
            chi = sw_block_diag(dom, [sw_inverse(dom, k) for k in kappas], group_words)
            arr2 = sw_compose(dom, sw_compose(dom, arr, rearrange), chi)
            m[idx] = h_gf.class_of(w, t_out, (zmid, h, tuple(new_blocks), tuple(new_fs), arr2))
        comp[key] = m
    return SymSeqMap(hg_f.seq, h_gf.seq, comp)


# ---------------------------------------------------------------------------
# cartesian closed structure
# ---------------------------------------------------------------------------


def exp_object(x: FinGroupoid, y: FinGroupoid, length_bound: int) -> FinGroupoid:
    """Exponential object: words over the domain (reversed) paired with codomain objects."""
    words = []
    for n in range(length_bound + 1):
        words.extend(itertools.product(x.objects, repeat=n))
    objects = tuple((w, yo) for w in words for yo in y.objects)
    hom: dict = {}
    comp: dict = {}
    ident: dict = {}
    inv: dict = {}
    for (w1, y1) in objects:
        for (w2, y2) in objects:
            arrows = []
            for a in sw_arrows(x, w2, w1):
                for b in y.arrows(y1, y2):
                    arrows.append(("e", a, b))
            if arrows:
                hom[((w1, y1), (w2, y2))] = tuple(sorted(arrows, key=skey))
    for (w, yo) in objects:
        ident[(w, yo)] = ("e", sw_id(x, w), y.ident[yo])
    for ((w1, y1), (w2, y2)), arrows in hom.items():
        for _e, a, b in arrows:
            inv[("e", a, b)] = ("e", sw_inverse(x, a), y.inv[b])
    for ((w1, y1), (w2, y2)), arrows1 in hom.items():
        for ((w2b, y2b), (w3, y3)), arrows2 in hom.items():
            if (w2b, y2b) != (w2, y2):
                continue
            for _e1, a1, b1 in arrows1:
                for _e2, a2, b2 in arrows2:
                    comp[(("e", a2, b2), ("e", a1, b1))] = (
                        "e",
                        sw_compose(x, a2, a1),
                        y.compose(b2, b1),
                    )
    return FinGroupoid(objects, hom, comp, ident, inv)


def merge_words(zw: Word, xw: Word) -> Word:
    return tuple(("l", o) for o in zw) + tuple(("r", o) for o in xw)


def split_word(w: Word) -> tuple[Word, Word, Perm]:
    """Split a tagged word into its parts; the permutation moves l-letters first."""
    lpos = [i for i, (t, _o) in enumerate(w) if t == "l"]
    rpos = [i for i, (t, _o) in enumerate(w) if t == "r"]
    order = lpos + rpos
    zw = tuple(w[i][1] for i in lpos)
    xw = tuple(w[i][1] for i in rpos)
    # arrow p: sorted -> w with w-part reading, i.e. sorted[j] = w[order[j]]
    images = [0] * len(w)
    for j, i in enumerate(order):
        images[i] = j
    return zw, xw, Perm(tuple(images)).inverse()


@dataclass
class EvData:
    seq: CatSymSeq
    reps: dict   # (word, y) -> list of (x0, gamma)
    cls: dict    # (word, y) -> {(x0, gamma): class}


def ev_catsym(x: FinGroupoid, y: FinGroupoid, expz: FinGroupoid, length_bound: int) -> EvData:
    """Evaluation 1-cell ``[X, Y] n X -> Y`` with its coend class structure."""
    w_gpd = disjoint_union(expz, x)

    def target_word(x0: Word, yo) -> Word:
        return (("l", (x0, yo)),) + tuple(("r", o) for o in x0)

    x0_words = []
    for n in range(length_bound + 1):
        for combo in itertools.combinations_with_replacement(
            sorted(x.objects, key=x.obj_index), n
        ):
            x0_words.append(tuple(combo))
    # candidate source words: everything isomorphic to some target word
    elems_by_cell: dict = {}
    for x0 in x0_words:
        for yo in y.objects:
            tgt = target_word(x0, yo)
            heads = [
                ("l", (w2, y2))
                for (w2, y2) in expz.objects
                if expz.arrows((w2, y2), (x0, yo))
            ]
            tail_sets = []
            for o in x0:
                tail_sets.append(
                    [("r", o2) for o2 in x.objects if x.arrows(o2, o)]
                )
            for head in heads:
                for tail in itertools.product(*tail_sets):
                    src = (head,) + tail
                    cw, _t = sw_canonical(w_gpd, src)
                    for gamma in sw_arrows(w_gpd, cw, tgt):
                        elems_by_cell.setdefault((cw, yo), []).append((x0, gamma))
    cells, reps, cls = {}, {}, {}
    for key in sorted(elems_by_cell, key=lambda k: (len(k[0]), skey(k))):
        cw, yo = key
        elems = sorted(set(elems_by_cell[key]), key=skey)
        edges = []
        for (x0, gamma) in elems:
            for x0b in x0_words:
                if len(x0b) != len(x0):
                    continue
                for beta in sw_arrows(x, x0, x0b):
                    # head: exp arrow (x0, yo) -> (x0b, yo) built from beta
                    head = ("l", ("e", sw_inverse(x, beta), y.ident[yo]))
                    bi, bc = beta
                    move = (
                        (0,) + tuple(1 + i for i in bi),
                        (head,) + tuple(("r", c) for c in bc),
                    )
                    gamma2 = sw_compose(w_gpd, gamma, move)
                    edges.append(((x0, gamma), (x0b, gamma2)))
        q = quotient(elems, edges)
        cells[key] = tuple(range(len(q.classes)))
        reps[key] = list(q.representative)
        cls[key] = q.class_index
    seq = CatSymSeq(w_gpd, y, cells, {}, {})

    def dom_fn(key, v, a, cidx):
        x0, gamma = reps[key][cidx]
        return cls[(v, key[1])][(x0, sw_compose(w_gpd, a, gamma))]

    def cod_fn(key, b, cidx):
        x0, gamma = reps[key][cidx]
        n0 = len(x0)
        head = ("l", ("e", sw_id(x, x0), b))
        move = (
            tuple(range(n0 + 1)),
            (head,) + tuple(("r", x.ident[o]) for o in x0),
        )
        return cls[(key[0], y.dst[b])][(x0, sw_compose(w_gpd, gamma, move))]

    data = EvData(seq, reps, cls)
    _read_on_demand(seq, dom_fn, cod_fn)
    return data


def transpose(f: CatSymSeq, x: FinGroupoid, y: FinGroupoid) -> CatSymSeq:
    """Reindex ``F: V -> [X, Y]`` as ``V n X -> Y`` (the proof-level equality)."""
    v_gpd = f.dom
    w_gpd = disjoint_union(v_gpd, x)
    cells = {}
    for (vw, obj), labels in f.cells.items():
        xw, yo = obj
        if not sw_is_canonical(x, xw) or not labels:
            continue
        cells[(merge_words(vw, xw), yo)] = labels
    seq = CatSymSeq(w_gpd, y, cells, {}, {})

    def dom_fn(key, src_word, a, label):
        w, yo = key
        vw, xw, _p = split_word(w)
        vw2, xw2, _p2 = split_word(src_word)
        nl = len(vw)
        im, comps = a
        b_arrow = (tuple(im[:nl]), tuple(c[1] for c in comps[:nl]))
        alpha = (tuple(i - nl for i in im[nl:]), tuple(c[1] for c in comps[nl:]))
        lab = f.dom_tr[(vw, (xw, yo))][(vw2, b_arrow)][label]
        exp_arrow = ("e", alpha, y.ident[yo])
        return f.cod_tr[(vw2, (xw, yo))][exp_arrow][lab]

    def cod_fn(key, b, label):
        w, yo = key
        vw, xw, _p = split_word(w)
        exp_arrow = ("e", sw_id(x, xw), b)
        return f.cod_tr[(vw, (xw, yo))][exp_arrow][label]

    return _read_on_demand(seq, dom_fn, cod_fn)


def untranspose(g: CatSymSeq, v_gpd: FinGroupoid, x: FinGroupoid, expz: FinGroupoid,
                y: FinGroupoid) -> CatSymSeq:
    """Reindex ``G: V n X -> Y`` as ``V -> [X, Y]``, covering every word object."""
    cells = {}
    for obj in expz.objects:
        xw, yo = obj
        cxw, _tau = sw_canonical(x, xw)
        for (w, yy), labels in g.cells.items():
            if yy != yo or not labels:
                continue
            vw, xw2, _p = split_word(w)
            if xw2 != cxw:
                continue
            cells[(vw, obj)] = labels
    seq = CatSymSeq(v_gpd, expz, cells, {}, {})

    def g_key(vw, obj):
        xw, yo = obj
        cxw, _tau = sw_canonical(x, xw)
        return (merge_words(vw, cxw), yo)

    def dom_fn(key, src_word, a, label):
        vw, obj = key
        xw, yo = obj
        cxw, _tau = sw_canonical(x, xw)
        im, comps = a
        lifted = (
            tuple(im) + tuple(len(vw) + i for i in range(len(cxw))),
            tuple(("l", c) for c in comps) + tuple(("r", x.ident[o]) for o in cxw),
        )
        return g.dom_tr[g_key(vw, obj)][(g_key(src_word, obj)[0], lifted)][label]

    def cod_fn(key, earrow, label):
        vw, obj = key
        xw, yo = obj
        _e, alpha, b = earrow
        # source word of the reversed component = target object's word
        xw2 = _exp_arrow_source_word(x, alpha, xw)
        yo2 = y.dst[b]
        cxw, tau = sw_canonical(x, xw)
        cxw2, tau2 = sw_canonical(x, xw2)
        # alpha: xw2 -> xw; conjugate to canonical words
        a_can = sw_compose(
            x,
            sw_compose(x, sw_perm_arrow(x, xw2, tau2), alpha),
            sw_inverse(x, sw_perm_arrow(x, xw, tau)),
        )
        lifted = (
            tuple(range(len(vw))) + tuple(len(vw) + i for i in a_can[0]),
            tuple(("l", v_gpd.ident[o]) for o in vw) + tuple(("r", c) for c in a_can[1]),
        )
        lab = g.dom_tr[g_key(vw, obj)][(g_key(vw, (xw2, yo))[0], lifted)][label]
        return g.cod_tr[g_key(vw, (xw2, yo))][b][lab]

    return _read_on_demand(seq, dom_fn, cod_fn)


def _exp_arrow_source_word(x: FinGroupoid, alpha: Arrow, target_word: Word) -> Word:
    """Domain word of the reversed component of an exponential arrow."""
    im, comps = alpha
    src = [None] * len(im)
    for i in range(len(im)):
        src[im[i]] = x.src[comps[i]]
    return tuple(src)


# ---------------------------------------------------------------------------
# sum splitting
# ---------------------------------------------------------------------------


def _untag(w: Word) -> Word:
    return tuple(o for (_t, o) in w)


def cat_sum_split(sumcomp: Composite, left: Composite, right: Composite) -> SymSeqMap:
    """Canonical iso ``(F1 u G1) o (F2 u G2) -> (F1 o F2) u (G1 o G2)`` on a window.

    A windowed map: a cell ``(w, (tag, z))`` of the sum composite is left
    out iff ``(untagged w, z)`` is not a cell of the part composite (``left``
    for tag ``l``, ``right`` for tag ``r``).  Every raw of a kept cell must
    have a class in the part, else ``ValidationError``.
    """
    comp = {}
    for key, reps in sumcomp.reps.items():
        w, z = key
        part = left if z[0] == "l" else right
        w2 = _untag(w)
        if (w2, z[1]) not in part.seq.cells:
            continue
        m = {}
        for idx, (mid, g, blocks, fs, arr) in enumerate(reps):
            raw2 = (_untag(mid), g, tuple(_untag(b) for b in blocks), fs, (arr[0], _untag(arr[1])))
            m[idx] = part.class_of(w2, z[1], raw2)
        comp[key] = m
    return SymSeqMap(sumcomp.seq, cat_sum(left.seq, right.seq), comp)


def cat_sum_maps(ml: SymSeqMap, mr: SymSeqMap, src_sum: CatSymSeq, dst_sum: CatSymSeq) -> SymSeqMap:
    comp = {
        (w, z): dict((ml if z[0] == "l" else mr).cell(_untag(w), z[1]))
        for (w, z), labels in src_sum.cells.items() if labels
    }
    return SymSeqMap(src_sum, dst_sum, comp)


# ---------------------------------------------------------------------------
# the Yoneda collapse: ev o (F u Id_X)  ->  transpose(F)
# ---------------------------------------------------------------------------


def collapse_map(
    f: CatSymSeq,
    x: FinGroupoid,
    y: FinGroupoid,
    expz: FinGroupoid,
    evdata: EvData,
    compc: Composite,
    target: CatSymSeq,
) -> SymSeqMap:
    """Collapse the evaluation coend onto the reindexed cells of ``F``."""
    comp = {}
    for key, reps in compc.reps.items():
        w, yo = key
        vpart, xpart, _p = split_word(w)
        m = {}
        for idx, raw in enumerate(reps):
            mid, evlab, blocks, ss, arr = raw
            x0, gamma = evdata.reps[(mid, yo)][evlab]
            sg, gcomps = gamma
            offs = block_offsets([len(b) for b in blocks])
            sa, comps_a = arr
            p0 = sg[0]
            e0 = gcomps[0][1]
            n0 = len(x0)
            delta_im, delta_comps = [0] * n0, [None] * n0
            for k in range(1, n0 + 1):
                pk = sg[k]
                a_prime = gcomps[k][1]
                a_k = ss[pk]
                q = offs[pk]
                s_pos = sa[q]
                c_arr = comps_a[q][1]
                delta_im[k - 1] = s_pos - len(vpart)
                delta_comps[k - 1] = x.compose(a_prime, x.compose(a_k, c_arr))
            delta = (tuple(delta_im), tuple(delta_comps))
            e1 = ("e", delta, y.ident[yo])
            e_total = expz.compose(e1, e0)
            vb = tuple(o for (_t, o) in blocks[p0])
            obj0 = mid[p0][1]
            f1 = f.cod_tr[(vb, obj0)][e_total][ss[p0]]
            rho_im, rho_comps = [], []
            for t in range(len(vb)):
                q = offs[p0] + t
                rho_im.append(sa[q])
                rho_comps.append(comps_a[q][1])
            rho = (tuple(rho_im), tuple(rho_comps))
            m[idx] = f.dom_tr[(vb, (xpart, yo))][(vpart, rho)][f1]
        comp[key] = m
    return SymSeqMap(compc.seq, target, comp)


# ---------------------------------------------------------------------------
# the internal-hom monad
# ---------------------------------------------------------------------------


@dataclass
class HomMonad:
    x: FinGroupoid
    y: FinGroupoid
    expz: FinGroupoid
    e: CatSymSeq
    mu: SymSeqMap
    eta: SymSeqMap
    ee: Composite
    evdata: EvData


def _on_window(m: SymSeqMap) -> SymSeqMap:
    """``m`` between the cells it holds: both ends restricted to those cells."""
    src, dst = (
        CatSymSeq(s.dom, s.cod, {k: s.cells[k] for k in m.comp if k in s.cells}, s.dom_tr, s.cod_tr)
        for s in (m.src, m.dst)
    )
    return SymSeqMap(src, dst, m.comp)


def _chain(maps: list) -> SymSeqMap:
    """``maps`` composed in diagram order: the first one is applied first."""
    return functools.reduce(lambda first, then: compose_maps(then, first), maps)


def hom_monad(a: Operad, b: Operad, length_bound: int, arity_bound: int) -> HomMonad:
    """The monad on ``[X, Y]`` whose algebras are the (B, A)-bimodules.

    Both multiplications and the unit are derived mechanically from the
    transpose bijection and the coherence maps; no closed formula is coded.
    ``length_bound`` caps the word length of exponential sorts and
    ``arity_bound`` the arity at which the monad laws are verified.

    With ``S = E u Id_X``, ``A~ = Id_Z u A``, ``Ev_A = ev o A~`` and
    ``T = B o Ev_A = transpose(E)``, the multiplication on ``T`` is eight
    steps: (1) the inverse collapse ``transpose(E o E) -> ev o (E o E u
    Id_X)``; (2) ``ev o`` the inverse sum split, into ``ev o (S o S)``; (3)
    an inverse associator; (4) the collapse ``ev o S -> T``, then ``o S``;
    (5) an associator, into ``B o (Ev_A o S)``; (6) ``B o`` the steps inside
    ``B o -``: an associator, ``ev o`` the interchange ``A~ o S -> S o A~``,
    an inverse associator, the collapse then ``o A~``, an associator into
    ``B o (Ev_A o A~)``, and ``B o`` (an associator, then ``ev o`` the
    multiplication of ``A~``); (7) the inverse of the windowed associator
    ``(B o B) o Ev_A -> B o T``; (8) ``B``'s multiplication, then ``o Ev_A``.
    Whiskering is functorial, ``(B o f) ; (B o g) = B o (f ; g)``, so each
    run of steps inside ``B o -`` is composed first and whiskered once, and
    no composite is built only to carry one step to the next.
    """
    if length_bound < 1 or arity_bound < 1:
        raise InputError("window parameters must be at least 1")
    if not a.reduced or not b.reduced:
        raise InputError("the exponential pipeline requires reduced operads")
    if b.arity_bound > arity_bound:
        # E has cells up to B's arity, above the window E o Id_Z is built to
        raise InputError(
            f"arity window {arity_bound} is below the outer operad's arity bound {b.arity_bound}"
        )
    x = FinGroupoid.discrete(a.sorts)
    y = FinGroupoid.discrete(b.sorts)
    expz = exp_object(x, y, length_bound)
    evdata = ev_catsym(x, y, expz, length_bound)
    acat = cat_from_symseq(a.carrier)
    bcat = cat_from_symseq(b.carrier)
    idz = cat_id(expz)
    idx = cat_id(x)
    idy = cat_id(y)
    w_gpd = evdata.seq.dom
    capt = arity_bound + length_bound

    atil = cat_sum(idz, acat)
    ev_a = cat_compose(evdata.seq, atil, max_arity=capt)
    tc = cat_compose(bcat, ev_a.seq, max_arity=capt)
    e = untranspose(tc.seq, expz, x, expz, y)
    ee = cat_compose(e, e, max_arity=arity_bound)
    tee = transpose(ee.seq, x, y)

    # --- multiplication ----------------------------------------------------
    s_e = cat_sum(e, idx)
    sum_ee = cat_sum(ee.seq, idx)
    c1 = cat_compose(evdata.seq, sum_ee, max_arity=capt)
    col_ee = collapse_map(ee.seq, x, y, expz, evdata, c1, tee)
    m1 = map_inverse(col_ee)

    ss = cat_compose(s_e, s_e, max_arity=capt)
    idxx = cat_compose(idx, idx, max_arity=capt)
    split1 = cat_sum_split(ss, ee, idxx)
    u_idid = cat_left_unitor(idxx)
    smap = cat_sum_maps(identity_map(ee.seq), u_idid, cat_sum(ee.seq, idxx.seq), sum_ee)
    split_total = compose_maps(smap, split1)
    c2 = cat_compose(evdata.seq, ss.seq, max_arity=capt)
    m2 = hcompose_maps(
        identity_map(evdata.seq), map_inverse(_on_window(split_total)), c1, c2
    )

    evs = cat_compose(evdata.seq, s_e, max_arity=capt)
    c3 = cat_compose(evs.seq, s_e, max_arity=capt)
    m3 = map_inverse(cat_associator(evs, c3, ss, c2))

    col_e = collapse_map(e, x, y, expz, evdata, evs, tc.seq)
    c4 = cat_compose(tc.seq, s_e, max_arity=capt)
    m4 = hcompose_maps(col_e, identity_map(s_e), c3, c4)

    evas = cat_compose(ev_a.seq, s_e, max_arity=capt)
    c5 = cat_compose(bcat, evas.seq, max_arity=capt)
    m5 = cat_associator(tc, c4, evas, c5)

    # the steps inside B o -, composed into one map Ev_A o S -> T (step 6)
    atil_s = cat_compose(atil, s_e, max_arity=capt)
    ev_atils = cat_compose(evdata.seq, atil_s.seq, max_arity=capt)
    assoc2 = cat_associator(ev_a, evas, atil_s, ev_atils)

    # interchange (Id u A) o (E u Id)  ->  (E u Id) o (Id u A)
    idz_e = cat_compose(idz, e, max_arity=arity_bound)
    a_idx = cat_compose(acat, idx, max_arity=capt)
    e_idz = cat_compose(e, idz, max_arity=arity_bound)
    idx_a = cat_compose(idx, acat, max_arity=capt)
    satil = cat_compose(s_e, atil, max_arity=capt)
    split_as = cat_sum_split(atil_s, idz_e, a_idx)
    step = cat_sum_maps(
        cat_left_unitor(idz_e), cat_right_unitor(a_idx),
        cat_sum(idz_e.seq, a_idx.seq), cat_sum(e, acat),
    )
    step2 = cat_sum_maps(
        map_inverse(cat_right_unitor(e_idz)), map_inverse(cat_left_unitor(idx_a)),
        cat_sum(e, acat), cat_sum(e_idz.seq, idx_a.seq),
    )
    unsplit = map_inverse(_on_window(cat_sum_split(satil, e_idz, idx_a)))
    swap = compose_maps(unsplit, compose_maps(step2, compose_maps(step, split_as)))
    ev_satil = cat_compose(evdata.seq, satil.seq, max_arity=capt)

    evs_atil = cat_compose(evs.seq, atil, max_arity=capt)
    assoc3 = cat_associator(evs, evs_atil, satil, ev_satil)
    t_atil = cat_compose(tc.seq, atil, max_arity=capt)
    eva_atil = cat_compose(ev_a.seq, atil, max_arity=capt)
    b_evaatil = cat_compose(bcat, eva_atil.seq, max_arity=capt)

    atil2 = cat_compose(atil, atil, max_arity=capt)
    ev_atil2 = cat_compose(evdata.seq, atil2.seq, max_arity=capt)
    assoc4 = cat_associator(ev_a, eva_atil, atil2, ev_atil2)

    # mu of (Id u A): unitor on the left part, operad multiplication on the right
    idz2 = cat_compose(idz, idz, max_arity=2)
    a2 = cat_compose(acat, acat, max_arity=a.arity_bound)
    split_aa = cat_sum_split(atil2, idz2, a2)
    mu_atil = compose_maps(
        cat_sum_maps(cat_left_unitor(idz2), _operad_mu(a, a2, acat), cat_sum(idz2.seq, a2.seq), atil),
        split_aa,
    )
    inner = [
        assoc2,
        hcompose_maps(identity_map(evdata.seq), swap, ev_atils, ev_satil),
        map_inverse(assoc3),
        hcompose_maps(col_e, identity_map(atil), evs_atil, t_atil),
        cat_associator(tc, t_atil, eva_atil, b_evaatil),
        hcompose_maps(
            identity_map(bcat),
            compose_maps(hcompose_maps(identity_map(evdata.seq), mu_atil, ev_atil2, ev_a), assoc4),
            b_evaatil, tc,
        ),
    ]
    b_t = cat_compose(bcat, tc.seq, max_arity=capt)
    b2 = cat_compose(bcat, bcat, max_arity=b.arity_bound)
    bb_eva = cat_compose(b2.seq, ev_a.seq, max_arity=capt)
    chain = [
        m1, m2, m3, m4, m5,
        hcompose_maps(identity_map(bcat), _chain(inner), c5, b_t),
        map_inverse(_on_window(cat_associator(b2, bb_eva, tc, b_t))),
        hcompose_maps(_operad_mu(b, b2, bcat), identity_map(ev_a.seq), bb_eva, tc),
    ]
    mu_on_t = _chain(chain)

    mu_e = _untranspose_map(mu_on_t, ee.seq, e, x)

    # --- unit ---------------------------------------------------------------
    s_id = cat_sum(idz, idx)
    c_id = cat_compose(evdata.seq, s_id, max_arity=capt)
    t_id = transpose(idz, x, y)
    col_id = collapse_map(idz, x, y, expz, evdata, c_id, t_id)
    idw = cat_id(w_gpd)
    ev_idw = cat_compose(evdata.seq, idw, max_arity=capt)
    ru_inv = map_inverse(cat_right_unitor(ev_idw))
    # Id_{Z u X} -> Id_Z u Id_X: strip the tags of the unary arrows
    idsum = SymSeqMap(idw, s_id, {k: {l: l[1] for l in labels} for k, labels in idw.cells.items()})
    r1 = _chain([ru_inv, hcompose_maps(identity_map(evdata.seq), idsum, ev_idw, c_id), col_id])
    eta_atil_comp = {
        key: {lab: lab[1] if key[0][0][0] == "l" else a.eta_label(key[0][0][1]) for lab in labels}
        for key, labels in idw.cells.items()
    }
    eta_atil = SymSeqMap(idw, atil, eta_atil_comp)
    idy_eva = cat_compose(idy, ev_a.seq, max_arity=capt)
    eta_b_comp = {
        key: {lab: b.eta_label(key[1]) for lab in labels}
        for key, labels in idy.cells.items()
    }
    eta_b_cat = SymSeqMap(idy, bcat, eta_b_comp)
    eta_on_t = _chain([
        map_inverse(r1),
        ru_inv,
        hcompose_maps(identity_map(evdata.seq), eta_atil, ev_idw, ev_a),
        map_inverse(cat_left_unitor(idy_eva)),
        hcompose_maps(eta_b_cat, identity_map(ev_a.seq), idy_eva, tc),
    ])
    eta_e = _untranspose_map(eta_on_t, idz, e, x)

    hm = HomMonad(x, y, expz, e, mu_e, eta_e, ee, evdata)
    check_cat_monad(hm, arity_bound, idz_e, e_idz)
    return hm


def _operad_mu(op: Operad, comp2: Composite, target: CatSymSeq) -> SymSeqMap:
    """The multiplication of ``op`` on its embedded composite ``comp2``."""

    def fn(key, raw):
        mid, g, blocks, fs, arr = raw
        return op.mu.at(*key, op.comp2.class_of(*key, (mid, g, blocks, fs, arr[0])))

    return mu_from_raws(comp2, fn, target)


def _untranspose_map(on_t: SymSeqMap, src: CatSymSeq, dst: CatSymSeq, x: FinGroupoid) -> SymSeqMap:
    """Read a map between transposed sequences back as a map ``src -> dst``.

    Only canonical exponential sorts are transposed.  A cell at another sort
    goes to the canonical one along the first arrow ``c`` of ``[X, Y]``,
    through ``on_t``, and back along ``c``'s inverse.
    """
    expz, comp = src.cod, {}
    for (zw, obj), labels in src.cells.items():
        if not labels:
            continue
        obj0 = (sw_canonical(x, obj[0])[0], obj[1])
        m = on_t.cell(merge_words(zw, obj0[0]), obj[1])
        if obj0 != obj:
            c = expz.arrows(obj, obj0)[0]
            there, back = src.cod_tr[(zw, obj)][c], dst.cod_tr[(zw, obj0)][expz.inv[c]]
            m = {lab: back[m[there[lab]]] for lab in labels}
        comp[(zw, obj)] = dict(m)
    return SymSeqMap(src, dst, comp)


def check_cat_monad(hm: HomMonad, cap: int, ide: Composite, eid: Composite) -> None:
    """Associativity and both unit laws of ``hm`` up to arity ``cap``.

    ``ide`` and ``eid`` are ``Id_Z o E`` and ``E o Id_Z`` at that cap, as
    ``hom_monad`` has built them for the interchange step.
    """
    e, mu, eta, ee = hm.e, hm.mu, hm.eta, hm.ee
    eee_l = cat_compose(ee.seq, e, max_arity=cap)
    eee_r = cat_compose(e, ee.seq, max_arity=cap)
    asc = cat_associator(ee, eee_l, ee, eee_r)
    require_equal(
        "hom monad associativity",
        compose_maps(mu, hcompose_maps(mu, identity_map(e), eee_l, ee)),
        compose_maps(mu, compose_maps(hcompose_maps(identity_map(e), mu, eee_r, ee), asc)),
    )
    require_equal(
        "hom monad left unit law",
        compose_maps(mu, hcompose_maps(eta, identity_map(e), ide, ee)), cat_left_unitor(ide),
    )
    require_equal(
        "hom monad right unit law",
        compose_maps(mu, hcompose_maps(identity_map(e), eta, eid, ee)), cat_right_unitor(eid),
    )


# ---------------------------------------------------------------------------
# from monads on a groupoid to operads on its objects
# ---------------------------------------------------------------------------


def operad_of_monad(expz: FinGroupoid, e: CatSymSeq, mu: SymSeqMap, eta: SymSeqMap,
                    ee: Composite, arity_bound: int) -> Operad:
    """Extract the operad on the object set: cells of the monad as an S-matrix."""
    cells = {}
    for (w, obj), labels in e.cells.items():
        if not labels or len(w) > arity_bound:
            continue
        gen_maps = {}
        for i in stab_gens(w):
            p = Perm.transposition(len(w), i)
            arrow = sw_perm_arrow(expz, w, p)
            gen_maps[i] = dict(e.dom_tr[(w, obj)][(w, arrow)])
        cells[(w, obj)] = YoungSet(w, labels, gen_maps)
    sorts = ssorted(expz.objects)
    carrier = SymSeq(sorts, sorts, cells)

    def mu_fn(key, raw):
        mid, g, blocks, fs, sig = raw
        arr = (
            sig,
            tuple(expz.ident[o] for b in blocks for o in b),
        )
        cls = ee.class_of(key[0], key[1], (mid, g, blocks, fs, arr))
        return mu.at(key[0], key[1], cls)

    eta_labels = {z: eta.at((z,), z, expz.ident[z]) for z in sorts}
    return make_operad(carrier, mu_fn, eta_labels, arity_bound)


def exponential_operad(a: Operad, b: Operad, length_bound: int, arity_bound: int) -> Operad:
    """The operad whose algebras are the (B, A)-bimodules, within the windows."""
    hm = hom_monad(a, b, length_bound, arity_bound)
    return operad_of_monad(hm.expz, hm.e, hm.mu, hm.eta, hm.ee, arity_bound)


# ---------------------------------------------------------------------------
# products of operads
# ---------------------------------------------------------------------------


def product_operad(a: Operad, b: Operad) -> Operad:
    """Product in the bimodule bicategory: disjoint sorts, componentwise structure."""
    carrier, tag1, tag2 = sum_symseq(a.carrier, b.carrier)
    n = min(a.arity_bound, b.arity_bound)
    inv1 = {v: k for k, v in tag1.items()}
    inv2 = {v: k for k, v in tag2.items()}

    def mu_fn(key, raw):
        w, z = key
        mid, g, blocks, fs, sig = raw
        if z in inv1 and all(s in inv1 for s in w):
            part, inv = a, inv1
        else:
            part, inv = b, inv2
        mid2 = tuple(inv[s] for s in mid)
        blocks2 = tuple(tuple(inv[s] for s in bl) for bl in blocks)
        w2 = tuple(inv[s] for s in w)
        cls = part.comp2.class_of(w2, inv[z], (mid2, g, blocks2, fs, sig))
        return part.mu.at(w2, inv[z], cls)

    eta_labels = {}
    for x in a.sorts:
        eta_labels[tag1[x]] = a.eta_label(x)
    for yo in b.sorts:
        eta_labels[tag2[yo]] = b.eta_label(yo)
    return make_operad(carrier, mu_fn, eta_labels, n)
