"""Categorical symmetric sequences over finite groupoids and the exponential operad.

Words over a groupoid form the free symmetric monoidal groupoid: an arrow
``A: v -> w`` is encoded as ``(images, comps)`` where ``images`` is a
permutation with ``comps[i]: v[images[i]] -> w[i]`` componentwise.  Diagram
order composition matches the permutation convention of :mod:`.perms`.

A categorical symmetric sequence is a generalised species: a functor that
sends words over the domain groupoid (contravariantly) and codomain
objects (covariantly) to finite sets.  It stores, per cell, a plain label
tuple, and its action as the builder's two callbacks, which move one label
along a word arrow from a support word or along a codomain arrow.
:meth:`CatSymSeq.dom_at` and :meth:`CatSymSeq.cod_at` read one label at a
time and keep each label they move in one memo per sequence, so no label
is moved before it is read: the unit and regroup steps and ``canon``
read one label per raw, along arrows that change from raw to raw.  A check along
every arrow enumerates the arrows (``dom_arrows``, ``cod_arrows``).
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
raw to that least raw (``canon``).  What reads only the domain groupoid is
computed once per groupoid instance and kept in its ``memo``
(:func:`_per_groupoid`): arrow sets, built in ``skey`` order with no sort
(``sw_arrows``), object ranks, letter automorphisms, isomorphic words, arrow
orbits and the least pairs of each slice, so composites over one groupoid
share them.

Maps are :class:`.symseq.SymSeqMap`, the one map type of both layers, and
share its identity, composites, equality and inverse.  Every map is total on
the cells it holds.  Reading a cell or label a map lacks, or a raw outside a
composite, raises ``ValidationError`` naming the cell; nothing is skipped.
``cat_sum_split`` is windowed: it leaves a cell out iff the untagged cell is
not a cell of the part of its target, and before the split of ``S o S`` is
inverted ``_on_window`` restricts both ends to the cells it holds, so
``map_inverse`` still checks a bijection.  No associator or unitor is built:
a map that reads one applies a coherence step of :mod:`.symseq` inside
itself, a regroup or ungroup, a unit step or an insertion, over this
layer's arrows (:func:`sw_words`); the hom monad's unit laws are read per
label through an insertion (``symseq.labelwise``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable, Iterator

from .perms import (
    FinGroupoid,
    InputError,
    Perm,
    ValidationError,
    Word,
    YoungSet,
    block_offsets,
    block_perm,
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
    _picker,
    _require_same,
    _Shape,
    compose_maps,
    diag_images,
    hcompose_maps,
    identity_map,
    labelwise,
    left_insert,
    left_unit,
    map_inverse,
    plan_regroup,
    regroup,
    require_equal,
    right_insert,
    right_unit,
    sum_symseq,
    ungroup,
)
from .operads import Operad, make_operad, mu_from_raws

Arrow = tuple  # (perm images, component arrow ids indexed by target position)


# ---------------------------------------------------------------------------
# words over a groupoid
# ---------------------------------------------------------------------------


def _per_groupoid(fn: Callable) -> Callable:
    """``fn(gpd, *key)`` computed once per groupoid instance and key, and kept in ``gpd.memo``.

    ``fn`` reads nothing but the groupoid and the key, and returns no value
    that holds the groupoid, so the memo lives and dies with it.
    """
    @functools.wraps(fn)
    def read(gpd: FinGroupoid, *key):
        memo = gpd.memo[fn.__name__]
        value = memo.get(key)
        if value is None:
            value = memo[key] = fn(gpd, *key)
        return value

    return read


@_per_groupoid
def sw_canonical(gpd: FinGroupoid, word: Word) -> tuple[Word, Perm]:
    """Sort by object order; returns (canonical, t) with word[i] == canonical[t(i)]."""
    order = sorted(range(len(word)), key=lambda i: (gpd.obj_index(word[i]), i))
    cw = tuple(word[i] for i in order)
    t = [0] * len(word)
    for j, i in enumerate(order):
        t[i] = j
    return cw, Perm(tuple(t))


@_per_groupoid
def sw_arrows(gpd: FinGroupoid, v: Word, w: Word) -> tuple[Arrow, ...]:
    """All arrows ``v -> w`` in ``skey`` order, enumerated once per groupoid instance."""
    return tuple(_enumerate_arrows(gpd, v, w))


def _enumerate_arrows(gpd: FinGroupoid, v: Word, w: Word) -> Iterator[Arrow]:
    """Arrows ``v -> w`` in ``skey`` order, with no sort: by images, then by components.

    The permutations come in lexicographic order, each with the product of
    the homs it picks, each hom sorted once per groupoid (:func:`_hom`).
    """
    if len(v) == len(w):
        homs = [[_hom(gpd, a, b) for a in v] for b in w]  # homs[i][j]: v[j] -> w[i]
        for im in itertools.permutations(range(len(v))):
            yield from ((im, comps) for comps in itertools.product(*(homs[i][j] for i, j in enumerate(im))))


@_per_groupoid
def _hom(gpd: FinGroupoid, a, b) -> tuple:
    """The arrows ``a -> b`` in ``skey`` order."""
    return ssorted(gpd.arrows(a, b))


@_per_groupoid
def _ranks(gpd: FinGroupoid) -> dict:
    """``object -> rank`` in ``skey`` order; objects with equal ``skey`` share a rank."""
    keys = {o: skey(o) for o in gpd.objects}
    levels = {k: r for r, k in enumerate(sorted(set(keys.values())))}
    return {o: levels[k] for o, k in keys.items()}


def _cell_order(dom: FinGroupoid, cod: FinGroupoid) -> Callable:
    """Sort key of cells: by arity, then word, then output in ``skey`` order, read off object ranks."""
    drank, crank = _ranks(dom), _ranks(cod)
    return lambda k: (len(k[0]), tuple(map(drank.__getitem__, k[0])), crank[k[1]])


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
    images = block_perm([len(b) for b in blocks], psi).images
    return (images, tuple(gpd.ident[o] for j in range(len(blocks)) for o in blocks[psi(j)]))


def sw_embed_at(gpd: FinGroupoid, concat: Word, offset: int, a: Arrow, blocklen: int) -> Arrow:
    """Arrow acting as ``a`` inside one block of a concatenation."""
    im = list(range(len(concat)))
    comps = [gpd.ident[o] for o in concat]
    ai, ac = a
    for t in range(blocklen):
        im[offset + t] = offset + ai[t]
        comps[offset + t] = ac[t]
    return (tuple(im), tuple(comps))


def sw_words(gpd: FinGroupoid) -> SimpleNamespace:
    """How the coherence steps of :mod:`.symseq` write and read arrows of words over ``gpd``, as
    ``symseq.SORT_WORDS`` does over sorts: an arrow is ``(images, letter arrows)``, and ``along`` moves
    labels of ``F`` along letter arrows.  Regroup plans read images alone and are kept once per groupoid."""
    def picker(positions):
        pick = _picker(positions)
        return lambda a: (pick(a[0]), pick(a[1]))

    def along(f, mid, blocks, fs, tau):
        moved = list(fs)
        for i, c in zip(*tau):  # c: mid[i] -> the letter at its position in tau's target
            moved[i] = f.cod_at((blocks[i], mid[i]), c, fs[i])
        return moved

    return SimpleNamespace(
        canonical=functools.partial(sw_canonical, gpd), then=functools.partial(sw_compose, gpd),
        perm=functools.partial(sw_perm_arrow, gpd), ident=functools.partial(sw_id, gpd),
        diag=lambda arrows: (diag_images([a[0] for a in arrows]), tuple(c for a in arrows for c in a[1])),
        picker=picker, letterwise=lambda arr, arrows: sw_compose(gpd, arr, (tuple(range(len(arrows))), arrows)),
        inverse=functools.partial(sw_inverse, gpd), along=along, regroup_plan=functools.partial(_regroup_plan, gpd),
    )


@_per_groupoid
def _regroup_plan(gpd: FinGroupoid, hg_raw: tuple, blocks: tuple) -> tuple:
    """:func:`.symseq.plan_regroup` over ``gpd``, once per shape: it reads the images of the ``H o G`` arrow only."""
    return plan_regroup(sw_words(gpd), hg_raw, hg_raw[4][0], blocks)


# ---------------------------------------------------------------------------
# categorical symmetric sequences
# ---------------------------------------------------------------------------


@dataclass
class CatSymSeq:
    """A functor from words over ``dom`` and objects of ``cod`` to finite sets, given one label at a time.

    ``dom_fn`` and ``cod_fn`` are the builder's transports: ``dom_fn((w, y),
    v, a, l)`` moves label ``l`` of cell ``(w, y)`` along an arrow ``a: v ->
    w`` from a support word (contravariant), and ``cod_fn((w, y), b, l)``
    along an arrow ``b`` out of ``y`` (covariant).  They are read through
    :meth:`dom_at` and :meth:`cod_at`, which keep each label they move in
    one memo.  Neither callback may hold the sequence, so reference counting
    alone frees it.
    """

    dom: FinGroupoid
    cod: FinGroupoid
    cells: dict        # (canonical word, out object) -> labels tuple
    dom_fn: Callable   # ((w, y), v, a, label) -> label of (v, y), for a: v -> w
    cod_fn: Callable   # ((w, y), b, label) -> label of (w, dst b)

    def __post_init__(self):
        # cells are never changed once the sequence is built, so sort the
        # non-empty ones once: by arity, then word, then output
        self._support = tuple(sorted((k for k, v in self.cells.items() if v), key=_cell_order(self.dom, self.cod)))
        words: dict = {}
        for w, y in self._support:
            words.setdefault(y, []).append(w)
        self._support_words = {y: tuple(ws) for y, ws in words.items()}
        self._moved: dict = {}      # (key, v, a, label) or (key, b, label) -> the label it moves to
        self._positions: dict = {}  # key -> {label: position}

    def dom_at(self, key, v: Word, a: Arrow, label):
        """Label ``label`` of cell ``key = (w, y)`` moved along ``a: v -> w`` from the support word ``v``.

        A cell outside the support, an arrow that is not one ``v -> w`` from a
        support word, or a label outside the cell raises ``KeyError``.
        """
        memo_key = (key, v, a, label)
        moved = self._moved.get(memo_key, _UNREAD)
        if moved is _UNREAD:
            self._require(key, label, (v, a),
                          lambda: self.cells.get((v, key[1])) and a in _arrow_index(self.dom, v, key[0]))
            moved = self._moved[memo_key] = self.dom_fn(key, v, a, label)
        return moved

    def cod_at(self, key, b, label):
        """Label ``label`` of cell ``key`` moved along the codomain arrow ``b``; ``KeyError`` as :meth:`dom_at`."""
        memo_key = (key, b, label)
        moved = self._moved.get(memo_key, _UNREAD)
        if moved is _UNREAD:
            self._require(key, label, b, lambda: self.cod.src.get(b) == key[1])
            moved = self._moved[memo_key] = self.cod_fn(key, b, label)
        return moved

    def _require(self, key, label, arrow, is_arrow: Callable) -> None:
        """``KeyError`` naming the first of the cell ``key``, the arrow and the label that is not there."""
        if not self.cells.get(key):
            raise KeyError(key)
        if not is_arrow():
            raise KeyError(arrow)
        if label not in self.positions(key):
            raise KeyError(label)

    def positions(self, key) -> dict:
        """``label -> its position`` in cell ``key``, built on first read and kept."""
        pos = self._positions.get(key)
        if pos is None:
            pos = self._positions[key] = {lab: i for i, lab in enumerate(self.cells[key])}
        return pos

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

    def words(self) -> SimpleNamespace:
        """How the coherence steps write and read arrows of words over ``dom`` (:func:`sw_words`)."""
        return sw_words(self.dom)

    def dom_arrows(self, key) -> list:
        """Every ``(v, a)`` with ``a: v -> w`` from a support word ``v`` at the output of ``key = (w, y)``."""
        w, y = key
        return [(v, a) for v in self.support_words(y) if len(v) == len(w) for a in sw_arrows(self.dom, v, w)]

    def cod_arrows(self, key) -> list:
        """Every codomain arrow out of the output of ``key``."""
        return [b for y2 in self.cod.objects for b in self.cod.arrows(key[1], y2)]

    def validate(self) -> None:
        """Identity, typing, functoriality and interchange of the transports along every arrow, label by label."""
        dom, cod, d, c = self.dom, self.cod, self.dom_at, self.cod_at
        for key in self.support():
            (w, y), labels = key, self.cells[key]
            if any(d(key, w, sw_id(dom, w), l) != l for l in labels):
                raise ValidationError(f"identity transport wrong at {key}")
            for v, a in self.dom_arrows(key):
                if not {d(key, v, a, l) for l in labels} <= set(self.labels(v, y)):
                    raise ValidationError(f"dom transport mistyped at {key} along {a}")
                for u, b in self.dom_arrows((v, y)):
                    if any(d((v, y), u, b, d(key, v, a, l)) != d(key, u, sw_compose(dom, b, a), l) for l in labels):
                        raise ValidationError(f"dom functoriality fails at {key}")
            for b in self.cod_arrows(key):
                y2 = cod.dst[b]
                if not {c(key, b, l) for l in labels} <= set(self.labels(w, y2)):
                    raise ValidationError(f"cod transport mistyped at {key} along {b}")
                for b2 in self.cod_arrows((w, y2)):
                    if any(c((w, y2), b2, c(key, b, l)) != c(key, cod.compose(b2, b), l) for l in labels):
                        raise ValidationError(f"cod functoriality fails at {key}")
                for v, a in self.dom_arrows(key):
                    if any(c((v, y), b, d(key, v, a, l)) != d((w, y2), v, a, c(key, b, l)) for l in labels):
                        raise ValidationError(f"dom/cod interchange fails at {key}")

    def check_equivariance(self, m: SymSeqMap) -> None:
        """``ValidationError`` unless ``m``, total on ``self``, commutes with the transport along every arrow."""
        other = m.dst
        for key in self.support():
            (w, y), labels, mk = key, self.cells[key], m.comp[key]
            for v, a in self.dom_arrows(key):
                mv = m.comp[(v, y)]
                if any(mv[self.dom_at(key, v, a, l)] != other.dom_at(key, v, a, mk[l]) for l in labels):
                    raise ValidationError(f"equivariance fails at cell {key} along {a}")
            for b in self.cod_arrows(key):
                mb = m.comp[(w, self.cod.dst[b])]
                if any(mb[self.cod_at(key, b, l)] != other.cod_at(key, b, mk[l]) for l in labels):
                    raise ValidationError(f"equivariance fails at cell {key} along {b}")


_UNREAD = object()  # a memo miss of CatSymSeq.dom_at and cod_at


def cat_from_symseq(f: SymSeq) -> CatSymSeq:
    """Embed an ordinary symmetric sequence along discrete groupoids, one groupoid if ``f.dom == f.cod``."""
    dom = FinGroupoid.discrete(f.dom)
    cod = dom if f.cod == f.dom else FinGroupoid.discrete(f.cod)
    cells = {key: cell.labels for key, cell in f.cells.items() if cell.size}

    def dom_fn(key, v, a, label):  # discrete: v is the word of key, and a a permutation of it
        return f.dom_at(key, v, a[0], label)

    return CatSymSeq(dom, cod, cells, dom_fn, f.cod_at)


def cat_id(gpd: FinGroupoid) -> CatSymSeq:
    """Identity 1-cell: unary cells are the hom sets of the groupoid."""
    cells = {}
    for o1 in gpd.objects:
        for o2 in gpd.objects:
            arrows = gpd.arrows(o1, o2)
            if arrows:
                cells[((o1,), o2)] = tuple(arrows)

    def dom_fn(key, v, a, label):
        return gpd.compose(label, a[1][0])

    def cod_fn(key, b, label):
        return gpd.compose(b, label)

    return CatSymSeq(gpd, gpd, cells, dom_fn, cod_fn)


def cat_sum(f: CatSymSeq, g: CatSymSeq) -> CatSymSeq:
    """Coproduct on tagged groupoids; mixed cells are empty.  A transport is its part's, read untagged.

    Its groupoids are the unions :func:`.perms.disjoint_union` keeps, so every
    sum over the same groupoids, and every composite over it, shares one.
    """
    parts = {"l": f, "r": g}
    cells = {
        (tuple((tag, o) for o in w), (tag, y)): labels
        for tag, part in parts.items() for (w, y), labels in part.cells.items() if labels
    }

    def dom_fn(key, v, a, label):
        (w, (tag, y)) = key
        return parts[tag].dom_at((_untag(w), y), _untag(v), (a[0], _untag(a[1])), label)

    def cod_fn(key, b, label):
        (w, (tag, y)) = key
        return parts[tag].cod_at((_untag(w), y), b[1], label)

    return CatSymSeq(disjoint_union(f.dom, g.dom), disjoint_union(f.cod, g.cod), cells, dom_fn, cod_fn)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


@_per_groupoid
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


@_per_groupoid
def _aut_generators(gpd: FinGroupoid, w: Word) -> tuple[Arrow, ...]:
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
    return tuple(gens)


@_per_groupoid
def _iso_words(gpd: FinGroupoid, concat: Word) -> tuple:
    """The canonical words isomorphic to ``concat``: per component, a multiset of its objects."""
    comp, members = _components(gpd), {}
    for o in gpd.objects:
        members.setdefault(comp[o], []).append(o)
    choices = [
        itertools.combinations_with_replacement(members[c], len(tuple(run)))
        for c, run in itertools.groupby(sorted(comp[o] for o in concat))
    ]
    combos = itertools.product(*choices)
    return tuple(tuple(sorted((o for part in combo for o in part), key=gpd.obj_index)) for combo in combos)


@_per_groupoid
def _arrow_index(gpd: FinGroupoid, v: Word, w: Word) -> dict:
    """``arrow -> its position in sw_arrows(gpd, v, w)``."""
    return {a: i for i, a in enumerate(sw_arrows(gpd, v, w))}


@_per_groupoid
def _arrow_orbits(gpd: FinGroupoid, cw: Word, concat: Word, gens: frozenset) -> tuple:
    """``(orbit of each index, least index of each orbit)`` of ``sw_arrows(gpd, cw, concat)`` under ``gens``.

    An arrow ``a`` is related to ``a`` followed by each generator.
    """
    arrows, index = sw_arrows(gpd, cw, concat), _arrow_index(gpd, cw, concat)
    pairs = ((i, index[sw_compose(gpd, a, s)]) for i, a in enumerate(arrows) for s in gens)
    return index_quotient(len(arrows), pairs)


@_per_groupoid
def _slice(gpd: FinGroupoid, concat: Word, sizes: tuple, swaps: tuple, moves: tuple) -> dict:
    """The least label pairs of a slice with Schreier generators of their stabilizers (:meth:`_CatPlan.shape`)."""
    shape = _slice_shape(gpd, concat, swaps, moves, {})
    return {x0: frozenset(schreier) for x0, schreier in shape.least_pairs(sizes)}


def _slice_shape(gpd: FinGroupoid, concat: Word, swaps, moves, least: dict) -> _Shape:
    """The :class:`.symseq._Shape` of a slice whose generators move ``concat`` by the given arrows."""
    def step(b):
        return _same if b is None else functools.partial(sw_compose, gpd, a2=b)

    return _Shape(
        sw_id(gpd, concat), sw_words(gpd),
        [(t, gp, step(b)) for t, gp, b in swaps], [(k, gp, fp, step(b)) for k, gp, fp, b in moves], least,
    )


def _same(a):
    """The step of a generator that leaves the arrow as it is."""
    return a


def _label_perm(move: Callable, pos: dict) -> tuple:
    """A transport of one cell onto itself, read label by label, as a permutation of their positions."""
    return tuple(pos[move(lab)] for lab in pos)


class _CatPlan:
    """What :func:`cat_compose` plans for ``outer o inner``, and its ``canon``.

    A coend over a groupoid depends only on its skeleton.  Each middle word
    and each block goes to its least isomorphic support word
    (:func:`_least_words`); there the automorphisms of a word with ``m``
    copies of a letter ``x`` form ``Aut(x) ≀ S_m``.  A ``(mid, blocks)``
    with both least and the blocks sorted within each run of ``mid`` is a
    slice, planned as a :class:`.symseq._Shape` whose elements act on
    arrows ``concat -> concat``.  Its ``least`` maps each least label pair to
    the Schreier generators of the pair's stabilizer; the arrows of
    ``sw_arrows(cw, concat)`` least under those are found by closure on their
    indices (:func:`_arrow_orbits`).

    Whatever depends only on the domain groupoid is kept in its memo and
    shared by every composite over it: arrow sets and their indices, letter
    automorphisms, isomorphic words, arrow orbits, and each slice's least
    pairs, keyed by value (:meth:`shape`).  The plan itself holds only what
    reads ``outer`` and ``inner``.
    """

    def __init__(self, outer: CatSymSeq, inner: CatSymSeq):
        self.outer, self.inner, self.dom = outer, inner, inner.dom
        self.least_mid = _least_words(outer, _components(outer.dom))
        self.least_block = _least_words(inner, _components(inner.dom))
        outs = {y for _w, y in inner.support()}
        self.rank = {(w, y): i for y in outs for i, w in enumerate(inner.support_words(y))}
        self.shapes: dict = {}   # (mid, out, blocks) -> _Shape

    def forget(self) -> None:
        """Drop the slices' shapes; ``canon`` plans again the few slices read later.

        They are kept only while the composite is built, so that a composite
        holds no more than its representatives once it is built.
        """
        self.shapes.clear()

    def block_tuples(self, mid: Word):
        """Tuples of least block words over ``mid``, sorted within each run, in product order."""
        runs = []
        for y, run in itertools.groupby(mid):
            words = [w for w in self.inner.support_words(y) if self.least_block[(w, y)] == w]
            runs.append(itertools.combinations_with_replacement(words, len(tuple(run))))
        return (tuple(b for run in combo for b in run) for combo in itertools.product(*runs))

    def shape(self, mid: Word, z, blocks: tuple) -> _Shape:
        """The plan of a slice: its group ``H`` and the least pairs of its orbits.

        ``H`` is generated by the swaps of equal adjacent blocks, the letter
        automorphisms of ``mid`` and the automorphisms of each block.  The
        least pairs and their Schreier generators depend only on ``concat``,
        the cell sizes and the generators, each a label permutation with the
        arrow it moves ``concat`` by (``None`` for none), so slices equal in
        those share them through the memo of the domain groupoid.
        """
        shape = self.shapes.get((mid, z, blocks))
        if shape is not None:
            return shape
        outer, inner, dom, mgpd = self.outer, self.inner, self.dom, self.outer.dom
        gpos = outer.positions((mid, z))
        g_along = functools.partial(outer.dom_at, (mid, z), mid)
        fkeys = tuple(zip(blocks, mid))
        fpos = [inner.positions(k) for k in fkeys]
        concat = tuple(o for b in blocks for o in b)
        offs = block_offsets(len(b) for b in blocks)
        swaps = []
        for t in stab_gens(mid):
            if blocks[t] == blocks[t + 1]:
                swap = Perm.transposition(len(mid), t)
                g_back = functools.partial(g_along, sw_perm_arrow(mgpd, mid, swap))  # the swap is its own inverse
                swaps.append((t, _label_perm(g_back, gpos), sw_block_perm(dom, list(blocks), swap)))
        moves = []
        idmid = tuple(mgpd.ident[o] for o in mid)
        for p, y in enumerate(mid):
            for a in mgpd.arrows(y, y):
                if a != mgpd.ident[y]:
                    back = (tuple(range(len(mid))), idmid[:p] + (mgpd.inv[a],) + idmid[p + 1 :])
                    g_back, f_fwd = functools.partial(g_along, back), functools.partial(inner.cod_at, fkeys[p], a)
                    moves.append((p, _label_perm(g_back, gpos), _label_perm(f_fwd, fpos[p]), None))
        fixed = tuple(range(len(gpos)))
        for k, b in enumerate(blocks):
            for beta in _aut_generators(dom, b):
                f_back = functools.partial(inner.dom_at, fkeys[k], b, sw_inverse(dom, beta))
                emb = sw_embed_at(dom, concat, offs[k], beta, len(b))
                moves.append((k, fixed, _label_perm(f_back, fpos[k]), emb))
        sizes = (len(gpos),) + tuple(len(f) for f in fpos)
        least = _slice(dom, concat, sizes, tuple(swaps), tuple(moves))
        shape = self.shapes[(mid, z, blocks)] = _slice_shape(dom, concat, swaps, moves, least)
        return shape

    def _along_mid(self, z, raw: tuple, mid2: Word, psi: Arrow) -> tuple:
        """``raw`` moved along the middle arrow ``psi: mid -> mid2``: whole blocks move, labels transport."""
        mid, g, blocks, fs, arr = raw
        order = psi[0]  # block k of the result is block order[k] of raw; psi[1][k]: mid[order[k]] -> mid2[k]
        g2 = self.outer.dom_at((mid, z), mid2, sw_inverse(self.outer.dom, psi), g)
        fs2 = tuple(self.inner.cod_at((blocks[j], mid[j]), c, fs[j]) for j, c in zip(order, psi[1]))
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
        if not len(mid) == len(blocks) == len(fs) or g not in outer.positions((mid, z)):
            return None
        for key, f in zip(zip(blocks, mid), fs):
            if not inner.cells.get(key) or f not in inner.positions(key):
                return None
        if arr not in _arrow_index(dom, w, tuple(o for b in blocks for o in b)):
            return None
        mid0 = self.least_mid[(mid, z)]
        if mid0 != mid:
            mid, g, blocks, fs, arr = self._along_mid(z, raw, mid0, sw_arrows(outer.dom, mid, mid0)[0])
        blocks, fs = list(blocks), list(fs)
        for k, y in enumerate(mid):
            b, b0 = blocks[k], self.least_block[(blocks[k], y)]
            if b0 != b:
                rho = sw_arrows(dom, b0, b)[0]
                fs[k] = inner.dom_at((b, y), b0, rho, fs[k])
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
        pair = (outer.positions((mid, z))[g], tuple(inner.positions(k)[f] for k, f in zip(fkeys, fs)))
        least, h = shape.locate(pair)
        if h is not shape.one:
            arr = sw_compose(dom, arr, sw_inverse(dom, h))
        concat = tuple(o for b in blocks for o in b)
        label, roots = _arrow_orbits(dom, w, concat, shape.least[least])
        sig = sw_arrows(dom, w, concat)[roots[label[_arrow_index(dom, w, concat)[arr]]]]
        fs0 = tuple(inner.cells[k][i] for k, i in zip(fkeys, least[1]))
        return (mid, outer.cells[(mid, z)][least[0]], blocks, fs0, sig)


def cat_compose(outer: CatSymSeq, inner: CatSymSeq, max_arity: int) -> Composite:
    """Composite ``outer o inner``, built from the least raw of each coend class.

    The enumeration order of raws is the middle word in ``outer.support()``
    order, the blocks in product order over ``inner.support_words``, then the
    outer label, the inner labels and the arrow's index in
    ``sw_arrows(cw, concat)``; a class is numbered by its least raw.  Only
    those least raws are built, one slice at a time (:class:`_CatPlan`), so
    representatives and class numbers are those of the union-find over every
    raw.  ``canon`` carries any other raw to its least raw.  ``max_arity``
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
            if sum(len(b) for b in blocks) > max_arity:
                continue
            concat = tuple(o for b in blocks for o in b)
            fcells = [inner.cells[(b, y)] for b, y in zip(blocks, mid)]
            shape = plan.shape(mid, z, blocks)
            cws = _iso_words(dom, concat)
            for x0, gens in shape.least.items():
                g, fs = glabels[x0[0]], tuple(c[i] for c, i in zip(fcells, x0[1]))
                group = len(groups)
                groups.append((concat, gens))
                for cw in cws:
                    arrows = sw_arrows(dom, cw, concat)
                    roots = _arrow_orbits(dom, cw, concat, gens)[1]
                    reps, origins = built.setdefault((cw, z), ([], []))
                    first[(cw, group)] = len(reps)
                    reps += [(mid, g, blocks, fs, arrows[r]) for r in roots]
                    origins += [group] * len(roots)
    cells, cls_out, reps_out = {}, {}, {}
    for key in sorted(built, key=_cell_order(dom, outer.cod)):
        reps = reps_out[key] = built[key][0]
        cells[key] = tuple(range(len(reps)))
        cls_out[key] = {raw: idx for idx, raw in enumerate(reps)}

    def dom_fn(key, v, a, cls):
        # only the arrow moves, so the slice and the least pair stay
        group = built[key][1][cls]
        concat, gens = groups[group]
        label = _arrow_orbits(dom, v, concat, gens)[0]
        return first[(v, group)] + label[_arrow_index(dom, v, concat)[sw_compose(dom, a, reps_out[key][cls][4])]]

    def cod_fn(key, b, cls):
        # reads cls_out and the plan, not comp, so that the sequence holds no cycle
        mid, g, blocks, fs, arr = reps_out[key][cls]
        key2 = (key[0], outer.cod.dst[b])
        return cls_out[key2][plan.least_raw(*key2, (mid, outer.cod_at((mid, key[1]), b, g), blocks, fs, arr))]

    seq = CatSymSeq(dom, outer.cod, cells, dom_fn, cod_fn)
    comp = Composite(outer, inner, seq, reps_out, cls_out, reps_out, plan.least_raw, max_arity)
    plan.forget()
    return comp


# ---------------------------------------------------------------------------
# cartesian closed structure
# ---------------------------------------------------------------------------


def exp_object(x: FinGroupoid, y: FinGroupoid, length_bound: int) -> FinGroupoid:
    """Exponential object: words over the domain (reversed) paired with codomain objects."""
    words = [w for n in range(length_bound + 1) for w in itertools.product(x.objects, repeat=n)]
    objects = tuple((w, yo) for w in words for yo in y.objects)
    hom: dict = {}
    for (w1, y1), (w2, y2) in itertools.product(objects, repeat=2):
        # in skey order, as both factors are
        arrows = tuple(("e", a, b) for a in sw_arrows(x, w2, w1) for b in _hom(y, y1, y2))
        if arrows:
            hom[((w1, y1), (w2, y2))] = arrows
    ident = {(w, yo): ("e", sw_id(x, w), y.ident[yo]) for (w, yo) in objects}
    inv = {("e", a, b): ("e", sw_inverse(x, a), y.inv[b]) for arrows in hom.values() for _e, a, b in arrows}
    comp: dict = {}
    for (o1, o2), arrows1 in hom.items():
        for o3 in objects:
            for (e1, a1, b1), (e2, a2, b2) in itertools.product(arrows1, hom.get((o2, o3), ())):
                comp[((e2, a2, b2), (e1, a1, b1))] = ("e", sw_compose(x, a2, a1), y.compose(b2, b1))
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

    x0_words = [w for n in range(length_bound + 1) for w in itertools.combinations_with_replacement(x.objects, n)]
    # candidate source words: everything isomorphic to some target word
    elems_by_cell: dict = {}
    for x0 in x0_words:
        for yo in y.objects:
            tgt = target_word(x0, yo)
            heads = [("l", o) for o in expz.objects if expz.arrows(o, (x0, yo))]
            tail_sets = [[("r", o2) for o2 in x.objects if x.arrows(o2, o)] for o in x0]
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
                    move = ((0,) + tuple(1 + i for i in bi), (head,) + tuple(("r", c) for c in bc))
                    gamma2 = sw_compose(w_gpd, gamma, move)
                    edges.append(((x0, gamma), (x0b, gamma2)))
        q = quotient(elems, edges)
        cells[key] = tuple(range(len(q.classes)))
        reps[key] = list(q.representative)
        cls[key] = q.class_index

    def dom_fn(key, v, a, cidx):
        x0, gamma = reps[key][cidx]
        return cls[(v, key[1])][(x0, sw_compose(w_gpd, a, gamma))]

    def cod_fn(key, b, cidx):
        x0, gamma = reps[key][cidx]
        n0 = len(x0)
        head = ("l", ("e", sw_id(x, x0), b))
        move = (tuple(range(n0 + 1)), (head,) + tuple(("r", x.ident[o]) for o in x0))
        return cls[(key[0], y.dst[b])][(x0, sw_compose(w_gpd, gamma, move))]

    return EvData(CatSymSeq(w_gpd, y, cells, dom_fn, cod_fn), reps, cls)


def transpose(f: CatSymSeq, x: FinGroupoid, y: FinGroupoid) -> CatSymSeq:
    """Reindex ``F: V -> [X, Y]`` as ``V n X -> Y`` (the proof-level equality)."""
    v_gpd = f.dom
    w_gpd = disjoint_union(v_gpd, x)
    cells = {}
    for (vw, obj), labels in f.cells.items():
        xw, yo = obj
        if sw_canonical(x, xw)[0] != xw or not labels:
            continue
        cells[(merge_words(vw, xw), yo)] = labels

    def dom_fn(key, src_word, a, label):
        w, yo = key
        vw, xw, _p = split_word(w)
        vw2, xw2, _p2 = split_word(src_word)
        nl = len(vw)
        im, comps = a
        b_arrow = (tuple(im[:nl]), tuple(c[1] for c in comps[:nl]))
        alpha = (tuple(i - nl for i in im[nl:]), tuple(c[1] for c in comps[nl:]))
        lab = f.dom_at((vw, (xw, yo)), vw2, b_arrow, label)
        exp_arrow = ("e", alpha, y.ident[yo])
        return f.cod_at((vw2, (xw, yo)), exp_arrow, lab)

    def cod_fn(key, b, label):
        w, yo = key
        vw, xw, _p = split_word(w)
        exp_arrow = ("e", sw_id(x, xw), b)
        return f.cod_at((vw, (xw, yo)), exp_arrow, label)

    return CatSymSeq(w_gpd, y, cells, dom_fn, cod_fn)


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
        return g.dom_at(g_key(vw, obj), g_key(src_word, obj)[0], lifted, label)

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
        lab = g.dom_at(g_key(vw, obj), g_key(vw, (xw2, yo))[0], lifted, label)
        return g.cod_at(g_key(vw, (xw2, yo)), b, lab)

    return CatSymSeq(v_gpd, expz, cells, dom_fn, cod_fn)


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


def _untag_raw(key, raw) -> tuple:
    """A cell of a composite of sums and a raw there, read in the part their tags name."""
    (w, (_tag, z)), (mid, g, blocks, fs, arr) = key, raw
    return (_untag(w), z), (_untag(mid), g, tuple(_untag(b) for b in blocks), fs, (arr[0], _untag(arr[1])))


def cat_sum_split(sumcomp: Composite, left: Callable, right: Callable, dst: CatSymSeq) -> SymSeqMap:
    """Canonical iso ``(F1 u G1) o (F2 u G2) -> F u G`` on a window, through a step on each part.

    ``dst`` is the sum ``F u G``; ``left(key, raw)`` gives the label of ``F``
    that a raw of ``F1 o F2`` names, read untagged, and ``right`` the label
    of ``G`` for ``G1 o G2``: its class in the part composite, a unit step
    or a multiplication.  A windowed map: a cell ``(w, (tag, z))`` of the
    sum composite is left out iff ``(untagged w, z)`` is not a cell of the
    part of ``dst`` (``F`` for tag ``l``, ``G`` for tag ``r``).  Every raw of
    a kept cell goes through its part's step; one outside the part composite
    a step classes it in is a ``ValidationError``.
    """
    comp = {}
    for key, reps in sumcomp.reps.items():
        if key in dst.cells:  # the letters of a cell of a sum carry the tag of its output
            step = left if key[1][0] == "l" else right
            comp[key] = {idx: step(*_untag_raw(key, raw)) for idx, raw in enumerate(reps)}
    return SymSeqMap(sumcomp.seq, dst, comp)


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
            f1 = f.cod_at((vb, obj0), e_total, ss[p0])
            rho_im, rho_comps = [], []
            for t in range(len(vb)):
                q = offs[p0] + t
                rho_im.append(sa[q])
                rho_comps.append(comps_a[q][1])
            rho = (tuple(rho_im), tuple(rho_comps))
            m[idx] = f.dom_at((vb, (xpart, yo)), vpart, rho, f1)
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
    src, dst = (replace(s, cells={k: s.cells[k] for k in m.comp if k in s.cells}) for s in (m.src, m.dst))
    return SymSeqMap(src, dst, m.comp)


def _chain(maps: list) -> SymSeqMap:
    """``maps`` composed in diagram order: the first one is applied first."""
    return functools.reduce(lambda first, then: compose_maps(then, first), maps)


def _then(first: SymSeqMap, comp: Composite, step: Callable, target: CatSymSeq) -> SymSeqMap:
    """``first`` followed by ``step`` at the representative of each class of ``comp`` that ``first`` reaches."""
    _require_same("the step does not start where the map ends", first.dst, comp.seq)
    out = {}
    for key, m in first.comp.items():
        moved = {v: step(key, comp.rep(*key, v)) for v in dict.fromkeys(m.values())}
        out[key] = {lab: moved[v] for lab, v in m.items()}
    return SymSeqMap(first.src, target, out)


def hom_monad(a: Operad, b: Operad, length_bound: int, arity_bound: int) -> HomMonad:
    """The monad on ``[X, Y]`` whose algebras are the (B, A)-bimodules.

    Both multiplications and the unit are derived mechanically from the
    transpose bijection and the coherence maps; no closed formula is coded.
    ``length_bound`` caps the word length of exponential sorts and
    ``arity_bound`` the arity at which the monad laws are verified.

    With ``S = E u Id_X``, ``A~ = Id_Z u A``, ``Ev_A = ev o A~`` and
    ``T = B o Ev_A = transpose(E)``, the multiplication on ``T`` is five
    steps, each associator a regroup or ungroup step inside the map that
    reads it: (1) the inverse collapse ``transpose(E o E) -> ev o (E o E u
    Id_X)``; (2) ``ev o`` the inverse sum split, into ``ev o (S o S)``; (3)
    an ungroup through the collapse ``ev o S -> T``, into ``T o S``; (4) a
    regroup into ``B o T`` whose inner 2-cell is the map ``Ev_A o S -> T``
    composed of a regroup through ``ev o`` the interchange ``A~ o S -> S o
    A~``, an ungroup through the collapse into ``T o A~``, and a regroup
    into ``T`` whose inner 2-cell is a regroup through ``ev o`` the
    multiplication of ``A~``; (5) an ungroup through ``B``'s multiplication,
    into ``T``, on the classes (4) reaches, as ``B o B`` is built only up to
    ``B``'s arity bound.  Each unitor is a unit step or an insertion inside
    the map that reads it: the split in (2) and the multiplication of ``A~``
    read ``Id_X o Id_X`` and ``Id_Z o Id_Z`` by a left unit step, and the
    interchange puts the label of ``E`` or ``A`` that a raw of ``Id_Z o E``
    or ``A o Id_X`` names over identities or under one.  The unit ``ev ->
    T`` puts ev's labels over the units of ``A~``, then under ``B``'s, after
    the inverse of ``transpose(Id_Z) -> ev``, ev's labels over identities,
    collapsed.  No composite is built only to carry a step or a unit law.
    The steps are the plain layer's (:mod:`.symseq`), over this layer's arrows.
    """
    if length_bound < 1 or arity_bound < 1:
        raise InputError("window parameters must be at least 1")
    if not a.reduced or not b.reduced:
        raise InputError("the exponential pipeline requires reduced operads")
    if b.arity_bound > arity_bound:
        # E has cells up to B's arity, above the window its unit laws are read to
        raise InputError(
            f"arity window {arity_bound} is below the outer operad's arity bound {b.arity_bound}"
        )
    acat = cat_from_symseq(a.carrier)
    bcat = cat_from_symseq(b.carrier)
    x, y = acat.dom, bcat.dom
    expz = exp_object(x, y, length_bound)
    evdata = ev_catsym(x, y, expz, length_bound)
    idz = cat_id(expz)
    idx = cat_id(x)
    w_gpd = evdata.seq.dom
    capt = arity_bound + length_bound

    def ident(o):  # the identity at a tagged letter, untagged, as Id_Z and Id_X hold it
        return w_gpd.ident[o][1]

    def eta_atil(o):  # the unit of A~ at a tagged letter
        return ident(o) if o[0] == "l" else a.eta_label(o[1])

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
    split_ss = cat_sum_split(ss, lambda key, raw: ee.class_of(*key, raw), left_unit(idx), sum_ee)
    c2 = cat_compose(evdata.seq, ss.seq, max_arity=capt)
    m2 = hcompose_maps(identity_map(evdata.seq), map_inverse(_on_window(split_ss)), c1, c2)
    evs = cat_compose(evdata.seq, s_e, max_arity=capt)
    col_e = collapse_map(e, x, y, expz, evdata, evs, tc.seq)
    c4 = cat_compose(tc.seq, s_e, max_arity=capt)

    # the interchange (Id u A) o (E u Id) -> (E u Id) o (Id u A): the label of
    # E or A that a raw names, put over identities or under one
    atil_s = cat_compose(atil, s_e, max_arity=capt)
    satil = cat_compose(s_e, atil, max_arity=capt)
    units = {"l": left_unit(e), "r": right_unit(acat)}
    inserts = {"l": right_insert(satil, ident), "r": left_insert(satil, ident)}

    def interchange(key, raw):
        tag = key[1][0]
        return inserts[tag](key, units[tag](*_untag_raw(key, raw)))

    swap = mu_from_raws(atil_s, interchange, satil.seq)

    # mu of (Id u A): a unit step on the left part, operad multiplication on the right
    atil2 = cat_compose(atil, atil, max_arity=capt)
    mu_atil = cat_sum_split(atil2, left_unit(idz), _operad_step(a), atil)

    # the steps inside B o -, composed into one map Ev_A o S -> T (step 4)
    evas = cat_compose(ev_a.seq, s_e, max_arity=capt)
    ev_satil = cat_compose(evdata.seq, satil.seq, max_arity=capt)
    t_atil = cat_compose(tc.seq, atil, max_arity=capt)
    eva_atil = cat_compose(ev_a.seq, atil, max_arity=capt)
    ev_mu = mu_from_raws(eva_atil, regroup(ev_a, atil2, identity_map(evdata.seq), mu_atil, ev_a), ev_a.seq)
    inner = [
        mu_from_raws(evas, regroup(ev_a, atil_s, identity_map(evdata.seq), swap, ev_satil), ev_satil.seq),
        mu_from_raws(ev_satil, ungroup(evs, satil, col_e, t_atil), t_atil.seq),
        mu_from_raws(t_atil, regroup(tc, eva_atil, identity_map(bcat), ev_mu, tc), tc.seq),
    ]
    b_t = cat_compose(bcat, tc.seq, max_arity=capt)
    b2 = cat_compose(bcat, bcat, max_arity=b.arity_bound)
    chain = [
        m1, m2,
        mu_from_raws(c2, ungroup(evs, ss, col_e, c4), c4.seq),
        mu_from_raws(c4, regroup(tc, evas, identity_map(bcat), _chain(inner), b_t), b_t.seq),
    ]
    mu_on_t = _then(_chain(chain), b_t, ungroup(b2, tc, mu_from_raws(b2, _operad_step(b), bcat), tc), tc.seq)

    mu_e = _untranspose_map(mu_on_t, ee.seq, e, x)

    # --- unit ---------------------------------------------------------------
    # transpose(Id_Z) -> ev is the inverse of ev's labels over identities,
    # collapsed; then ev -> T puts them over the units of A~ and under B's
    c_id = cat_compose(evdata.seq, cat_sum(idz, idx), max_arity=capt)
    col_id = collapse_map(idz, x, y, expz, evdata, c_id, transpose(idz, x, y))
    r1 = _chain([labelwise(evdata.seq, right_insert(c_id, ident), c_id.seq, capt), col_id])
    eta_on_t = _chain([
        map_inverse(r1),
        labelwise(evdata.seq, right_insert(ev_a, eta_atil), ev_a.seq, capt),
        labelwise(ev_a.seq, left_insert(tc, b.eta_label), tc.seq, capt),
    ])
    eta_e = _untranspose_map(eta_on_t, idz, e, x)

    hm = HomMonad(x, y, expz, e, mu_e, eta_e, ee, evdata)
    check_cat_monad(hm, arity_bound)
    return hm


def _operad_step(op: Operad) -> Callable:
    """``step(key, raw)``: the multiplication of ``op`` at a raw of its embedded ``op o op``, any raw."""

    def step(key, raw):
        mid, g, blocks, fs, arr = raw
        return op.mu.at(*key, op.comp2.class_of(*key, (mid, g, blocks, fs, arr[0])))

    return step


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
            back = expz.inv[c]
            m = {lab: dst.cod_at((zw, obj0), back, m[src.cod_at((zw, obj), c, lab)]) for lab in labels}
        comp[(zw, obj)] = dict(m)
    return SymSeqMap(src, dst, comp)


def check_cat_monad(hm: HomMonad, cap: int) -> None:
    """Associativity and both unit laws of ``hm`` up to arity ``cap``, then that ``eta`` and ``mu`` validate.

    Each unit law is read per label ``l`` of ``E`` up to ``cap``: ``mu`` of
    the class of ``E o E`` that puts ``l`` under ``eta``'s unit, or over its
    units (``symseq.left_insert``, ``symseq.right_insert``), is ``l``.
    Neither ``Id_Z o E`` nor ``E o Id_Z`` is built.  The laws read ``eta``
    at identities only and ``mu`` at the classes they reach, so a map that
    is not natural along every arrow can pass them; ``SymSeqMap.validate``
    refuses it.
    """
    e, mu, eta, ee = hm.e, hm.mu, hm.eta, hm.ee
    eee_l = cat_compose(ee.seq, e, max_arity=cap)
    require_equal(
        "hom monad associativity",
        compose_maps(mu, hcompose_maps(mu, identity_map(e), eee_l, ee)),
        compose_maps(mu, mu_from_raws(eee_l, regroup(ee, ee, identity_map(e), mu, ee), ee.seq)),
    )
    unit = {z: eta.at((z,), z, i) for z, i in hm.expz.ident.items()}.__getitem__  # eta at each identity
    for law, insert in (("left", left_insert), ("right", right_insert)):
        unit_law = compose_maps(mu, labelwise(e, insert(ee, unit), ee.seq, cap))
        require_equal(f"hom monad {law} unit law", unit_law, identity_map(e))
    eta.validate()
    mu.validate()


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
            gen_maps[i] = {lab: e.dom_at((w, obj), w, arrow, lab) for lab in labels}
        cells[(w, obj)] = YoungSet(w, labels, gen_maps)
    sorts = ssorted(expz.objects)
    carrier = SymSeq(sorts, sorts, cells)

    def mu_fn(key, raw):
        mid, g, blocks, fs, sig = raw
        arr = sw_perm_arrow(expz, tuple(o for b in blocks for o in b), Perm(sig))
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
