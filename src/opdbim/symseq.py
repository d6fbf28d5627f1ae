"""Sets, symmetric sequences and their maps: the one-object-per-sort layer.

A symmetric sequence ``F: X -> Y`` is stored as a finite table of cells
``(canonical word over X, output sort in Y) -> YoungSet``.  Absent cells are
empty; the support order is computed once, when the sequence is built.
Horizontal composition is computed exactly, one raw tuple per coend class: a
class is an orbit of ``Aut(mid) ⋉ ∏ Aut(block)``, and only its least raw in
the enumeration order is built (sorted blocks, a label pair least in its
orbit, an arrow least under the pair's stabilizer; see
:func:`compose_symseq`).  ``Composite.class_of`` carries any other raw to
that least raw before it looks it up.  The unitors are explicit equivariant
bijections on class representatives.  The associator is applied as one
regroup step (:func:`regroup`, inverse :func:`ungroup`) inside the map that
reads it, which whiskers each regrouped raw where it lands, so no map of
this layer builds the second bracketing; :func:`associator` is the step's
identity-whisker case, kept for the coherence checks.  A composite records
the cap it was built with, and each cap gets its own composite.

A plain composite is a value, shared by content (hash-consing): while anyone
holds it, :func:`compose_symseq` returns it for every pair of factors with
the same cells, type for type (``SymSeq.content``), and the same cap.  So its
``outer`` and ``inner`` may be twins of a caller's factors.  A composite
holds nothing per raw beyond its representatives, and its cells, labelled
``0..n-1``, keep their generator maps as tuples (``perms.RangeMap``).

``SymSeqMap`` is the one map type of both layers (this one and
:mod:`.catsym`).  Every map is total on the cells it holds: reading a cell or
label it lacks raises ``ValidationError`` naming both, and a map is inverted
only when it is a bijection on every non-empty cell of either end.  Each
composition checks by content token that its maps meet where both ends are
plain sequences (``CatSymSeq`` has no token yet).

Composite raw tuples have the shape ``(mid, g, blocks, fs, sigma)`` where
``mid`` is a canonical word over the middle sorts, ``g`` a label of the outer
cell at ``(mid, out)``, ``blocks`` canonical words over the inner domain,
``fs`` labels of the inner cells ``(blocks[i], mid[i])`` and ``sigma`` the
image tuple of an arrow ``result_word -> concat(blocks)``.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, Iterable, Optional

from .perms import (
    InputError,
    Label,
    Perm,
    RangeMap,
    ValidationError,
    Word,
    YoungSet,
    block_offsets,
    block_perm,
    canonical_word,
    coset_least,
    embed_at,
    inverse_images,
    quotient,
    sims_table,
    skey,
    ssorted,
    stab_gens,
)


@dataclass
class SymSeq:
    dom: tuple
    cod: tuple
    cells: dict  # (word, out) -> YoungSet

    def __post_init__(self):
        self.dom = ssorted(self.dom)
        self.cod = ssorted(self.cod)
        dset, cset = set(self.dom), set(self.cod)
        order_keys = []
        for (w, y), cell in self.cells.items():
            letters = tuple(map(skey, w))
            if list(letters) != sorted(letters):
                raise InputError(f"cell word {w} is not canonical")
            if not dset.issuperset(w) or y not in cset:
                raise InputError(f"cell ({w}, {y!r}) uses unknown sorts")
            if cell.word != w:
                raise InputError(f"cell at {w} carries mismatched word {cell.word}")
            order_keys.append((len(w), letters, skey(y)))
        # cells are never changed once the sequence is built, so sort them once:
        # by arity, then word, then output
        keys = list(self.cells)
        order = sorted(range(len(keys)), key=order_keys.__getitem__)
        self._support = tuple(keys[i] for i in order)
        words: dict = {}
        for w, y in self._support:
            words.setdefault(y, []).append(w)
        self._support_words = {y: tuple(ws) for y, ws in words.items()}
        self._content = None

    def content(self) -> "_Content":
        """The interned token of the cells: one object per content, type for type.

        Its key holds the sorts, and per cell in support order its word,
        output, labels and the generator images as label positions.  Sorts,
        words and labels come with their types (:func:`_types`): ``1 == True
        == 1.0``, yet a composite built on ``bool`` labels must not serve
        ``int`` ones.  ``_CONTENTS`` keeps one token per key while anything
        holds it, so two sequences have the same content iff their tokens are
        the same object, and a token hashes in O(1).
        """
        if self._content is None:
            cells = []
            for key in self._support:
                cell = self.cells[key]
                images = tuple(
                    (i, tuple(_position(cell, m.get(lab)) for lab in cell.labels))
                    for i, m in sorted(cell.gen_maps.items())
                )
                cells.append((key, _types(key), cell.labels, tuple(map(_types, cell.labels)), images))
            key = (self.dom, self.cod, _types(self.dom), _types(self.cod), tuple(cells))
            token = _CONTENTS.get(key)
            if token is None:
                token = _CONTENTS[key] = _Content()
            self._content = token
        return self._content

    def cell(self, w: Word, y) -> Optional[YoungSet]:
        return self.cells.get((w, y))

    def labels(self, w: Word, y) -> tuple:
        cell = self.cells.get((w, y))
        return cell.labels if cell else ()

    def support(self) -> tuple:
        return self._support

    def support_words(self, y) -> tuple:
        """Words of the cells at output ``y``, by arity, then word."""
        return self._support_words.get(y, ())

    def max_arity(self) -> int:
        return max((len(w) for (w, _y) in self.cells), default=0)

    def size(self, w: Word, y) -> int:
        cell = self.cells.get((w, y))
        return cell.size if cell else 0

    def validate(self) -> None:
        for cell in self.cells.values():
            cell.validate()

    def check_equivariance(self, m: "SymSeqMap") -> None:
        """``ValidationError`` unless ``m``, total on ``self``, commutes with Young generators."""
        for key, cell in self.cells.items():
            if not cell.size:
                continue
            mk, tgt = m.comp[key], m.dst.cells[key]
            for i in stab_gens(key[0]):
                for lab in cell.labels:
                    if mk[cell.gen_maps[i][lab]] != tgt.gen_maps[i][mk[lab]]:
                        raise ValidationError(
                            f"equivariance fails at cell {key}, generator {i}, label {lab!r}"
                        )


class _Content:
    """The token of one content (see :meth:`SymSeq.content`), compared by identity."""

    __slots__ = ("__weakref__",)


# content tokens by content key, while anything holds them
_CONTENTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _types(value):
    """The type of ``value`` and, through tuples and frozensets, of each part.

    Beside the value it tells ``1``, ``True`` and ``1.0`` apart, part by
    part, for the label kinds :func:`perms.skey` orders.  A frozenset has no
    order to line its parts' types up with, so each part comes paired with
    its own.
    """
    if isinstance(value, tuple):
        return (type(value), tuple(map(_types, value)))
    if isinstance(value, frozenset):
        return (type(value), frozenset((v, _types(v)) for v in value))
    return type(value)


def _position(cell: YoungSet, image):
    """Position of the label ``image`` in ``cell``; anything else, with its types."""
    return cell.index(image) if image in cell else (image, _types(image))


def id_symseq(sorts: Iterable) -> SymSeq:
    sorts = ssorted(sorts)
    cells = {((x,), x): YoungSet.trivial((x,), (("id", x),)) for x in sorts}
    return SymSeq(sorts, sorts, cells)


@dataclass
class SymSeqMap:
    """A map of symmetric sequences of either layer, total on the cells it holds.

    ``src`` and ``dst`` are ``SymSeq`` here and ``CatSymSeq`` in
    :mod:`.catsym`; cells are read through ``labels(w, y)``, which both have.
    Reading a cell or label the map lacks raises ``ValidationError`` naming it.
    """

    src: SymSeq
    dst: SymSeq
    comp: dict  # (word, out) -> {label: label}

    def cell(self, w: Word, y) -> dict:
        try:
            return self.comp[(w, y)]
        except KeyError:
            raise ValidationError(f"map undefined at cell {(w, y)!r}") from None

    def at(self, w: Word, y, label: Label) -> Label:
        try:
            return self.comp[(w, y)][label]
        except KeyError:
            raise _undefined((w, y), label) from None

    def validate(self) -> None:
        """Same sorts at both ends, total and typed on the source, and equivariant."""
        if self.src.dom != self.dst.dom or self.src.cod != self.dst.cod:
            raise ValidationError("map endpoints have different sorts")
        for key in self.src.cells:
            m, tgt = self.comp.get(key, {}), set(self.dst.labels(*key))
            for lab in self.src.labels(*key):
                if lab not in m or m[lab] not in tgt:
                    raise ValidationError(f"map not total/typed at cell {key!r}, label {lab!r}")
        self.src.check_equivariance(self)

    def is_bijective(self) -> bool:
        """True iff every non-empty cell of either end is held, as a bijection."""
        for key in self.src.cells.keys() | self.dst.cells.keys():
            labels, m = self.src.labels(*key), self.comp.get(key, {})
            images = {m[lab] for lab in labels if lab in m}
            if not len(images) == len(labels) == len(self.dst.labels(*key)):
                return False
        return True


def _undefined(key, label) -> ValidationError:
    return ValidationError(f"map undefined at cell {key!r}, label {label!r}")


def identity_map(f: SymSeq) -> SymSeqMap:
    return SymSeqMap(f, f, {key: {lab: lab for lab in f.labels(*key)} for key in f.cells})


def _named(f: SymSeq) -> str:
    """``f`` in a failure message: its sorts and its first cells with their sizes."""
    cells = ", ".join(f"{key!r}: {f.size(*key)}" for key in f.support()[:4])
    return f"SymSeq({f.dom!r} -> {f.cod!r}; {len(f.cells)} cells: {cells})"


def _require_same(what: str, a, b) -> None:
    """``ValidationError`` naming ``a`` and ``b`` if both are plain sequences of other contents."""
    if a is not b and type(a) is SymSeq and type(b) is SymSeq and a.content() is not b.content():
        raise ValidationError(f"{what}: {_named(a)} is not {_named(b)}")


def _require_fit(beta: SymSeqMap, alpha: SymSeqMap, outer, inner, dst_outer, dst_inner) -> None:
    """Each 2-cell of a whisker ``beta o alpha`` starts and ends at the matching factor."""
    _require_same("the outer 2-cell does not start at the outer factor", beta.src, outer)
    _require_same("the outer 2-cell does not end at the target's outer factor", beta.dst, dst_outer)
    _require_same("the inner 2-cell does not start at the inner factor", alpha.src, inner)
    _require_same("the inner 2-cell does not end at the target's inner factor", alpha.dst, dst_inner)


def compose_maps(second: SymSeqMap, first: SymSeqMap) -> SymSeqMap:
    """``second`` after ``first`` on the cells ``first`` holds; ``second`` must start where ``first`` ends and hold every image."""
    _require_same("maps do not compose: the first ends where the second does not start", first.dst, second.src)
    comp = {}
    for key, m in first.comp.items():
        m2 = second.comp.get(key, {})
        try:
            comp[key] = {lab: m2[v] for lab, v in m.items()}
        except KeyError as e:
            raise _undefined(key, e.args[0]) from None
    return SymSeqMap(first.src, second.dst, comp)


class _Undefined:
    def __repr__(self):
        return "<undefined>"


UNDEFINED = _Undefined()  # reported value of a label a map leaves undefined


def _label_differences(a: SymSeqMap, b: SymSeqMap, keys: Iterable):
    """Yield ``(cell, label, a value, b value)`` wherever ``a`` and ``b`` disagree.

    ``keys`` are cells of the common source.  A label that either map leaves
    undefined is a difference, never a match, so two maps that both miss a
    cell are not equal.
    """
    for key in keys:
        ma, mb = a.comp.get(key, {}), b.comp.get(key, {})
        for lab in a.src.labels(*key):
            va, vb = ma.get(lab, UNDEFINED), mb.get(lab, UNDEFINED)
            if va is UNDEFINED or vb is UNDEFINED or va != vb:
                yield key, lab, va, vb


def map_equal(a: SymSeqMap, b: SymSeqMap) -> bool:
    """True iff both maps are defined and agree on every label of the source."""
    return next(_label_differences(a, b, a.src.cells), None) is None


def require_equal(law: str, a: SymSeqMap, b: SymSeqMap) -> None:
    """``ValidationError`` naming ``law``, the first cell and class where ``a`` and ``b`` differ, and both values."""
    if not map_equal(a, b):
        key, lab, va, vb = first_map_difference(a, b)
        raise ValidationError(f"{law} fails at cell {key}, class {lab!r}: {va!r} != {vb!r}")


def restrict_map(m: SymSeqMap, new_src: SymSeq, new_dst: Optional[SymSeq] = None) -> SymSeqMap:
    """Re-key a 2-cell onto a smaller (re-capped) source composite.

    ``m`` must hold every cell of ``new_src``; a missing one is a ``ValidationError``.
    """
    comp = {k: m.cell(*k) for k in new_src.cells}
    return SymSeqMap(new_src, new_dst if new_dst is not None else m.dst, comp)


def map_inverse(m: SymSeqMap) -> SymSeqMap:
    if not m.is_bijective():
        raise ValidationError("cannot invert a non-bijective map")
    return SymSeqMap(m.dst, m.src, {k: {v: l for l, v in c.items()} for k, c in m.comp.items()})


def first_map_difference(a: SymSeqMap, b: SymSeqMap):
    keys = sorted(a.src.cells, key=lambda k: (len(k[0]), skey(k)))
    return next(_label_differences(a, b, keys), None)


# ---------------------------------------------------------------------------
# horizontal composition
# ---------------------------------------------------------------------------


@dataclass
class Composite:
    """Materialized horizontal composite with its class structure.

    Shared by both layers: ``outer``, ``inner`` and ``seq`` are ``SymSeq`` here
    and ``CatSymSeq`` in :mod:`.catsym`, whose raws end in a groupoid arrow.
    ``reps[key]`` lists one representative raw per class of cell ``key``, in
    class order; the representative of a class is its least raw in the
    enumeration order (middle word, block positions in ``support_words``,
    label positions, then the arrow's images here and its index in
    ``sw_arrows`` in :mod:`.catsym`).  ``raws[key]`` are the raws the kernel
    built: in both layers exactly the representatives.  ``cls[key]`` maps
    each representative to its class; here it is filled per cell on the
    first :meth:`class_of` there, so a composite that is only read from
    (the source of a map) keeps none.  :meth:`class_of` carries any other raw
    to its representative through ``canon`` and keeps nothing of it.
    ``canon(w, y, raw)`` returns ``None`` for anything that is not a raw of
    cell ``(w, y)``.

    ``cap`` is the ``max_arity`` it was built with (``None``: no bound).  All
    raws of a cell have total arity ``len(w)`` and each cell is quotiented on
    its own, so the cells with words of length at most ``c`` are exactly the
    composite at any cap ``c`` below ``cap``.

    A plain composite is a value: :func:`compose_symseq` keeps it by the
    content tokens of its factors and its cap, and hands it to every caller
    whose factors have those tokens, for as long as anyone holds it, so
    ``outer`` and ``inner`` may be twins of a caller's factors.  It holds
    no map: a map that reads it through an associator applies the regroup
    step inside itself (:func:`regroup`).
    """

    outer: SymSeq
    inner: SymSeq
    seq: SymSeq
    raws: dict   # (word, out) -> list of the raw tuples built: the representatives
    cls: dict    # (word, out) -> {representative raw: class index}, of the cells read so far
    reps: dict   # (word, out) -> list of representative raws
    canon: Callable = field(repr=False)  # (word, out, raw) -> representative of raw, or None
    cap: Optional[int] = None

    def class_of(self, w: Word, y, raw) -> int:
        """Class of ``raw``; a raw outside the composite is a law failure."""
        table = self.cls.get((w, y))
        if table is None and (w, y) in self.reps:
            table = self.cls[(w, y)] = {rep: idx for idx, rep in enumerate(self.reps[(w, y)])}
        if table is not None:
            try:
                idx = table.get(raw)
                if idx is None:
                    idx = table.get(self.canon(w, y, raw))
            except TypeError:  # a list or other unhashable part: a raw of no cell
                idx = None
            if idx is not None:
                return idx
        raise ValidationError(f"composite undefined at cell {(w, y)!r}, raw {raw!r}")

    def rep(self, w: Word, y, idx: int):
        return self.reps[(w, y)][idx]


def _picker(positions: tuple) -> Callable[[tuple], tuple]:
    """The function ``seq -> tuple(seq[p] for p in positions)``."""
    if len(positions) >= 2:
        return itemgetter(*positions)
    if positions:
        p = positions[0]
        return lambda seq: (seq[p],)
    return lambda seq: ()


@dataclass
class _Shape:
    """The orbit plan of the raws ``(mid, g, blocks, fs, sig)`` of one ``(mid, blocks)``.

    ``blocks`` is sorted within each run of equal letters of ``mid``.  ``H``
    is the group of the elements that keep ``(mid, blocks)``; it acts on a
    label pair ``(g, fs)`` and on the arrow ``sig`` of a raw by ``sig ->
    then(sig, pi)`` for an arrow ``pi: concat -> concat``.  Labels are held
    by their positions in their cells.  The generators of ``H`` are
    ``swaps``, ``(t, g permutation, step)``, which also swap the labels of
    blocks ``t`` and ``t + 1``, and ``moves``, ``(k, g permutation, f
    permutation, step)``, which move the label of block ``k``; ``step(pi)``
    is ``then(pi, pi_gen)`` for the generator's own ``pi_gen``.  Here ``pi``
    is an image tuple; :mod:`.catsym` holds groupoid arrows in its plans.
    ``least`` maps each pair that is least in its
    ``H``-orbit, in enumeration order, to what the layer keeps of its
    stabilizer: the one raw per class is read from it.  ``path``, filled on
    the first :meth:`locate`, sends every pair to its orbit's least pair and
    ``pi`` of an element carrying the least pair to it.
    """

    one: tuple          # pi of the identity element
    then: Callable      # (pi, pi2) -> pi followed by pi2
    inverse: Callable   # pi -> its inverse
    swaps: list
    moves: list
    least: dict
    path: Optional[dict] = None

    def locate(self, x: tuple) -> tuple:
        """``(least pair of the orbit of x, pi of an element carrying it to x)``."""
        if self.path is None:
            self.path = {y: (x0, py) for x0 in self.least for y, py in self.orbit(x0)[0].items()}
        return self.path[x]

    def orbit(self, x: tuple) -> tuple[dict, set]:
        """``{pair: pi}`` over the ``H``-orbit of ``x``, and Schreier generators of ``pi`` on its stabilizer.

        ``pi`` belongs to an element carrying ``x`` to the pair; a second
        path to a pair ``y``, from a pair ``s`` along a generator, gives the
        generator ``then(step(pi_s), inverse(pi_y))``.
        """
        pis = {x: self.one}
        queue = [x]
        schreier = set()
        for xg, xfs in queue:
            px = pis[(xg, xfs)]
            moved = [
                ((gp[xg], xfs[:t] + (xfs[t + 1], xfs[t]) + xfs[t + 2 :]), step) for t, gp, step in self.swaps
            ]
            moved += [((gp[xg], xfs[:k] + (fp[xfs[k]],) + xfs[k + 1 :]), step) for k, gp, fp, step in self.moves]
            for y, step in moved:
                py = step(px)
                old = pis.get(y)
                if old is None:
                    pis[y] = py
                    queue.append(y)
                elif old != py:
                    schreier.add(self.then(py, self.inverse(old)))
        return pis, schreier

    def least_pairs(self, sizes: tuple):
        """``(least pair, Schreier generators of its stabilizer)`` for each orbit, in enumeration order.

        ``sizes`` are the sizes of the outer cell and of each inner cell.
        """
        seen: set = set()
        for x0 in itertools.product(range(sizes[0]), itertools.product(*(range(k) for k in sizes[1:]))):
            if x0 not in seen:
                pis, schreier = self.orbit(x0)
                seen.update(pis)
                yield x0, schreier


def _then_images(p: tuple, q: tuple) -> tuple:
    """The image tuple of ``p`` followed by ``q`` (diagram order)."""
    return tuple(p[i] for i in q)


@lru_cache(maxsize=4096)
def _swap_images(lengths: tuple, t: int) -> tuple:
    """Positions moved by swapping blocks ``t`` and ``t + 1``."""
    return block_perm(list(lengths), Perm.transposition(len(lengths), t)).images


@lru_cache(maxsize=4096)
def _young_images(n: int, offset: int, length: int, t: int) -> tuple:
    """Positions moved by the transposition ``t`` inside the block at ``offset``."""
    return embed_at(n, offset, Perm.transposition(length, t)).images


def _label_perm(cell: YoungSet, t: int) -> tuple:
    """The generator ``t`` of ``cell`` on label positions."""
    return tuple(cell.index(cell.gen_maps[t][lab]) for lab in cell.labels)


# plans by (outer cell, inner cells, mid, blocks); cells hash and compare by
# content, so equal cells of different sequences share one plan, which lives
# as long as a composite that was built from it
_SHAPES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

# composites by (outer content token, inner content token, max_arity), while anyone holds them
_COMPOSITES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _plan_shape(gcell: YoungSet, fcells: tuple, mid: Word, blocks: tuple) -> _Shape:
    """Orbits of label pairs under ``H`` with the chain of each least pair's stabilizer."""
    key = (gcell, fcells, mid, blocks)
    shape = _SHAPES.get(key)
    if shape is not None:
        return shape
    lengths = tuple(len(b) for b in blocks)
    offs = block_offsets(lengths)
    n = offs[-1]
    concat = tuple(s for b in blocks for s in b)
    w = canonical_word(concat)[0]
    swaps = [
        (t, _label_perm(gcell, t), _picker(_swap_images(lengths, t)))
        for t in stab_gens(mid)
        if blocks[t] == blocks[t + 1]
    ]
    fixed = tuple(range(gcell.size))
    moves = [
        (k, fixed, _label_perm(fcells[k], t), _picker(_young_images(n, offs[k], len(b), t)))
        for k, b in enumerate(blocks)
        for t in stab_gens(b)
    ]
    shape = _SHAPES[key] = _Shape(tuple(range(n)), _then_images, inverse_images, swaps, moves, {})
    for x0, schreier in shape.least_pairs((gcell.size,) + tuple(c.size for c in fcells)):
        table = sims_table(tuple(sorted(schreier)), n)
        shape.least[x0] = (table, _least_arrows(w, concat, table))
    return shape


@lru_cache(maxsize=4096)
def _least_arrows(w: Word, concat: Word, table: tuple) -> tuple:
    """Arrows ``w -> concat`` least in their cosets ``sig∘P``, and how ``Aut(w)`` moves them.

    ``P`` is the group of ``table``.  Returns ``(arrows, moves)``: the least
    arrows (image tuples) in increasing order, and for each generator ``t``
    of the stabilizer of ``w`` the pair ``(t, targets)``, where
    ``targets[j]`` is the index of the least arrow in the coset of
    ``h_t∘arrows[j]``.  ``sig`` is least iff ``sig[i] < sig[x]`` for every
    other ``x`` in the orbit of ``i`` at level ``i`` of the chain, so the
    arrows are built position by position under those lower bounds.
    """
    n = len(w)
    below = [[] for _ in range(n)]  # below[x]: positions whose value must be less
    for i, level in enumerate(table):
        for x, _u in level:
            if x != i:
                below[x].append(i)
    slots: dict = {}
    for p, s in enumerate(w):
        slots.setdefault(s, []).append(p)
    choices = [slots[s] for s in concat]
    sig, used, arrows = [0] * n, [False] * n, []

    def fill(i: int) -> None:
        if i == n:
            arrows.append(tuple(sig))
            return
        bound = max((sig[p] for p in below[i]), default=-1)
        for v in choices[i]:
            if v > bound and not used[v]:
                used[v] = True
                sig[i] = v
                fill(i + 1)
                used[v] = False

    fill(0)
    index = {a: j for j, a in enumerate(arrows)}
    moves = []
    for t in stab_gens(w):
        h = Perm.transposition(n, t).images
        moves.append((t, tuple(index[coset_least(tuple(h[s] for s in a), table)] for a in arrows)))
    return tuple(arrows), tuple(moves)


def least_raw(outer: SymSeq, inner: SymSeq, shapes: dict, w: Word, z, raw):
    """The least raw of the orbit of ``raw``, or ``None`` if it is not a raw of ``(w, z)`` at any cap.

    The blocks are sorted within each run of the middle word by swaps of
    adjacent blocks, the label pair is carried to the least pair of its
    ``H``-orbit, and ``sig`` to the least of its coset under that pair's
    stabilizer.  ``shapes`` holds the plans a composite was built from, by
    ``(mid, out, blocks)``; with none, each shape is planned (or read from
    the shared plans) as ``raw`` needs it, and no composite is built.
    """
    if type(raw) is not tuple or len(raw) != 5:
        return None
    mid, g, blocks, fs, sig = raw
    gcell = outer.cells.get((mid, z))
    if gcell is None or g not in gcell or type(blocks) is not tuple or type(fs) is not tuple:
        return None
    if not len(mid) == len(blocks) == len(fs):
        return None
    fcells = []
    for b, y, f in zip(blocks, mid, fs):
        cell = inner.cells.get((b, y))
        if cell is None or f not in cell:
            return None
        fcells.append(cell)
    concat = tuple(s for b in blocks for s in b)
    n = len(w)
    if type(sig) is not tuple or len(sig) != n or len(concat) != n or set(sig) != set(range(n)):
        return None
    if any(w[p] != s for p, s in zip(sig, concat)):
        return None
    ranks = [inner.support_words(y).index(b) for b, y in zip(blocks, mid)]
    blocks, fs, lengths = list(blocks), list(fs), [len(b) for b in blocks]
    moved = True
    while moved:
        moved = False
        for t in stab_gens(mid):
            if ranks[t] > ranks[t + 1]:
                sig = tuple(sig[p] for p in _swap_images(tuple(lengths), t))
                g = gcell.gen_maps[t][g]
                for seq in (ranks, blocks, fs, lengths, fcells):
                    seq[t], seq[t + 1] = seq[t + 1], seq[t]
                moved = True
    blocks = tuple(blocks)
    shape = shapes.get((mid, z, blocks))
    if shape is None:
        shape = _plan_shape(gcell, tuple(fcells), mid, blocks)
    least, pi = shape.locate((gcell.index(g), tuple(map(YoungSet.index, fcells, fs))))
    table, _arrows = shape.least[least]
    sig = coset_least(tuple(sig[p] for p in inverse_images(pi)), table)
    return (mid, gcell.labels[least[0]], blocks, _labels_at(fcells, least[1]), sig)


def _labels_at(cells, positions: tuple) -> tuple:
    return tuple(cell.labels[i] for cell, i in zip(cells, positions))


def _sorted_block_tuples(mid: Word, inner: SymSeq):
    """Block tuples over ``mid`` sorted within each run of equal letters, in product order."""
    if not stab_gens(mid):
        return itertools.product(*(inner.support_words(y) for y in mid))
    runs = [
        itertools.combinations_with_replacement(inner.support_words(y), len(tuple(run)))
        for y, run in itertools.groupby(mid)
    ]
    return (tuple(b for run in combo for b in run) for combo in itertools.product(*runs))


def compose_symseq(outer: SymSeq, inner: SymSeq, max_arity: Optional[int] = None) -> Composite:
    """Composite ``outer o inner``, built from the least raw of each coend class.

    A class is an orbit of ``Aut(mid) ⋉ ∏ Aut(block)`` on the raws.  Its
    least raw has its blocks sorted within each run of equal middle letters,
    a label pair least in its orbit under the group ``H`` of that block
    tuple, and an arrow least in its coset under the pair's stabilizer
    (:class:`_Shape`).  Exactly those raws are built, each shape planned
    once, in enumeration order, so representatives and class numbers are
    those of the union-find over every raw.  With no bound the result
    carries every arity up to ``outer.max_arity() * inner.max_arity()``; a
    bound restricts the result words, never individual cells.

    The composite is a value: while it lives, a call on factors with the
    same content tokens (``SymSeq.content``) and the same bound returns it
    again, so its ``outer`` and ``inner`` may be twins of the caller's
    factors.
    """
    content = (outer.content(), inner.content(), max_arity)
    held = _COMPOSITES.get(content)
    if held is not None:  # its factors have these sorts, and they matched when it was built
        return held
    if set(inner.cod) != set(outer.dom):
        raise InputError("composition sort mismatch")
    built: dict = {}  # (word, out) -> (representatives, {t: targets by index})
    shapes: dict = {}  # (mid, out, blocks) -> plan
    for (mid, z) in outer.support():
        gcell = outer.cells[(mid, z)]
        if gcell.size == 0:
            continue
        for blocks in _sorted_block_tuples(mid, inner):
            if max_arity is not None and sum(len(b) for b in blocks) > max_arity:
                continue
            fcells = tuple(inner.cells[(b, y)] for b, y in zip(blocks, mid))
            if not all(c.size for c in fcells):
                continue
            shape = shapes[(mid, z, blocks)] = _plan_shape(gcell, fcells, mid, blocks)
            w = canonical_word(tuple(s for b in blocks for s in b))[0]
            reps, targets = built.setdefault((w, z), ([], {}))
            for (gi, fis), (_table, (arrows, moves)) in shape.least.items():
                g, fs = gcell.labels[gi], _labels_at(fcells, fis)
                base = len(reps)
                reps += [(mid, g, blocks, fs, sig) for sig in arrows]
                for t, js in moves:
                    targets.setdefault(t, []).extend(base + j for j in js)
    cells, reps_out = {}, {}
    for key in sorted(built, key=lambda k: (len(k[0]), skey(k[0]), skey(k[1]))):
        reps, targets = built[key]
        gen_maps = {t: RangeMap(tuple(targets[t])) for t in stab_gens(key[0])}
        cells[key] = YoungSet(key[0], tuple(range(len(reps))), gen_maps)
        reps_out[key] = reps
    seq = SymSeq(inner.dom, outer.cod, cells)
    canon = partial(least_raw, outer, inner, shapes)
    comp = Composite(outer, inner, seq, reps_out, {}, reps_out, canon, max_arity)
    _COMPOSITES[content] = comp
    return comp


def hcompose_maps(beta: SymSeqMap, alpha: SymSeqMap, src: Composite, dst: Composite) -> SymSeqMap:
    """Horizontal composite of 2-cells of either layer, from ``src``'s factors to ``dst``'s, on class representatives."""
    if alpha.src.dom != src.inner.dom or beta.src.cod != src.outer.cod:
        raise InputError("2-cells do not match the composite they are applied to")
    _require_fit(beta, alpha, src.outer, src.inner, dst.outer, dst.inner)
    comp = {}
    for key, reps in src.reps.items():
        w, z = key
        m = {}
        for idx, raw in enumerate(reps):
            mid, g, blocks, fs, sig = raw
            g2 = beta.at(mid, z, g)
            fs2 = tuple(alpha.at(b, y, f) for b, y, f in zip(blocks, mid, fs))
            m[idx] = dst.class_of(w, z, (mid, g2, blocks, fs2, sig))
        comp[key] = m
    return SymSeqMap(src.seq, dst.seq, comp)


def left_unitor(idf: Composite) -> SymSeqMap:
    """Canonical iso ``Id o F -> F``: collapse the singleton outer label."""
    f = idf.inner
    comp = {}
    for key, reps in idf.reps.items():
        w, y = key
        cell = f.cell(w, y)
        m = {}
        for idx, raw in enumerate(reps):
            _mid, _g, blocks, fs, sig = raw
            m[idx] = cell.act(fs[0], Perm(sig))
        comp[key] = m
    return SymSeqMap(idf.seq, f, comp)


def right_unitor(fid: Composite) -> SymSeqMap:
    """Canonical iso ``F o Id -> F``: strip the identity blocks."""
    f = fid.outer
    comp = {}
    for key, reps in fid.reps.items():
        w, y = key
        cell = f.cell(w, y)
        m = {}
        for idx, raw in enumerate(reps):
            mid, g, _blocks, _fs, sig = raw
            m[idx] = cell.act(g, Perm(sig))
        comp[key] = m
    return SymSeqMap(fid.seq, f, comp)


def mu_from_raws(comp: Composite, fn: Callable, target) -> SymSeqMap:
    """The map ``comp.seq -> target`` given by ``fn(key, raw)`` on class representatives."""
    return SymSeqMap(
        comp.seq,
        target,
        {key: {idx: fn(key, raw) for idx, raw in enumerate(reps)} for key, reps in comp.reps.items()},
    )


def regroup(hg: Composite, gf: Composite, beta: SymSeqMap, alpha: SymSeqMap, dst: Composite) -> Callable:
    """``step(key, raw)``: a raw of ``(H o G) o F`` regrouped, whiskered by ``beta o alpha``, classed in ``dst``.

    ``hg`` is ``H o G``, ``gf`` is ``G o F``, ``beta: H -> H'``, ``alpha: G
    o F -> K`` and ``dst`` is ``H' o K``.  Any raw, not only a
    representative, goes through :func:`_regroup_plan` to its raw of ``H o
    (G o F)``, which is never built.  This is the whisker after the
    associator only if both 2-cells are equivariant (a raw and its
    representative differ by a group element), so both must pass
    ``SymSeqMap.validate`` before a law reads the step.  One ``G o F`` raw
    recurs in the groups of many raws, so the step keeps the class of each
    one it has met; that memo lives as long as the step.
    """
    _require_fit(beta, alpha, hg.outer, gf.seq, dst.outer, dst.inner)
    beta_at, alpha_at = beta.at, alpha.at
    inner: dict = {}  # (cell, G o F raw) -> its class in gf

    def inner_class(e, zj, raw) -> int:
        cls = inner.get((e, zj, raw))
        if cls is None:
            cls = inner[(e, zj, raw)] = gf.class_of(e, zj, raw)
        return cls

    def step(key, raw):
        mid, q, blocks, fs, sig = raw
        zmid, h, new_blocks, groups, move = _regroup_plan(hg.rep(mid, key[1], q), blocks)
        new_fs = tuple(
            alpha_at(e, zj, inner_class(e, zj, (d, gj, sub_blocks, pick(fs), kappa)))
            for e, zj, d, gj, sub_blocks, pick, kappa in groups
        )
        return dst.class_of(*key, (zmid, beta_at(zmid, key[1], h), new_blocks, new_fs, move(sig)))

    return step


def regroup_map(hg: Composite, hg_f: Composite, gf: Composite, beta: SymSeqMap, alpha: SymSeqMap, dst: Composite) -> SymSeqMap:
    """The map ``(H o G) o F -> dst`` of :func:`regroup` on every class of ``hg_f``."""
    return mu_from_raws(hg_f, regroup(hg, gf, beta, alpha, dst), dst.seq)


def associator(hg: Composite, hg_f: Composite, gf: Composite, h_gf: Composite) -> SymSeqMap:
    """Canonical iso ``(H o G) o F -> H o (G o F)``: :func:`regroup_map` with identity whiskers.

    Nothing in this package calls it: each map that reads an associator
    applies the regroup step (or :func:`ungroup`) inside itself instead.
    It serves the coherence checks of the pentagon and triangle, and its
    regroup plans (:func:`_regroup_plan`) are shared by value with every step.
    """
    return regroup_map(hg, hg_f, gf, identity_map(hg.outer), identity_map(gf.seq), h_gf)


def ungroup(hg: Composite, gf: Composite, beta: SymSeqMap, dst: Composite) -> Callable:
    """``step(key, raw)``: a raw of ``H o (G o F)`` taken apart into ``(H o G) o F``, ``beta o F`` applied, classed in ``dst``.

    The inverse of :func:`regroup`, with ``hg`` ``H o G``, ``gf`` ``G o F``,
    ``beta: H o G -> H'`` equivariant and ``dst`` ``H' o F``; ``(H o G) o F``
    is never built.
    """
    _require_same("the outer 2-cell does not start at the outer factor", beta.src, hg.seq)
    _require_same("the outer 2-cell does not end at the target's outer factor", beta.dst, dst.outer)
    _require_same("the inner factor is not the target's inner factor", gf.inner, dst.inner)

    def step(key, raw):
        t = key[1]
        zmid, h, blocks, cs, sig = raw
        reps = tuple(gf.rep(e, z, c) for e, z, c in zip(blocks, zmid, cs))
        mid, yblocks, gs, tau, fblocks, fs, arrow = _ungrouped(reps, sig)
        q = hg.class_of(mid, t, (zmid, h, yblocks, gs, tau))
        return dst.class_of(*key, (mid, beta.at(mid, t, q), fblocks, fs, arrow))

    return step


@lru_cache(maxsize=4096)
def _regroup_plan(hg_raw, blocks: tuple):
    """How :func:`regroup` carries the raws of one shape to ``H o (G o F)``.

    ``hg_raw = (zmid, h, yblocks, gs, tau)`` is the representative of the
    ``H o G`` class.  The inner blocks are grouped by the outer block
    structure: group ``j`` picks the blocks ``tau(p)`` for ``p`` in block
    ``j`` of ``yblocks``, and ``kappa`` sorts their concatenation ``u`` to its
    canonical word ``e``.  Returns ``(zmid, h, new blocks, groups, move)``:
    each group is ``(e, zmid[j], yblocks[j], gs[j], picked blocks, picker of
    the picked labels, kappa)``, and ``move`` reads a raw's arrow ``sig`` at
    the images of ``rearrange o chi`` (the blocks moved into group order,
    then each group sorted by the inverse of its ``kappa``).

    Plans are cached by value, so a plan made for label ``1`` serves
    ``True``: its labels only reach :meth:`Composite.class_of`, which
    compares labels by value too and returns class indices.
    """
    zmid, h, yblocks, gs, tau = hg_raw
    offs = block_offsets([len(b) for b in blocks])
    yoffs = block_offsets([len(d) for d in yblocks])
    groups, new_blocks, combined = [], [], []
    for j, d in enumerate(yblocks):
        picks = tau[yoffs[j] : yoffs[j + 1]]
        u = tuple(s for i in picks for s in blocks[i])
        e, kappa = canonical_word(u)
        sub_blocks = tuple(blocks[i] for i in picks)
        groups.append((e, zmid[j], d, gs[j], sub_blocks, _picker(picks), kappa.images))
        new_blocks.append(e)
        # letter r of u sits at position src[r] of concat(blocks) and at kappa(r) of e
        src = [p for i in picks for p in range(offs[i], offs[i + 1])]
        part = [0] * len(u)
        for r, c in enumerate(kappa.images):
            part[c] = src[r]
        combined += part
    return zmid, h, tuple(new_blocks), tuple(groups), _picker(tuple(combined))


def _ungrouped(reps: tuple, sig: tuple) -> tuple:
    """``(mid, ds, gs, tau, F blocks, F labels, arrow)`` of the ``(H o G) o F`` raw :func:`ungroup` builds.

    ``reps[j] = (d, g, sub_blocks, fs, kappa)`` represents block ``j`` of an
    ``H o (G o F)`` raw with arrow ``sig``.  ``mid`` is the canonical word of
    the concatenated ``d`` and ``tau: mid -> concat(d)``; letter ``i`` of
    that concatenation takes its ``F`` block and label to ``tau(i)``, and
    ``sig`` is read at ``kappa_j`` of block ``j``.
    """
    ds = tuple(rep[0] for rep in reps)
    mid, tau = canonical_word(tuple(s for d in ds for s in d))
    tau = tau.images
    fblocks, fs, arrows = [()] * len(tau), [None] * len(tau), [()] * len(tau)
    i = eoff = 0
    for _d, _g, sub_blocks, labels, kappa in reps:
        subs = block_offsets([len(b) for b in sub_blocks])
        for r, (b, f) in enumerate(zip(sub_blocks, labels)):
            p = tau[i + r]
            fblocks[p], fs[p] = b, f
            arrows[p] = tuple(sig[eoff + kappa[c]] for c in range(subs[r], subs[r + 1]))
        i += len(sub_blocks)
        eoff += len(kappa)
    arrow = tuple(v for part in arrows for v in part)
    return mid, ds, tuple(rep[1] for rep in reps), tau, tuple(fblocks), tuple(fs), arrow


# ---------------------------------------------------------------------------
# analytic evaluation
# ---------------------------------------------------------------------------


@dataclass
class Family:
    sorts: tuple
    sets: dict  # sort -> tuple of elements

    def __post_init__(self):
        self.sorts = ssorted(self.sorts)
        for s in self.sorts:
            self.sets.setdefault(s, ())

    def power(self, w: Word) -> list[tuple]:
        return [tuple(t) for t in itertools.product(*(self.sets[s] for s in w))]

    def size(self, s) -> int:
        return len(self.sets[s])

    def total(self) -> int:
        return sum(len(v) for v in self.sets.values())


@dataclass
class EvalResult:
    """Value of the induced functor on a sorted family, with class provenance."""

    seq: SymSeq
    family: Family
    value: Family          # elements are class indices
    raws: dict             # sort -> list of (word, label, tvec)
    cls: dict              # sort -> {(word, label, tvec): class index}
    reps: dict             # sort -> list of representative raws

    def class_of(self, y, word: Word, label: Label, tvec: tuple) -> int:
        return self.cls[y][(word, label, tvec)]


def analytic_eval(f: SymSeq, t: Family, max_arity: Optional[int] = None) -> EvalResult:
    """Sum the cells against powers of the family, modulo the diagonal action."""
    if set(t.sorts) != set(f.dom):
        raise InputError("family sorts do not match the sequence domain")
    raws: dict = {y: [] for y in f.cod}
    for (w, y) in f.support():
        if max_arity is not None and len(w) > max_arity:
            continue
        cell = f.cells[(w, y)]
        for lab in cell.labels:
            for tvec in t.power(w):
                raws[y].append((w, lab, tvec))
    value_sets, cls, reps = {}, {}, {}
    for y in f.cod:
        edges = []
        for (w, lab, tvec) in raws[y]:
            cell = f.cells[(w, y)]
            for i in stab_gens(w):
                lab2 = cell.gen_maps[i][lab]
                h = Perm.transposition(len(w), i)
                tvec2 = tuple(tvec[h(k)] for k in range(len(w)))
                edges.append(((w, lab2, tvec), (w, lab, tvec2)))
        q = quotient(raws[y], edges)
        value_sets[y] = tuple(range(len(q.classes)))
        cls[y] = q.class_index
        reps[y] = list(q.representative)
    value = Family(f.cod, value_sets)
    return EvalResult(f, t, value, raws, cls, reps)


# ---------------------------------------------------------------------------
# coproducts, series, coequalizers
# ---------------------------------------------------------------------------


def sum_symseq(f1: SymSeq, f2: SymSeq):
    """Coproduct ``F1 u F2`` on tagged sorts; mixed-sort cells are empty.

    Returns ``(sum, tag1, tag2)`` where ``tag1``/``tag2`` rename the original
    sorts into the coproduct (identity when the sort sets are disjoint).
    """
    overlap = (set(f1.dom) | set(f1.cod)) & (set(f2.dom) | set(f2.cod))
    if overlap:
        tag1 = {s: ("l", s) for s in set(f1.dom) | set(f1.cod)}
        tag2 = {s: ("r", s) for s in set(f2.dom) | set(f2.cod)}
    else:
        tag1 = {s: s for s in set(f1.dom) | set(f1.cod)}
        tag2 = {s: s for s in set(f2.dom) | set(f2.cod)}
    dom = tuple(tag1[s] for s in f1.dom) + tuple(tag2[s] for s in f2.dom)
    cod = tuple(tag1[s] for s in f1.cod) + tuple(tag2[s] for s in f2.cod)
    cells = {}
    for (f, tag) in ((f1, tag1), (f2, tag2)):
        for (w, y), cell in f.cells.items():
            w2 = tuple(tag[s] for s in w)
            cw, t = canonical_word(w2)
            if not t.is_identity():
                # tagging preserves relative order inside each summand
                raise InputError("tagging broke canonicality of a cell word")
            cells[(cw, tag[y])] = YoungSet(
                cw, cell.labels, {i: dict(m) for i, m in cell.gen_maps.items()}
            )
    return SymSeq(dom, cod, cells), tag1, tag2


def series(f: SymSeq, bound: int) -> list[tuple]:
    """Rows ``(n, cell size, orbit count, size/n!)`` of a single-sorted sequence."""
    if len(f.dom) != 1 or len(f.cod) != 1 or set(f.dom) != set(f.cod):
        raise InputError("series requires a single-sorted endo sequence")
    x = f.dom[0]
    rows = []
    for n in range(bound + 1):
        w = (x,) * n
        cell = f.cell(w, x)
        size = cell.size if cell else 0
        orbits = cell.orbit_count() if cell else 0
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        rows.append((n, size, orbits, Fraction(size, fact)))
    return rows


def coequalize_maps(alpha: SymSeqMap, beta: SymSeqMap):
    """Cellwise coequalizer of a parallel pair, with the projection map."""
    if alpha.src is not beta.src and alpha.src.cells != beta.src.cells:
        raise InputError("parallel pair required")
    f1 = alpha.dst
    cells, proj = {}, {}
    for key, cell in f1.cells.items():
        edges = []
        src_cell = alpha.src.cell(*key)
        if src_cell is not None:
            for lab in src_cell.labels:
                edges.append((alpha.at(*key, lab), beta.at(*key, lab)))
        q = quotient(cell.labels, edges)
        gen_maps = {
            i: RangeMap(tuple(q.class_index[cell.gen_maps[i][rep]] for rep in q.representative))
            for i in stab_gens(key[0])
        }
        cells[key] = YoungSet(key[0], tuple(range(len(q.classes))), gen_maps)
        proj[key] = {lab: q.class_index[lab] for lab in cell.labels}
    qseq = SymSeq(f1.dom, f1.cod, cells)
    qmap = SymSeqMap(f1, qseq, proj)
    for cell in cells.values():
        cell.validate()
    return qseq, qmap
