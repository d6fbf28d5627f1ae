"""Permutations, sort words, Young-subgroup actions and exact finite quotients.

Conventions, fixed once and used by every other module:

* A permutation ``p`` of degree ``n`` is a bijection of positions
  ``{0, ..., n-1}``; ``p(i)`` is ``p.images[i]``.
* ``compose(p, q)`` is the function ``i -> p(q(i))``.
* Words (tuples of sorts) carry a right action: ``act_word(w, p)[i] == w[p(i)]``,
  so ``act_word(act_word(w, p), q) == act_word(w, compose(p, q))``.
* An arrow ``p: v -> w`` between words exists iff ``w == act_word(v, p)``.
  With this convention the arrow ``p: u -> v`` followed by ``q: v -> w``
  (diagram order) is the arrow ``compose(p, q): u -> w``.
* A cell of a symmetric sequence is presented at the canonical (sorted) word
  ``c`` and transports contravariantly: the arrow ``h: c -> c`` acts on labels
  by ``act(label, h)`` with ``act(act(x, g), h) == act(x, compose(h, g))``.

The chosen orientation (arrows relabel positions of the target from positions
of the source) is one of the two possible readings of permutation arrows in a
free symmetric monoidal category; functoriality tests pin it down.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterable, Iterator, Optional

Sort = Hashable
Word = tuple
Label = Hashable


class InputError(ValueError):
    """Malformed or incompatible input data."""


class ValidationError(ValueError):
    """A structural law failed; carries a human-readable witness."""


class BudgetError(RuntimeError):
    """An enumeration exceeded its configured budget."""


def skey(value):
    """Total order key for the heterogeneous hashables used as sorts/labels."""
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, int):
        return (0, value)
    if isinstance(value, str):
        return (1, value)
    if isinstance(value, tuple):
        return (2, tuple(skey(v) for v in value))
    if value is None:
        return (3, 0)
    if isinstance(value, frozenset):
        return (4, tuple(sorted(skey(v) for v in value)))
    return (5, repr(value))


def ssorted(values):
    return tuple(sorted(values, key=skey))


@dataclass(frozen=True)
class Perm:
    """A permutation of ``{0, ..., n-1}`` in one-line notation."""

    images: tuple

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise InputError(f"not a permutation of 0..{n - 1}: {self.images!r}")

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(tuple(range(n)))

    @staticmethod
    def transposition(n: int, i: int) -> "Perm":
        """Adjacent transposition swapping positions i and i+1."""
        im = list(range(n))
        im[i], im[i + 1] = im[i + 1], im[i]
        return Perm(tuple(im))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Perm(tuple(inv))


def compose(p: Perm, q: Perm) -> Perm:
    """Function composition ``i -> p(q(i))``; diagram-order arrow composite."""
    if p.degree != q.degree:
        raise InputError("degree mismatch in compose")
    return Perm(tuple(p.images[j] for j in q.images))


def act_word(w: Word, p: Perm) -> Word:
    if len(w) != p.degree:
        raise InputError("word/permutation degree mismatch")
    return tuple(w[p(i)] for i in range(len(w)))


@lru_cache(maxsize=65536)
def canonical_word(w: Word) -> tuple[Word, Perm]:
    """Stable sort of ``w`` plus the transport ``t`` with ``w[i] == c[t(i)]``.

    The transport is order-preserving within each equal-sort run, so it is
    the unique stable-sort permutation; it is an arrow ``t: c -> w``.
    """
    order = sorted(range(len(w)), key=lambda i: (skey(w[i]), i))
    cw = tuple(w[i] for i in order)
    # position j of cw holds original position order[j]; invert to map w->cw
    t = [0] * len(w)
    for j, i in enumerate(order):
        t[i] = j
    return cw, Perm(tuple(t))


def is_canonical(w: Word) -> bool:
    return all(skey(w[i]) <= skey(w[i + 1]) for i in range(len(w) - 1))


@lru_cache(maxsize=65536)
def stab_gens(w: Word) -> tuple[int, ...]:
    """Adjacent transpositions (i, i+1) generating the Young stabilizer of w."""
    return tuple(i for i in range(len(w) - 1) if w[i] == w[i + 1])


def _partitions(m: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``m`` into parts of size at most ``largest``, parts descending."""
    if m == 0:
        yield ()
        return
    for k in range(min(m, largest), 0, -1):
        for rest in _partitions(m - k, k):
            yield (k,) + rest


def _centralizer_order(parts: tuple[int, ...]) -> int:
    """``z_lambda = prod_k k^(a_k) a_k!``: the centralizer order of cycle type lambda."""
    z = 1
    for k in set(parts):
        a = parts.count(k)
        z *= k**a * math.factorial(a)
    return z


@lru_cache(maxsize=4096)
def young_classes(w: Word) -> tuple[tuple[Perm, int], ...]:
    """Conjugacy classes of the Young stabilizer of ``w`` as ``(representative, size)``.

    The stabilizer is the product of the symmetric groups on the runs of equal
    adjacent sorts (the group ``stab_gens`` generates), so a class is one cycle
    type per run: there are ``prod p(m_i)`` classes for runs of lengths
    ``m_i``.  A representative cycles consecutive positions; the class sizes
    ``prod m_i! / z_lambda_i`` sum to the group order ``prod m_i!``.
    """
    per_run = []
    offset = 0
    for _sort, run in itertools.groupby(w):
        m = len(tuple(run))
        choices = []
        for parts in _partitions(m, m):
            images, start = [], offset
            for k in parts:
                images += [*range(start + 1, start + k), start]
                start += k
            choices.append((images, math.factorial(m) // _centralizer_order(parts)))
        per_run.append(choices)
        offset += m
    out = []
    for combo in itertools.product(*per_run):
        images = tuple(i for run_images, _size in combo for i in run_images)
        out.append((Perm(images), math.prod(size for _images, size in combo)))
    return tuple(out)


def stab_decompose(w: Word, p: Perm) -> list[int]:
    """Write ``p`` in the Young stabilizer of ``w`` as adjacent transpositions.

    Returns positions ``[t1, ..., tk]`` with ``p == t1 o t2 o ... o tk`` under
    ``compose``.  Raises if ``p`` does not stabilize ``w``.
    """
    if act_word(w, p) != w:
        raise InputError(f"{p.images} does not stabilize {w}")
    images = list(p.images)
    recorded = []
    # bubble: right-composing with s_i swaps the values at positions i, i+1
    changed = True
    while changed:
        changed = False
        for i in range(len(images) - 1):
            if images[i] > images[i + 1]:
                if w[i] != w[i + 1]:
                    raise InputError("stabilizer decomposition left its Young block")
                images[i], images[i + 1] = images[i + 1], images[i]
                recorded.append(i)
                changed = True
    # p o (s_{r1} o ... o s_{rk}) == id, hence p == s_{rk} o ... o s_{r1}
    return list(reversed(recorded))


def inverse_images(p: tuple) -> tuple:
    """The inverse of a permutation given as an image tuple."""
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


@lru_cache(maxsize=4096)
def sims_table(gens: tuple, n: int) -> tuple:
    """Stabilizer chain of the group that ``gens`` generate, on the base ``0, 1, ..., n-1``.

    ``gens`` are image tuples of degree ``n``, composed as functions.  Level
    ``i`` lists ``(x, u)``, ascending in ``x``, for every ``x`` in the orbit of
    ``i`` under the pointwise stabilizer of ``0..i-1``; ``u`` lies in that
    stabilizer and ``u[i] == x``.  Every element of the group is exactly one
    product ``u_0∘u_1∘...∘u_(n-1)`` of one entry per level.  The table is
    filled by sifting (Furst, Hopcroft and Luks): each new entry is multiplied
    by every entry, in both orders, and the products sifted in turn, so the
    products of entries form a group when the work list runs dry.
    """
    ident = tuple(range(n))
    levels = [{i: ident} for i in range(n)]
    entries: list = []
    todo = list(gens)
    while todo:
        h = todo.pop()
        for i in range(n):
            u = levels[i].get(h[i])
            if u is None:
                levels[i][h[i]] = h
                entries.append(h)
                todo += [tuple(h[j] for j in e) for e in entries]  # h∘e
                todo += [tuple(e[j] for j in h) for e in entries]  # e∘h
                break
            if u is not ident:
                inv = inverse_images(u)
                h = tuple(inv[v] for v in h)  # u⁻¹∘h fixes 0..i
    return tuple(tuple(sorted(level.items())) for level in levels)


def coset_least(seq: tuple, table: tuple) -> tuple:
    """Least of ``seq∘p`` over the group of ``table`` (see :func:`sims_table`).

    ``seq`` has distinct entries.  Level by level, the entry ``u`` that
    brings the least value to position ``i`` is applied; it fixes the
    positions already chosen.
    """
    for level in table:
        if len(level) > 1:
            _x, u = min(level, key=lambda xu: seq[xu[0]])
            seq = tuple(seq[p] for p in u)
    return seq


def block_offsets(lengths: Iterable[int]) -> list[int]:
    offs = [0]
    for n in lengths:
        offs.append(offs[-1] + n)
    return offs


def block_perm(lengths: list[int], psi: Perm) -> Perm:
    """Arrow ``concat(blocks) -> concat(blocks[psi(0)], blocks[psi(1)], ...)``.

    Moves whole blocks; block j of the target is block psi(j) of the source.
    """
    old = block_offsets(lengths)
    new_lengths = [lengths[psi(j)] for j in range(len(lengths))]
    new = block_offsets(new_lengths)
    total = old[-1]
    im = [0] * total
    for j in range(len(lengths)):
        for t in range(new_lengths[j]):
            im[new[j] + t] = old[psi(j)] + t
    return Perm(tuple(im))


def embed_at(total: int, offset: int, p: Perm) -> Perm:
    """Permutation acting as ``p`` on ``[offset, offset+deg)`` and trivially elsewhere."""
    im = list(range(total))
    for i in range(p.degree):
        im[offset + i] = offset + p(i)
    return Perm(tuple(im))


def _at_position(n: int, label) -> int:
    """The position ``k < n`` with ``k == label``, read like a dict keyed ``0..n-1``; else ``KeyError``.

    ``True`` and ``1.0`` are at position 1, as ``1 == True == 1.0`` in a
    dict, and an unhashable label is a ``TypeError``, as in a dict.
    """
    if type(label) is int:
        if 0 <= label < n:
            return label
    else:
        hash(label)
        if label in range(n):
            return range(n).index(label)
    raise KeyError(label)


class RangeMap(Mapping):
    """A map on the labels ``0..n-1``, held as the tuple of their images; it reads like the dict it replaces."""

    __slots__ = ("images",)

    def __init__(self, images: tuple):
        self.images = images

    def __getitem__(self, label):
        return self.images[_at_position(len(self.images), label)]

    def __iter__(self):
        return iter(range(len(self.images)))

    def __len__(self) -> int:
        return len(self.images)

    def __repr__(self) -> str:
        return repr(dict(enumerate(self.images)))


@dataclass
class YoungSet:
    """One orbit cell: a label set with an action of the stabilizer of ``word``.

    The action is given on the adjacent transpositions that generate the
    Young subgroup and satisfies
    ``act(act(x, g), h) == act(x, compose(h, g))``.  A cell whose labels are
    the ints ``0..n-1`` (every composite and coequalizer cell) keeps no
    label-to-position dict, since a label is its position; its generator
    maps may be :class:`RangeMap` tuples.  ``index`` and ``in`` answer as
    the dict would.
    """

    word: Word
    labels: tuple
    gen_maps: dict  # position i -> {label: label}, or a RangeMap on labels 0..n-1

    def __post_init__(self):
        labels = self.labels
        if all(type(lab) is int and lab == k for k, lab in enumerate(labels)):
            self._index = None
        else:
            self._index = {lab: k for k, lab in enumerate(labels)}
            if len(self._index) != len(labels):
                raise InputError(f"duplicate labels in cell at {self.word}")
        self._hash = None

    def __hash__(self) -> int:
        # by content, like equality: a cell is never changed once built
        if self._hash is None:
            images = tuple(
                tuple(self.gen_maps[i].get(lab) for lab in self.labels) for i in sorted(self.gen_maps)
            )
            self._hash = hash((self.word, self.labels, images))
        return self._hash

    @staticmethod
    def trivial(word: Word, labels: Iterable[Label]) -> "YoungSet":
        labels = tuple(labels)
        ident = {lab: lab for lab in labels}
        return YoungSet(word, labels, {i: dict(ident) for i in stab_gens(word)})

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: Label) -> int:
        if self._index is None:
            return _at_position(len(self.labels), label)
        return self._index[label]

    def __contains__(self, label) -> bool:
        if self._index is None:
            try:
                _at_position(len(self.labels), label)
            except KeyError:
                return False
            return True
        return label in self._index

    def act(self, label: Label, p: Perm) -> Label:
        for t in reversed(stab_decompose(self.word, p)):
            label = self.gen_maps[t][label]
        return label

    def fixed_count(self, p: Perm) -> int:
        """Number of labels that ``p`` (an element of the stabilizer) fixes."""
        path = tuple(reversed(stab_decompose(self.word, p)))
        count = 0
        for lab in self.labels:
            image = lab
            for t in path:
                image = self.gen_maps[t][image]
            count += image == lab
        return count

    def orbits(self) -> tuple[tuple, ...]:
        pairs = []
        for i in stab_gens(self.word):
            for lab in self.labels:
                pairs.append((lab, self.gen_maps[i][lab]))
        return quotient(self.labels, pairs).classes

    def orbit_count(self) -> int:
        return len(self.orbits())

    def validate(self) -> None:
        gens = stab_gens(self.word)
        if set(self.gen_maps) != set(gens):
            raise ValidationError(f"cell at {self.word}: generator set mismatch")
        lset = set(self.labels)
        for i in gens:
            m = self.gen_maps[i]
            if set(m) != lset or set(m.values()) != lset:
                raise ValidationError(f"cell at {self.word}: generator {i} not a bijection")
            for lab in self.labels:
                if m[m[lab]] != lab:
                    raise ValidationError(f"cell at {self.word}: generator {i} not an involution at {lab!r}")
        for i in gens:
            for j in gens:
                if j <= i:
                    continue
                mi, mj = self.gen_maps[i], self.gen_maps[j]
                if j - i >= 2:
                    for lab in self.labels:
                        if mi[mj[lab]] != mj[mi[lab]]:
                            raise ValidationError(
                                f"cell at {self.word}: generators {i},{j} do not commute at {lab!r}"
                            )
                elif j == i + 1 and self.word[i] == self.word[j] == self.word[j + 1]:
                    for lab in self.labels:
                        if mi[mj[mi[lab]]] != mj[mi[mj[lab]]]:
                            raise ValidationError(
                                f"cell at {self.word}: braid relation fails at {i},{j},{lab!r}"
                            )


@dataclass
class QuotientResult:
    """Partition of a finite element list by a generated equivalence."""

    elements: tuple
    classes: tuple          # tuple of tuples, ordered by first-seen representative
    class_index: dict       # element -> index into classes
    representative: tuple   # class index -> representative element


def index_positions(elements: tuple) -> dict:
    """``element -> input index``; a repeated element is an ``InputError``."""
    pos = {e: i for i, e in enumerate(elements)}
    if len(pos) != len(elements):
        raise InputError("duplicate elements in quotient input")
    return pos


def unknown_relation(a, b) -> InputError:
    return InputError(f"relation pair ({a!r}, {b!r}) mentions unknown element")


def index_quotient(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[list, list]:
    """Union-find on ``0..n-1`` along index pairs: ``(class of each index, root of each class)``.

    The root of a class is its minimal index and classes are numbered in
    root order, so the result depends only on the partition the pairs
    generate.  Every parent pointer is at most its index (a merge hangs the
    larger root under the smaller, path halving only shortcuts), so one
    ascending pass resolves every index to its root.
    """
    parent = list(range(n))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    label = [0] * n
    roots: list = []
    for i in range(n):
        p = parent[i]
        if p == i:
            label[i] = len(roots)
            roots.append(i)
        else:
            parent[i] = p = parent[p]
            label[i] = label[p]
    return label, roots


def quotient(elements: Iterable[Hashable], relations: Iterable[tuple]) -> QuotientResult:
    """Quotient by element pairs, over :func:`index_quotient`.

    Representatives are minimal in input order.
    """
    elements = tuple(elements)
    pos = index_positions(elements)

    def pairs():
        for a, b in relations:
            if a not in pos or b not in pos:
                raise unknown_relation(a, b)
            yield pos[a], pos[b]

    label, roots = index_quotient(len(elements), pairs())
    groups: list = [[] for _ in roots]
    for e, k in zip(elements, label):
        groups[k].append(e)
    classes = tuple(tuple(g) for g in groups)
    class_index = {e: k for k, g in enumerate(classes) for e in g}
    representative = tuple(elements[r] for r in roots)
    return QuotientResult(elements, classes, class_index, representative)


def _equivariant_maps(a: YoungSet, b: YoungSet, injective: bool) -> Iterator[dict]:
    """Stabilizer-equivariant maps ``labels(a) -> labels(b)`` (only injective ones if asked), in search order.

    The least unmapped label of ``a`` is tried on each label of ``b`` in
    label order, and each choice is propagated along the generators.
    """
    if a.word != b.word:
        raise InputError(f"word mismatch: {a.word} vs {b.word}")
    gens = stab_gens(a.word)

    def extend(mapping, x, y):
        mapping, queue = {**mapping, x: y}, [x]
        while queue:
            x = queue.pop()
            for i in gens:
                xa, xb = a.gen_maps[i][x], b.gen_maps[i][mapping[x]]
                if xa not in mapping:
                    mapping[xa] = xb
                    queue.append(xa)
                elif mapping[xa] != xb:
                    return None
        if injective and len(set(mapping.values())) != len(mapping):
            return None
        return mapping

    def search(mapping):
        pending = [x for x in a.labels if x not in mapping]
        if not pending:
            yield mapping
            return
        for y in b.labels:
            ext = extend(mapping, pending[0], y)
            if ext is not None:
                yield from search(ext)

    return search({})


def equivariant_iso_search(a: YoungSet, b: YoungSet) -> Optional[dict]:
    """First stabilizer-equivariant bijection ``labels(a) -> labels(b)``, or None (deterministic)."""
    maps = _equivariant_maps(a, b, injective=True)
    return next(maps, None) if a.size == b.size else None


def enumerate_equivariant_maps(a: YoungSet, b: YoungSet) -> list[dict]:
    """All stabilizer-equivariant (not necessarily bijective) maps a -> b."""
    return list(_equivariant_maps(a, b, injective=False))


@dataclass
class FinGroupoid:
    """A finite groupoid with explicit composition, identity and inverse tables.

    ``hom[(a, b)]`` lists the arrows from a to b; ``comp[(g, f)]`` is the
    diagram-order composite of ``f: a -> b`` followed by ``g: b -> c``.
    """

    objects: tuple
    hom: dict            # (a, b) -> tuple of arrow ids
    comp: dict           # (g, f) -> arrow id
    ident: dict          # object -> arrow id
    inv: dict            # arrow id -> arrow id

    def __post_init__(self):
        self.src = {}
        self.dst = {}
        for (a, b), arrows in self.hom.items():
            for f in arrows:
                self.src[f] = a
                self.dst[f] = b
        self._obj_index = {o: i for i, o in enumerate(self.objects)}
        # word-level data read off this groupoid alone, filled by catsym,
        # and its unions with other groupoids (disjoint_union):
        # kind -> {key: value}; no value holds the groupoid, and it is not
        # a field, so it takes no part in equality
        self.memo: defaultdict = defaultdict(dict)

    @staticmethod
    def discrete(objects: Iterable) -> "FinGroupoid":
        objects = tuple(objects)
        hom = {(o, o): (("id", o),) for o in objects}
        ident = {o: ("id", o) for o in objects}
        comp = {(("id", o), ("id", o)): ("id", o) for o in objects}
        inv = {("id", o): ("id", o) for o in objects}
        return FinGroupoid(objects, hom, comp, ident, inv)

    def obj_index(self, o) -> int:
        return self._obj_index[o]

    def arrows(self, a, b) -> tuple:
        return self.hom.get((a, b), ())

    def compose(self, g, f):
        """Composite of ``f`` followed by ``g``."""
        return self.comp[(g, f)]

    def validate(self) -> None:
        for (a, b), arrows in self.hom.items():
            if a not in self._obj_index or b not in self._obj_index:
                raise ValidationError("hom mentions unknown object")
            for f in arrows:
                if self.inv[f] not in self.arrows(b, a):
                    raise ValidationError(f"inverse of {f!r} missing or mistyped")
                if self.comp[(self.inv[f], f)] != self.ident[a]:
                    raise ValidationError(f"{f!r}: left inverse law fails")
                if self.comp[(f, self.inv[f])] != self.ident[b]:
                    raise ValidationError(f"{f!r}: right inverse law fails")
                if self.comp[(f, self.ident[a])] != f or self.comp[(self.ident[b], f)] != f:
                    raise ValidationError(f"{f!r}: unit law fails")
        for (a, b) in self.hom:
            for (b2, c) in self.hom:
                if b2 != b:
                    continue
                for f in self.arrows(a, b):
                    for g in self.arrows(b, c):
                        h = self.comp[(g, f)]
                        if h not in self.arrows(a, c):
                            raise ValidationError("composition lands outside its hom")
                        for (c2, d) in self.hom:
                            if c2 != c:
                                continue
                            for k in self.arrows(c, d):
                                if self.comp[(k, h)] != self.comp[(self.comp[(k, g)], f)]:
                                    raise ValidationError("associativity fails")


def disjoint_union(x: FinGroupoid, y: FinGroupoid) -> FinGroupoid:
    """Coproduct groupoid with objects tagged ('l', _) and ('r', _).

    The union of two instances is built once and kept in ``x.memo``, keyed by
    ``id(y)`` and holding ``y``, so the id is not reused while the entry
    lives, and every composite over ``x u y`` shares one memo of plans.  A
    union of a groupoid with itself is built afresh: kept in its own memo it
    would make a cycle that only the cyclic collector frees.
    """
    kept = x.memo["disjoint_union"].get(id(y))
    if kept is not None:
        return kept[1]

    def tag_obj(t, o):
        return (t, o)

    def tag_arr(t, f):
        return (t, f)

    objects = tuple(tag_obj("l", o) for o in x.objects) + tuple(
        tag_obj("r", o) for o in y.objects
    )
    hom = {}
    comp = {}
    ident = {}
    inv = {}
    for t, g in (("l", x), ("r", y)):
        for (a, b), arrows in g.hom.items():
            hom[(tag_obj(t, a), tag_obj(t, b))] = tuple(tag_arr(t, f) for f in arrows)
        for (gg, ff), hh in g.comp.items():
            comp[(tag_arr(t, gg), tag_arr(t, ff))] = tag_arr(t, hh)
        for o, f in g.ident.items():
            ident[tag_obj(t, o)] = tag_arr(t, f)
        for f, fi in g.inv.items():
            inv[tag_arr(t, f)] = tag_arr(t, fi)
    union = FinGroupoid(objects, hom, comp, ident, inv)
    if x is not y:
        x.memo["disjoint_union"][id(y)] = (y, union)
    return union
