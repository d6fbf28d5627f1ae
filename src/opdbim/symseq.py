"""Sets, symmetric sequences and their maps: the one-object-per-sort layer.

A symmetric sequence ``F: X -> Y`` is stored as a finite table of cells
``(canonical word over X, output sort in Y) -> YoungSet``.  Absent cells are
empty.  Horizontal composition is computed exactly: raw tuples are
enumerated, the coend relations are generated as edges and the quotient is
taken with union-find.  Every coherence map (associator, unitors) is an
explicit equivariant bijection on class representatives.

``SymSeqMap`` is the one map type of both layers (this one and
:mod:`.catsym`).  Every map is total on the cells it holds: reading a cell or
label it lacks raises ``ValidationError`` naming both, and a map is inverted
only when it is a bijection on every non-empty cell of either end.

Composite raw tuples have the shape ``(mid, g, blocks, fs, sigma)`` where
``mid`` is a canonical word over the middle sorts, ``g`` a label of the outer
cell at ``(mid, out)``, ``blocks`` canonical words over the inner domain,
``fs`` labels of the inner cells ``(blocks[i], mid[i])`` and ``sigma`` the
image tuple of an arrow ``result_word -> concat(blocks)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .perms import (
    InputError,
    Label,
    Perm,
    QuotientResult,
    ValidationError,
    Word,
    YoungSet,
    act_word,
    block_diag,
    block_offsets,
    block_perm,
    canonical_word,
    compose,
    embed_at,
    equivariant_iso_search,
    is_canonical,
    quotient,
    skey,
    ssorted,
    stab_gens,
    word_arrows,
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
        for (w, y), cell in self.cells.items():
            if not is_canonical(w):
                raise InputError(f"cell word {w} is not canonical")
            if any(s not in dset for s in w) or y not in cset:
                raise InputError(f"cell ({w}, {y!r}) uses unknown sorts")
            if cell.word != w:
                raise InputError(f"cell at {w} carries mismatched word {cell.word}")

    def cell(self, w: Word, y) -> Optional[YoungSet]:
        return self.cells.get((w, y))

    def labels(self, w: Word, y) -> tuple:
        cell = self.cells.get((w, y))
        return cell.labels if cell else ()

    def support(self) -> list:
        return sorted(self.cells, key=lambda k: (len(k[0]), skey(k[0]), skey(k[1])))

    def support_words(self, y) -> list:
        return sorted(
            (w for (w, out) in self.cells if out == y),
            key=lambda w: (len(w), skey(w)),
        )

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

    def relabelled(self, order_key=None) -> "SymSeq":
        """Same sequence with label tuples reordered (tests enumeration independence)."""
        cells = {}
        for key, cell in self.cells.items():
            labels = tuple(sorted(cell.labels, key=order_key or skey))
            cells[key] = YoungSet(cell.word, labels, {i: dict(m) for i, m in cell.gen_maps.items()})
        return SymSeq(self.dom, self.cod, cells)


def id_symseq(sorts: Iterable) -> SymSeq:
    sorts = ssorted(sorts)
    cells = {((x,), x): YoungSet.trivial((x,), (("id", x),)) for x in sorts}
    return SymSeq(sorts, sorts, cells)


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


def compose_maps(second: SymSeqMap, first: SymSeqMap) -> SymSeqMap:
    """``second`` after ``first`` on the cells ``first`` holds; ``second`` must hold every image."""
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
    """

    outer: SymSeq
    inner: SymSeq
    seq: SymSeq
    raws: dict   # (word, out) -> list of raw tuples
    cls: dict    # (word, out) -> {raw: class index}
    reps: dict   # (word, out) -> list of representative raws

    def class_of(self, w: Word, y, raw) -> int:
        """Class of ``raw``; a raw outside the composite is a law failure."""
        try:
            return self.cls[(w, y)][raw]
        except KeyError:
            raise ValidationError(f"composite undefined at cell {(w, y)!r}, raw {raw!r}") from None

    def rep(self, w: Word, y, idx: int):
        return self.reps[(w, y)][idx]


def _raw_edges(outer: SymSeq, inner: SymSeq, key, raws):
    """Coend relation edges among the raw tuples of one result cell."""
    w, z = key
    edges = []
    prepared: dict = {}
    for raw in raws:
        mid, g, blocks, fs, sig = raw
        pkey = (mid, blocks)
        plan = prepared.get(pkey)
        if plan is None:
            lengths = [len(b) for b in blocks]
            offs = block_offsets(lengths)
            total = offs[-1]
            inner_moves = []
            for i, b in enumerate(blocks):
                cell = inner.cell(b, mid[i])
                for t in stab_gens(b):
                    emb = embed_at(total, offs[i], Perm.transposition(len(b), t)).images
                    inner_moves.append((i, cell.gen_maps[t], emb))
            gcell = outer.cell(mid, z)
            mid_moves = []
            for t in stab_gens(mid):
                psi = Perm.transposition(len(mid), t)
                bp = block_perm(lengths, psi).images
                blocks2 = tuple(blocks[psi(i)] for i in range(len(blocks)))
                perm = tuple(psi(i) for i in range(len(blocks)))
                mid_moves.append((gcell.gen_maps[t], blocks2, perm, bp))
            plan = (inner_moves, mid_moves)
            prepared[pkey] = plan
        inner_moves, mid_moves = plan
        for i, gmap, emb in inner_moves:
            fs2 = fs[:i] + (gmap[fs[i]],) + fs[i + 1 :]
            sig2 = tuple(sig[e] for e in emb)
            edges.append((raw, (mid, g, blocks, fs2, sig2)))
        for gmap, blocks2, perm, bp in mid_moves:
            fs2 = tuple(fs[p] for p in perm)
            sig2 = tuple(sig[e] for e in bp)
            edges.append((raw, (mid, gmap[g], blocks2, fs2, sig2)))
    return edges


def compose_symseq(outer: SymSeq, inner: SymSeq, max_arity: Optional[int] = None) -> Composite:
    """Composite ``outer o inner`` with all coends computed by quotienting.

    With no bound the result carries every arity up to
    ``outer.max_arity() * inner.max_arity()``; a bound restricts the result
    words, never individual cells.
    """
    if set(inner.cod) != set(outer.dom):
        raise InputError("composition sort mismatch")
    raws_by_cell: dict = {}
    for (mid, z) in outer.support():
        gcell = outer.cells[(mid, z)]
        if gcell.size == 0:
            continue
        choices = [inner.support_words(y) for y in mid]
        for blocks in itertools.product(*choices):
            total = sum(len(b) for b in blocks)
            if max_arity is not None and total > max_arity:
                continue
            concat = tuple(s for b in blocks for s in b)
            w, _t = canonical_word(concat)
            arrows = word_arrows(w, concat)
            fng = [inner.labels(b, y) for b, y in zip(blocks, mid)]
            for g in gcell.labels:
                for fs in itertools.product(*fng):
                    for sigma in arrows:
                        raws_by_cell.setdefault((w, z), []).append(
                            (mid, g, blocks, fs, sigma.images)
                        )
    cells = {}
    raws_out, cls_out, reps_out = {}, {}, {}
    for key in sorted(raws_by_cell, key=lambda k: (len(k[0]), skey(k[0]), skey(k[1]))):
        raws = raws_by_cell[key]
        q = quotient(raws, _raw_edges(outer, inner, key, raws))
        w, z = key
        n_classes = len(q.classes)
        gen_maps = {}
        for t in stab_gens(w):
            h = Perm.transposition(len(w), t).images
            mapping = {}
            for idx in range(n_classes):
                mid, g, blocks, fs, sig = q.representative[idx]
                sig2 = tuple(h[s] for s in sig)
                mapping[idx] = q.class_index[(mid, g, blocks, fs, sig2)]
            gen_maps[t] = mapping
        cells[key] = YoungSet(w, tuple(range(n_classes)), gen_maps)
        raws_out[key] = raws
        cls_out[key] = q.class_index
        reps_out[key] = list(q.representative)
    seq = SymSeq(inner.dom, outer.cod, cells)
    return Composite(outer, inner, seq, raws_out, cls_out, reps_out)


def hcompose_maps(beta: SymSeqMap, alpha: SymSeqMap, src: Composite, dst: Composite) -> SymSeqMap:
    """Horizontal composite of 2-cells of either layer, acting on class representatives."""
    if alpha.src.dom != src.inner.dom or beta.src.cod != src.outer.cod:
        raise InputError("2-cells do not match the composite they are applied to")
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


def left_unitor_inv(idf: Composite) -> SymSeqMap:
    f = idf.inner
    comp = {}
    for key, cell in f.cells.items():
        w, y = key
        if cell.size == 0:
            continue
        ident = Perm.identity(len(w)).images
        m = {lab: idf.class_of(w, y, ((y,), ("id", y), (w,), (lab,), ident)) for lab in cell.labels}
        comp[key] = m
    return SymSeqMap(f, idf.seq, comp)


def right_unitor_inv(fid: Composite) -> SymSeqMap:
    f = fid.outer
    comp = {}
    for key, cell in f.cells.items():
        w, y = key
        if cell.size == 0:
            continue
        blocks = tuple((x,) for x in w)
        fs = tuple(("id", x) for x in w)
        ident = Perm.identity(len(w)).images
        m = {lab: fid.class_of(w, y, (w, lab, blocks, fs, ident)) for lab in cell.labels}
        comp[key] = m
    return SymSeqMap(f, fid.seq, comp)


def associator(hg: Composite, hg_f: Composite, gf: Composite, h_gf: Composite) -> SymSeqMap:
    """Canonical iso ``(H o G) o F -> H o (G o F)`` by regrouping blocks."""
    comp = {}
    for key, reps in hg_f.reps.items():
        w, t_out = key
        m = {}
        for idx, raw in enumerate(reps):
            mid, q, blocks, fs, sig = raw
            zmid, h, yblocks, gs, tau = hg.rep(mid, t_out, q)
            tau_p = Perm(tau)
            lengths = [len(b) for b in blocks]
            yoffs = block_offsets([len(d) for d in yblocks])
            # group the inner blocks by the outer block structure
            new_blocks, new_fs, kappas = [], [], []
            for j, d in enumerate(yblocks):
                picks = [tau_p(p) for p in range(yoffs[j], yoffs[j + 1])]
                u = tuple(s for i in picks for s in blocks[i])
                e, kappa = canonical_word(u)
                sub_blocks = tuple(blocks[i] for i in picks)
                sub_fs = tuple(fs[i] for i in picks)
                zj = zmid[j]
                gf_raw = (d, gs[j], sub_blocks, sub_fs, kappa.images)
                new_blocks.append(e)
                new_fs.append(gf.class_of(e, zj, gf_raw))
                kappas.append(kappa)
            rearrange = block_perm(lengths, tau_p)
            chi = block_diag([k.inverse() for k in kappas])
            sig2 = compose(compose(Perm(sig), rearrange), chi)
            new_raw = (zmid, h, tuple(new_blocks), tuple(new_fs), sig2.images)
            m[idx] = h_gf.class_of(w, t_out, new_raw)
        comp[key] = m
    return SymSeqMap(hg_f.seq, h_gf.seq, comp)


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


# ---------------------------------------------------------------------------
# coproducts, series, isomorphism
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
        gen_maps = {}
        for i in stab_gens(key[0]):
            m = {}
            for idx in range(len(q.classes)):
                rep = q.representative[idx]
                m[idx] = q.class_index[cell.gen_maps[i][rep]]
            gen_maps[i] = m
        cells[key] = YoungSet(key[0], tuple(range(len(q.classes))), gen_maps)
        proj[key] = {lab: q.class_index[lab] for lab in cell.labels}
    qseq = SymSeq(f1.dom, f1.cod, cells)
    qmap = SymSeqMap(f1, qseq, proj)
    for cell in cells.values():
        cell.validate()
    return qseq, qmap
