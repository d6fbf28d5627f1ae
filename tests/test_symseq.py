import gc
import itertools
import random
from dataclasses import replace

import pytest

from opdbim.perms import Perm, YoungSet, compose, stab_gens
from opdbim.symseq import (
    Family,
    SymSeq,
    SymSeqMap,
    analytic_eval,
    associator,
    coequalize_maps,
    compose_maps,
    compose_symseq,
    hcompose_maps,
    id_symseq,
    identity_map,
    map_equal,
    map_inverse,
    series,
    sum_symseq,
)
from opdbim.samples import rand_small_symseq, rand_symseq, reflexive_pair
from oracles import (
    analytic_compose_iso, eval_general, family_map_image, iso_symseq, left_unitor, relabelled, right_unitor, transport,
    word_arrows,
)

STAR = "*"


def single(sizes, actions=None):
    cells = {}
    for n, k in sizes.items():
        w = (STAR,) * n
        labels = tuple(f"x{n}_{i}" for i in range(k))
        cells[(w, STAR)] = YoungSet.trivial(w, labels)
    return SymSeq((STAR,), (STAR,), cells)


def com_seq(bound):
    cells = {((STAR,) * n, STAR): YoungSet.trivial((STAR,) * n, (0,)) for n in range(1, bound + 1)}
    return SymSeq((STAR,), (STAR,), cells)


def test_id_cells():
    f = id_symseq(("a",))
    assert f.size(("a",), "a") == 1
    assert f.size(("a", "a"), "a") == 0
    assert f.size((), "a") == 0


def test_eval_general():
    f = id_symseq(("a",))
    labels, t = eval_general(f, ("a",), "a")
    assert len(labels) == 1 and t.is_identity()
    assert eval_general(f, ("a", "a"), "a")[0] == ()
    # transport along the identity arrow is the identity function
    g = com_seq(3)
    tr = transport(g, Perm.identity(2), (STAR, STAR), (STAR, STAR), STAR)
    assert tr == {0: 0}


def test_transport_functoriality_sampled():
    rng = random.Random(7)
    f = rand_symseq(rng, sorts=("a", "b"), max_arity=3, max_labels=3, n_cells=3)
    for (w, y), cell in f.cells.items():
        gens = stab_gens(w)
        if not gens:
            continue
        p = Perm.transposition(len(w), gens[0])
        q = Perm.transposition(len(w), gens[-1])
        t_pq = transport(f, compose(p, q), w, w, y)
        t_p = transport(f, p, w, w, y)
        t_q = transport(f, q, w, w, y)
        for lab in cell.labels:
            assert t_pq[lab] == t_p[t_q[lab]]


def test_compose_partition_count():
    com = com_seq(3)
    cc = compose_symseq(com, com, max_arity=4)
    assert cc.seq.size((STAR,) * 3, STAR) == 5
    cc.seq.validate()  # result cells carry well-formed stabilizer actions


def test_compose_series_example():
    f = single({1: 1, 2: 1})
    ff = compose_symseq(f, f)
    assert [ff.seq.size((STAR,) * n, STAR) for n in (1, 2, 3, 4)] == [1, 2, 3, 3]
    rows = series(ff.seq, 4)
    assert [(n, size) for n, size, _o, _c in rows[1:]] == [(1, 1), (2, 2), (3, 3), (4, 3)]


def test_compose_order_independence():
    rng = random.Random(3)
    f = rand_symseq(rng, max_arity=2, max_labels=3, n_cells=2)
    g = rand_symseq(rng, max_arity=2, max_labels=3, n_cells=2)
    base = compose_symseq(g, f, max_arity=4)
    reordered = compose_symseq(
        relabelled(g, order_key=lambda v: repr(v)[::-1]),
        relabelled(f, order_key=lambda v: repr(v)[::-1]),
        max_arity=4,
    )
    sizes = sorted((key, cell.size) for key, cell in base.seq.cells.items())
    sizes2 = sorted((key, cell.size) for key, cell in reordered.seq.cells.items())
    assert sizes == sizes2


def test_unit_laws_and_iso():
    f = single({1: 1, 2: 2})
    idx = id_symseq((STAR,))
    idf = compose_symseq(idx, f)
    lu = left_unitor(idf)
    lu.validate()
    assert lu.is_bijective()
    fid = compose_symseq(f, idx)
    ru = right_unitor(fid)
    ru.validate()
    assert ru.is_bijective()
    assert iso_symseq(idf.seq, f) is not None
    assert iso_symseq(f, f) is not None


def regular_s3():
    """One ternary cell on which the symmetric group acts freely: ``act(x, h) = x o h^-1``."""
    w = (STAR,) * 3
    labels = tuple(itertools.permutations(range(3)))
    gens = {i: {x: compose(Perm(x), Perm.transposition(3, i)).images for x in labels} for i in stab_gens(w)}
    return SymSeq((STAR,), (STAR,), {(w, STAR): YoungSet(w, labels, gens)})


@pytest.mark.parametrize(
    "make_f",
    [
        lambda: single({1: 1, 2: 2}),
        regular_s3,
        lambda: rand_symseq(random.Random(17), sorts=("a", "b"), max_arity=3, max_labels=3, n_cells=4),
    ],
    ids=["trivial-actions", "regular-s3", "two-sorted"],
)
def test_unitors_send_each_unit_raw_to_its_label(make_f):
    # the raw of a label between identities is the label's image under an
    # inverse unitor; each unitor must send its class back to that label
    f = make_f()
    idf = compose_symseq(id_symseq(f.cod), f)
    fid = compose_symseq(f, id_symseq(f.dom))
    lu, ru = left_unitor(idf), right_unitor(fid)
    for (w, y), cell in f.cells.items():
        ident = tuple(range(len(w)))
        units = (tuple((x,) for x in w), tuple(("id", x) for x in w))
        for lab in cell.labels:
            assert lu.at(w, y, idf.class_of(w, y, ((y,), ("id", y), (w,), (lab,), ident))) == lab
            assert ru.at(w, y, fid.class_of(w, y, (w, lab) + units + (ident,))) == lab


def test_iso_rejects_unequal_cells():
    f = single({1: 1, 2: 2})
    g = single({1: 1, 2: 3})
    assert iso_symseq(f, g) is None


def test_hcompose_identities_and_interchange():
    rng = random.Random(11)
    f = rand_symseq(rng, max_arity=2, max_labels=2, n_cells=2)
    g = rand_symseq(rng, max_arity=2, max_labels=2, n_cells=2)
    gf = compose_symseq(g, f, max_arity=4)
    assert map_equal(
        hcompose_maps(identity_map(g), identity_map(f), gf, gf), identity_map(gf.seq)
    )
    # interchange: (b2.b1) * (a2.a1) == (b2*a2).(b1*a1)
    from opdbim.samples import rand_equivariant_endo

    def rand_endo_map(h):
        comp = {key: rand_equivariant_endo(rng, cell) for key, cell in h.cells.items()}
        return SymSeqMap(h, h, comp)

    a1, a2 = rand_endo_map(f), rand_endo_map(f)
    b1, b2 = rand_endo_map(g), rand_endo_map(g)
    lhs = hcompose_maps(compose_maps(b2, b1), compose_maps(a2, a1), gf, gf)
    rhs = compose_maps(hcompose_maps(b2, a2, gf, gf), hcompose_maps(b1, a1, gf, gf))
    lhs.validate()  # well-defined and equivariant on classes
    assert map_equal(lhs, rhs)


def test_associator_on_identities():
    idx = id_symseq((STAR,))
    ii = compose_symseq(idx, idx)
    iii_l = compose_symseq(ii.seq, idx)
    iii_r = compose_symseq(idx, ii.seq)
    a = associator(ii, iii_l, ii, iii_r)
    assert a.is_bijective()
    # on identities every cell is a singleton, so the map is the identity
    for key, m in a.comp.items():
        assert all(k == v for k, v in m.items())


def test_pentagon_and_triangle_random():
    rng = random.Random(23)
    cap = 3
    for _ in range(4):
        seqs = [rand_small_symseq(rng) for _ in range(4)]
        f, g, h, k = seqs
        gf = compose_symseq(g, f, cap)
        hg = compose_symseq(h, g, cap)
        kh = compose_symseq(k, h, cap)
        hg_f = compose_symseq(hg.seq, f, cap)
        h_gf = compose_symseq(h, gf.seq, cap)
        kh_g = compose_symseq(kh.seq, g, cap)
        khg_f = compose_symseq(kh_g.seq, f, cap)
        k_hg = compose_symseq(k, hg.seq, cap)
        k_hg_f = compose_symseq(k_hg.seq, f, cap)
        k__hg_f = compose_symseq(k, hg_f.seq, cap)
        k__h_gf = compose_symseq(k, h_gf.seq, cap)
        kh__gf = compose_symseq(kh.seq, gf.seq, cap)
        m1 = hcompose_maps(associator(kh, kh_g, hg, k_hg), identity_map(f), khg_f, k_hg_f)
        m2 = associator(k_hg, k_hg_f, hg_f, k__hg_f)
        m3 = hcompose_maps(
            identity_map(k), associator(hg, hg_f, gf, h_gf), k__hg_f, k__h_gf
        )
        path1 = compose_maps(m3, compose_maps(m2, m1))
        path2 = compose_maps(
            associator(kh, kh__gf, h_gf, k__h_gf),
            associator(kh_g, khg_f, gf, kh__gf),
        )
        assert map_equal(path1, path2)
        idx = id_symseq((STAR,))
        fid = compose_symseq(f, idx, cap)
        idg = compose_symseq(idx, g, cap)
        fid_g = compose_symseq(fid.seq, g, cap)
        f_idg = compose_symseq(f, idg.seq, cap)
        fg = compose_symseq(f, g, cap)
        tri = associator(fid, fid_g, idg, f_idg)
        lhs = hcompose_maps(right_unitor(fid), identity_map(g), fid_g, fg)
        rhs = compose_maps(hcompose_maps(identity_map(f), left_unitor(idg), f_idg, fg), tri)
        assert map_equal(lhs, rhs)


def test_analytic_identity_and_com():
    idx = id_symseq(("a", "b"))
    t = Family(("a", "b"), {"a": ("u", "v"), "b": ("w",)})
    ev = analytic_eval(idx, t)
    assert len(ev.value.sets["a"]) == 2 and len(ev.value.sets["b"]) == 1
    # the explicit bijection T(x) -> Id(T)(x) given by unary classes
    for x in ("a", "b"):
        images = {ev.class_of(x, (x,), ("id", x), (v,)) for v in t.sets[x]}
        assert images == set(ev.value.sets[x])
    com = com_seq(3)
    t2 = Family((STAR,), {STAR: ("p", "q")})
    ev2 = analytic_eval(com, t2)
    assert ev2.value.total() == 9
    empty = SymSeq((STAR,), (STAR,), {})
    assert analytic_eval(empty, t2).value.total() == 0


def test_analytic_composition_theorem():
    f = single({1: 1, 2: 1})
    ff = compose_symseq(f, f)
    for size, expected in ((1, 5), (2, 20)):
        t = Family((STAR,), {STAR: tuple(range(size))})
        mapping, ev_comp, _ei, ev_out = analytic_compose_iso(ff, t)
        assert ev_comp.value.total() == expected
        assert ev_out.value.total() == expected


def test_analytic_naturality():
    com = com_seq(3)
    t = Family((STAR,), {STAR: ("p", "q")})
    t2 = Family((STAR,), {STAR: ("p",)})
    fam_map = {STAR: {"p": "p", "q": "p"}}
    ev_src = analytic_eval(com, t)
    ev_dst = analytic_eval(com, t2)
    induced = family_map_image(ev_src, ev_dst, fam_map)
    # the square commutes elementwise: raws map consistently with classes
    for y in (STAR,):
        for (w, lab, tvec) in ev_src.raws[y]:
            src_cls = ev_src.class_of(y, w, lab, tvec)
            mapped = tuple(fam_map[s][v] for s, v in zip(w, tvec))
            assert induced[y][src_cls] == ev_dst.class_of(y, w, lab, mapped)


def test_sum_symseq():
    idx = id_symseq(("a",))
    idy = id_symseq(("b",))
    total, tag1, tag2 = sum_symseq(idx, idy)
    both = id_symseq(("a", "b"))
    assert iso_symseq(total, both) is not None
    assert total.size((tag1["a"], tag2["b"]), tag1["a"]) == 0  # mixed word is empty
    empty = SymSeq((), (), {})
    again, t1, _t2 = sum_symseq(idx, empty)
    assert iso_symseq(again, idx) is not None


def test_series_identity():
    rows = series(id_symseq((STAR,)), 3)
    assert rows[1] == (1, 1, 1, 1)
    assert rows[0][1] == 0 and rows[2][1] == 0 and rows[3][1] == 0
    com = com_seq(4)
    for n, size, orbits, coeff in series(com, 4)[1:]:
        assert size == 1 and orbits == 1
        assert coeff.numerator == 1


def test_series_rejects_multisorted():
    from opdbim.perms import InputError

    with pytest.raises(InputError):
        series(id_symseq(("a", "b")), 2)


def test_coequalizer_and_tameness_probe():
    rng = random.Random(5)
    for _ in range(3):
        f1 = rand_symseq(rng, max_arity=2, max_labels=2, n_cells=2)
        f0, alpha, beta, section = reflexive_pair(rng, f1)
        assert map_equal(compose_maps(alpha, section), identity_map(f1))
        assert map_equal(compose_maps(beta, section), identity_map(f1))
        q, qmap = coequalize_maps(alpha, beta)
        h = rand_symseq(rng, max_arity=2, max_labels=2, n_cells=1)
        cap = 4
        h_f0 = compose_symseq(h, f0, cap)
        h_f1 = compose_symseq(h, f1, cap)
        ha = hcompose_maps(identity_map(h), alpha, h_f0, h_f1)
        hb = hcompose_maps(identity_map(h), beta, h_f0, h_f1)
        q2, _ = coequalize_maps(ha, hb)
        hq = compose_symseq(h, q, cap)
        assert iso_symseq(q2, hq.seq) is not None


from hypothesis import given, settings
import hypothesis.strategies as st


@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False))
def test_unit_laws_hold_for_random_sequences(rng):
    f = rand_small_symseq(rng)
    idx = id_symseq((STAR,))
    idf = compose_symseq(idx, f, max_arity=3)
    lu = left_unitor(idf)
    lu.validate()
    assert lu.is_bijective()
    fid = compose_symseq(f, idx, max_arity=3)
    ru = right_unitor(fid)
    ru.validate()
    assert ru.is_bijective()


# --- composites reused at a lower cap, and the coend quotient of every raw ------

import itertools

from opdbim.operads import assoc_operad, com_operad, magma_operad
from opdbim.perms import (
    InputError,
    ValidationError,
    block_offsets,
    block_perm,
    canonical_word,
    embed_at,
    quotient,
)
from opdbim.samples import rand_bimodule, rand_operad, rand_young
from opdbim.bimodules import relative_compose


def _element_edges(outer, inner, key, raws):
    """The coend relation of one cell as element pairs, along adjacent transpositions.

    The moves of each ``(mid, blocks)`` are built once: a transposition inside
    a block (inner variable) and one of the middle word (middle variable).
    """
    z = key[1]
    moves = {}
    edges = []
    for raw in raws:
        mid, g, blocks, fs, sig = raw
        if (mid, blocks) not in moves:
            lengths = [len(b) for b in blocks]
            offs = block_offsets(lengths)
            moves[(mid, blocks)] = (
                [
                    (i, t, embed_at(offs[-1], offs[i], Perm.transposition(len(b), t)).images)
                    for i, b in enumerate(blocks)
                    for t in stab_gens(b)
                ],
                [
                    (t, Perm.transposition(len(mid), t), block_perm(lengths, Perm.transposition(len(mid), t)).images)
                    for t in stab_gens(mid)
                ],
            )
        inner_moves, mid_moves = moves[(mid, blocks)]
        for i, t, move in inner_moves:
            f2 = inner.cell(blocks[i], mid[i]).gen_maps[t][fs[i]]
            sig2 = tuple(sig[p] for p in move)
            edges.append((raw, (mid, g, blocks, fs[:i] + (f2,) + fs[i + 1 :], sig2)))
        for t, psi, move in mid_moves:
            g2 = outer.cell(mid, z).gen_maps[t][g]
            blocks2 = tuple(blocks[psi(i)] for i in range(len(blocks)))
            fs2 = tuple(fs[psi(i)] for i in range(len(blocks)))
            edges.append((raw, (mid, g2, blocks2, fs2, tuple(sig[p] for p in move))))
    return edges


def _oracle(outer, inner, max_arity=None):
    """The plain composite by brute force: ``{cell: (every raw, quotient)}``.

    Every raw ``(mid, g, blocks, fs, sig)`` is enumerated, in the order that
    defines representatives (middle word, block positions in
    ``support_words``, label positions, arrow images), and each cell is
    quotiented by the element pairs of :func:`_element_edges`.
    """
    raws_by_cell = {}
    for (mid, z) in outer.support():
        gcell = outer.cells[(mid, z)]
        for blocks in itertools.product(*(inner.support_words(y) for y in mid)):
            if max_arity is not None and sum(len(b) for b in blocks) > max_arity:
                continue
            fng = [inner.labels(b, y) for b, y in zip(blocks, mid)]
            concat = tuple(s for b in blocks for s in b)
            w, _t = canonical_word(concat)
            raws = [
                (mid, g, blocks, fs, sig.images)
                for g in gcell.labels
                for fs in itertools.product(*fng)
                for sig in word_arrows(w, concat)
            ]
            if raws:
                raws_by_cell.setdefault((w, z), []).extend(raws)
    return {
        key: (raws, quotient(raws, _element_edges(outer, inner, key, raws)))
        for key, raws in raws_by_cell.items()
    }


def _assert_matches_oracle(comp):
    """Same cells, representatives, labels and generator maps as the oracle;
    ``class_of`` agrees with it on every raw."""
    oracle = _oracle(comp.outer, comp.inner, comp.cap)
    assert set(comp.seq.cells) == set(oracle)
    for key, (raws, q) in oracle.items():
        w = key[0]
        assert comp.reps[key] == list(q.representative), key
        cell = comp.seq.cells[key]
        assert cell.labels == tuple(range(len(q.classes))), key
        for t in stab_gens(w):
            h = Perm.transposition(len(w), t).images
            expected = {
                idx: q.class_index[(mid, g, blocks, fs, tuple(h[s] for s in sig))]
                for idx, (mid, g, blocks, fs, sig) in enumerate(q.representative)
            }
            assert cell.gen_maps[t] == expected, (key, t)
        for raw in raws:
            assert comp.class_of(*key, raw) == q.class_index[raw], (key, raw)


def _same_composite(a, b):
    """``a`` and ``b`` have the same cells and representatives, and ``class_of``
    of both gives the oracle's class for every raw of ``b``'s factors."""
    assert a.seq.cells == b.seq.cells
    assert list(a.seq.cells) == list(b.seq.cells)
    assert a.reps == b.reps
    oracle = _oracle(b.outer, b.inner, b.cap)
    assert set(oracle) == set(b.seq.cells)
    for key, (raws, q) in oracle.items():
        for raw in raws:
            assert a.class_of(*key, raw) == b.class_of(*key, raw) == q.class_index[raw], (key, raw)


def _cap_pairs():
    com3 = com_operad(3).carrier
    yield com3, com3, range(0, 5)
    rng = random.Random(7)
    for _ in range(6):
        outer = rand_symseq(rng, max_arity=3, max_labels=2)
        inner = rand_symseq(rng, max_arity=2, max_labels=2)
        yield outer, inner, range(0, 4)


def test_a_lower_cap_is_the_restriction_of_a_higher_one():
    for outer, inner, caps in _cap_pairs():
        for c in caps:
            lower = compose_symseq(outer, inner, max_arity=c)
            higher = compose_symseq(outer, inner, max_arity=c + 1)
            assert (lower.cap, higher.cap) == (c, c + 1)
            keys = [k for k in higher.seq.cells if len(k[0]) <= c]
            assert list(lower.seq.cells) == keys
            assert lower.seq.cells == {k: higher.seq.cells[k] for k in keys}
            assert lower.reps == {k: higher.reps[k] for k in keys}
            for key, (raws, q) in _oracle(outer, inner, c).items():
                for raw in raws:
                    assert lower.class_of(*key, raw) == higher.class_of(*key, raw) == q.class_index[raw]


def _assert_element_quotients(comp):
    for key, (raws, q) in _oracle(comp.outer, comp.inner, comp.cap).items():
        assert all(comp.class_of(*key, raw) == q.class_index[raw] for raw in raws), key
        assert comp.reps[key] == list(q.representative), key
        assert comp.seq.cells[key].labels == tuple(range(len(q.classes))), key


def test_index_pair_quotients_match_the_element_pair_quotient():
    com4 = com_operad(4).carrier
    _assert_element_quotients(compose_symseq(com4, com4, max_arity=4))
    rng = random.Random(11)
    for _ in range(8):
        outer = rand_symseq(rng, max_arity=3, max_labels=3)
        inner = rand_symseq(rng, max_arity=2, max_labels=3)
        _assert_element_quotients(compose_symseq(outer, inner, max_arity=4))


# --- the orbit-minimum kernel against the oracle -------------------------------


@pytest.mark.parametrize(
    "make, n", [(com_operad, 5), (assoc_operad, 4), (magma_operad, 4)], ids=["com5", "assoc4", "magma4"]
)
def test_triple_composites_match_the_oracle(make, n):
    op = make(n)
    a = op.carrier
    _assert_matches_oracle(op.comp2)
    for outer, inner in ((op.comp2.seq, a), (a, op.comp2.seq)):
        for cap in range(1, n + 1):
            _assert_matches_oracle(compose_symseq(outer, inner, max_arity=cap))


def test_two_sorted_random_composites_match_the_oracle():
    rng = random.Random(2024)
    for _ in range(12):
        outer = rand_symseq(rng, sorts=("a", "b"), max_arity=3, max_labels=3, n_cells=3)
        inner = rand_symseq(rng, sorts=("a", "b"), max_arity=2, max_labels=3, n_cells=3)
        _assert_matches_oracle(compose_symseq(outer, inner, max_arity=4))


def _with_nullary(rng, f, sizes):
    """``f`` with a nullary cell of ``sizes[y]`` trivially acted labels at each output ``y``."""
    cells = dict(f.cells)
    for y, k in sizes.items():
        cells[((), y)] = rand_young(rng, (), k)
    return SymSeq(f.dom, f.cod, cells)


def test_composites_with_nullary_cells_match_the_oracle():
    # swapping two empty blocks moves labels but no position of sig, so the
    # action on sig is not free; a nullary outer cell gives an empty raw
    rng = random.Random(5)
    for sorts in (("*",), ("a", "b")):
        for _ in range(5):
            outer = rand_symseq(rng, sorts=sorts, max_arity=3, max_labels=3, n_cells=3)
            inner = rand_symseq(rng, sorts=sorts, max_arity=2, max_labels=2, n_cells=2)
            inner = _with_nullary(rng, inner, {y: rng.randint(1, 3) for y in sorts})
            outer = _with_nullary(rng, outer, {sorts[0]: 1})
            for cap in (1, 3):
                _assert_matches_oracle(compose_symseq(outer, inner, max_arity=cap))


def test_pentagon_bimodule_composites_match_the_oracle():
    rng = random.Random(17)
    window = 2
    for _ in range(3):
        ops = [rand_operad(rng, window) for _ in range(3)]
        m = rand_bimodule(rng, ops[1], ops[0], window)
        n = rand_bimodule(rng, ops[2], ops[1], window)
        nm = relative_compose(n, m).bimodule
        for op in ops:
            _assert_matches_oracle(op.comp2)
        for b in (m, n, nm):
            _assert_matches_oracle(b.bm)
            _assert_matches_oracle(b.ma)


# --- class_of at its edges -----------------------------------------------------


def _class_of_error(comp, w, y, raw):
    with pytest.raises(ValidationError) as err:
        comp.class_of(w, y, raw)
    assert repr((w, y)) in str(err.value) and repr(raw) in str(err.value)


def test_class_of_names_the_cell_and_the_raw_it_refuses():
    com3 = com_operad(3).carrier
    comp = compose_symseq(com3, com3, max_arity=3)
    w, y = (STAR, STAR), STAR
    good = ((STAR, STAR), 0, ((STAR,), (STAR,)), (0, 0), (1, 0))
    assert comp.class_of(w, y, good) == 1  # class 0 is the one of mid (*,)
    # a label outside its cell, outer and inner
    _class_of_error(comp, w, y, ((STAR, STAR), 7, ((STAR,), (STAR,)), (0, 0), (0, 1)))
    _class_of_error(comp, w, y, ((STAR, STAR), 0, ((STAR,), (STAR,)), (0, "x"), (0, 1)))
    # a sig that is not an arrow w -> concat
    for sig in ((0, 0), (0, 1, 2), (0,), (0, 2), ("a", "b"), [1, 0]):
        _class_of_error(comp, w, y, ((STAR, STAR), 0, ((STAR,), (STAR,)), (0, 0), sig))
    # a block outside the inner support, and blocks that do not fit the middle word
    _class_of_error(comp, w, y, ((STAR,), 0, ((STAR, STAR, STAR, STAR),), (0,), (0, 1)))
    _class_of_error(comp, w, y, ((STAR,), 0, ((),), (0,), (0, 1)))
    _class_of_error(comp, w, y, ((STAR, STAR), 0, ((STAR, STAR),), (0,), (0, 1)))
    _class_of_error(comp, w, y, ((STAR,) * 4, 0, ((STAR,),) * 4, (0,) * 4, (0, 1)))
    _class_of_error(comp, w, y, "not a raw")
    # a word above the cap: a raw of com3 o com3 at arity 4, but not of this composite
    w4 = (STAR,) * 4
    raw4 = ((STAR, STAR), 0, ((STAR, STAR), (STAR, STAR)), (0, 0), (0, 1, 2, 3))
    assert raw4 in compose_symseq(com3, com3, max_arity=4).reps[(w4, y)]
    _class_of_error(comp, w4, y, raw4)
    _class_of_error(compose_symseq(com3, com3, max_arity=1), w, y, good)


def test_a_mu_entry_that_is_not_a_raw_is_an_input_error():
    from opdbim.doc import parse_explicit_operad, serialize_operad

    data = serialize_operad(com_operad(2))
    assert parse_explicit_operad(data).comp2.reps
    entry = next(e for e in data["mu"] if len(e["word"]) == 2)
    for field, value in (("outer", 9), ("sigma", [0, 0]), ("blocks", [["*", "*", "*"]])):
        bad = {**data, "mu": [{**entry, "rep": {**entry["rep"], field: value}}]}
        with pytest.raises(InputError, match="is not a raw of cell"):
            parse_explicit_operad(bad)


def test_equal_cells_share_a_plan_but_keep_their_own_labels():
    # True == 1 and False == 0, so these cells are equal and share one plan;
    # each composite still carries the label objects of its own cells
    def seq(unary, binary):
        return SymSeq((STAR,), (STAR,), {
            ((STAR,), STAR): YoungSet.trivial((STAR,), (unary,)),
            ((STAR, STAR), STAR): YoungSet.trivial((STAR, STAR), (binary,)),
        })

    ints, bools = seq(1, 0), seq(True, False)
    assert ints.cells == bools.cells
    a, b = compose_symseq(ints, ints, max_arity=3), compose_symseq(bools, bools, max_arity=3)
    assert a.reps == b.reps
    for comp, kind in ((a, int), (b, bool)):
        for reps in comp.reps.values():
            for _mid, g, _blocks, fs, _sig in reps:
                assert type(g) is kind and all(type(f) is kind for f in fs)
        raw = ((STAR, STAR), kind(0), ((STAR,), (STAR,)), (kind(1), kind(1)), (1, 0))
        assert comp.class_of((STAR, STAR), STAR, raw) == 1


# --- composites shared by content ----------------------------------------------


def _two_cells(unary, binary, sort=STAR):
    return SymSeq((sort,), (sort,), {
        ((sort,), sort): YoungSet.trivial((sort,), (unary,)),
        ((sort, sort), sort): YoungSet.trivial((sort, sort), (binary,)),
    })


def _types(value):
    """The type of ``value`` and, through tuples and frozensets, of each part."""
    if isinstance(value, tuple):
        return type(value), [_types(v) for v in value]
    if isinstance(value, frozenset):
        return type(value), sorted((repr(v), _types(v)) for v in value)
    return type(value)


def test_composites_are_shared_only_by_factors_of_the_same_types():
    # the sequences of each group are equal under ==, yet their labels or sorts differ in type
    kinds = [
        (_two_cells(1, 0), _two_cells(True, False), _two_cells(1.0, 0.0)),
        (_two_cells(frozenset({1}), frozenset({0})), _two_cells(frozenset({True}), frozenset({False}))),
        (_two_cells(frozenset({1, 2.0}), "b"), _two_cells(frozenset({1.0, 2}), "b")),
        (_two_cells((1, "a"), (0, "a")), _two_cells((True, "a"), (False, "a"))),
        (_two_cells("u", "b", sort=1), _two_cells("u", "b", sort=True)),
    ]
    for seqs in kinds:
        assert all(f.cells == seqs[0].cells and f.dom == seqs[0].dom for f in seqs)
        assert len({id(f.content()) for f in seqs}) == len(seqs)
        comps = [compose_symseq(f, f, max_arity=3) for f in seqs]
        assert len({id(c) for c in comps}) == len(comps)
        for f, comp in zip(seqs, comps):
            assert _types(comp.seq.dom) == _types(f.dom)
            for reps in comp.reps.values():
                for mid, g, blocks, fs, _sig in reps:
                    assert _types(g) == _types(f.cells[(mid, mid[0])].labels[0])
                    assert _types(mid) == _types(f.dom[:1] * len(mid))
            twin = SymSeq(f.dom, f.cod, dict(f.cells))
            assert compose_symseq(twin, f, max_arity=3) is comp


def test_a_composite_served_to_twin_factors_matches_the_oracle():
    rng = random.Random(23)
    for _ in range(6):
        outer = rand_symseq(rng, max_arity=3, max_labels=3)
        inner = rand_symseq(rng, max_arity=2, max_labels=3)
        held = compose_symseq(outer, inner, max_arity=4)
        twins = [SymSeq(f.dom, f.cod, dict(f.cells)) for f in (outer, inner)]
        assert twins[0].content() is outer.content() and twins[1].content() is inner.content()
        served = compose_symseq(*twins, max_arity=4)
        assert served is held
        _assert_matches_oracle(replace(served, outer=twins[0], inner=twins[1]))
        assert compose_symseq(*twins, max_arity=2).outer is twins[0]


def _regrouped(h, g, f, cap):
    """``(H o G, (H o G) o F, G o F, H o (G o F))`` at ``cap``."""
    hg, gf = compose_symseq(h, g, max_arity=cap), compose_symseq(g, f, max_arity=cap)
    return hg, compose_symseq(hg.seq, f, max_arity=cap), gf, compose_symseq(h, gf.seq, max_arity=cap)


def test_a_composite_nobody_holds_leaves_the_memo():
    from opdbim import symseq

    f = _two_cells("p", "q")
    comp = compose_symseq(f, f, max_arity=3)
    assert symseq._COMPOSITES[(f.content(), f.content(), 3)] is comp
    quadruple = _regrouped(f, f, f, 3)
    assert quadruple[0] is comp
    associator(*quadruple)  # reads comp and keeps nothing of it
    token = comp.seq.content()
    key = next(k for k, v in symseq._CONTENTS.items() if v is token)
    del comp, quadruple, token
    gc.collect()
    assert not any(k[:2] == (f.content(), f.content()) for k in symseq._COMPOSITES)
    assert key not in symseq._CONTENTS


def test_a_composite_whose_associator_starts_at_itself_is_freed_by_reference_counting():
    import weakref

    # X o X has the content of X, so (X o X) o X, X o (X o X) and X o X are one
    # shared composite, and its associator starts and ends at it
    x = SymSeq((STAR,), (STAR,), {((STAR,), STAR): YoungSet.trivial((STAR,), (0,))})
    gc.collect()
    gc.disable()
    try:
        quadruple = _regrouped(x, x, x, 1)
        assert all(c is quadruple[0] for c in quadruple)
        asc = associator(*quadruple)
        ref = weakref.ref(quadruple[0])
        del quadruple, asc
        assert ref() is None
    finally:
        gc.enable()


def test_the_associator_serves_only_its_own_quadruple():
    from opdbim import symseq

    h = single({1: 1, 2: 2})
    g, f = com_seq(2), com_seq(2)
    hg, hg_f, gf, h_gf = _regrouped(h, g, f, 3)
    first = associator(hg, hg_f, gf, h_gf)
    # H with its labels in the other order: the same regrouping into other classes
    h2 = relabelled(h, order_key=lambda lab: [-ord(c) for c in lab])
    h2_gf = compose_symseq(h2, gf.seq, max_arity=3)
    assert h2_gf is not h_gf
    # the associator ends at H o (G o F) for this very H; H2 is reached by the
    # regroup step whiskered by the relabelling H -> H2
    with pytest.raises(ValidationError, match="does not end at the target's outer factor"):
        associator(hg, hg_f, gf, h2_gf)
    relabel = SymSeqMap(h, h2, {key: {lab: lab for lab in cell.labels} for key, cell in h.cells.items()})
    other = regroup_map(hg, hg_f, gf, relabel, identity_map(gf.seq), h2_gf)
    assert other.dst is h2_gf.seq
    assert other.comp != first.comp
    assert other.is_bijective()
    # regroup plans are shared by value: rebuilt from an empty plan cache, the map is the same
    symseq._regroup_plan.cache_clear()
    assert associator(hg, hg_f, gf, h_gf).comp == first.comp

    def regrouped_map(h):
        hg, hg_f, gf, h_gf = _regrouped(h, g, f, 3)
        return associator(hg, hg_f, gf, h_gf).comp

    # H with labels 1 and True in swapped cells: the second reuses every plan made for the first
    hs = (_two_cells(1, True), _two_cells(True, 1))
    alone = []
    for h in hs:
        symseq._regroup_plan.cache_clear()
        alone.append(regrouped_map(h))
    symseq._regroup_plan.cache_clear()
    assert regrouped_map(hs[0]) == alone[0]
    misses = symseq._regroup_plan.cache_info().misses
    assert regrouped_map(hs[1]) == alone[1]
    assert symseq._regroup_plan.cache_info().misses == misses



# --- the regroup step against the whisker after the associator -----------------

from opdbim.samples import rand_equivariant_endo
from opdbim.symseq import mu_from_raws, regroup, regroup_map, restrict_map, ungroup


def _rand_endo(rng, f):
    """An equivariant endomorphism of ``f``: random on cells of at most three labels, the identity elsewhere."""
    return SymSeqMap(f, f, {
        key: rand_equivariant_endo(rng, cell) if cell.size <= 3 else {lab: lab for lab in cell.labels}
        for key, cell in f.cells.items()
    })


def _assert_fused_steps(h, g, f, cap, whiskers):
    """The regroup step and its inverse equal the whiskers after the associator and its inverse.

    ``whiskers(hg, gf)`` gives ``beta: H -> H'``, ``alpha: G o F -> K`` and
    ``beta_hg: H o G -> H''``.  The steps are compared on every class, and
    on every raw of ``(H o G) o F`` and ``H o (G o F)`` that the
    brute-force oracle lists, representatives or not.
    """
    hg, hg_f, gf, h_gf = _regrouped(h, g, f, cap)
    beta, alpha, beta_hg = whiskers(hg, gf)
    asc = associator(hg, hg_f, gf, h_gf)
    dst = compose_symseq(beta.dst, alpha.dst, max_arity=cap)
    chain = compose_maps(hcompose_maps(beta, alpha, h_gf, dst), asc)
    fused = regroup_map(hg, hg_f, gf, beta, alpha, dst)
    assert (fused.src, fused.dst) == (hg_f.seq, dst.seq)
    assert fused.comp == chain.comp
    step = regroup(hg, gf, beta, alpha, dst)
    for key, (raws, _q) in _oracle(hg.seq, f, cap).items():
        assert all(step(key, raw) == chain.at(*key, hg_f.class_of(*key, raw)) for raw in raws), key
    dst2 = compose_symseq(beta_hg.dst, f, max_arity=cap)
    chain2 = compose_maps(hcompose_maps(beta_hg, identity_map(f), hg_f, dst2), map_inverse(asc))
    back = ungroup(hg, gf, beta_hg, dst2)
    assert mu_from_raws(h_gf, back, dst2.seq).comp == chain2.comp
    for key, (raws, _q) in _oracle(h, gf.seq, cap).items():
        assert all(back(key, raw) == chain2.at(*key, h_gf.class_of(*key, raw)) for raw in raws), key


def _two_sorted_regrouping():
    """``H``, ``G``, ``F`` over sorts ``a < b`` whose regroupings permute letters of both sorts.

    ``H o G`` has the raw with blocks ``(b,)`` and ``(a, a)`` under ``H(a, b)``,
    so the middle word ``(a, a, b)`` is reached from ``(b, a, a)`` by a
    3-cycle, and ``G o F`` puts the blocks ``(b,)`` and ``(a,)`` under
    ``G(a, a)``, whose concatenation is not canonical.
    """
    swap = YoungSet(("a", "a"), (0, 1), {0: {0: 1, 1: 0}})
    h = SymSeq(("a", "b"), ("a", "b"), {(("a", "b"), "a"): YoungSet.trivial(("a", "b"), (0, 1))})
    g = SymSeq(("a", "b"), ("a", "b"), {(("b",), "a"): YoungSet.trivial(("b",), (0, 1)), (("a", "a"), "b"): swap})
    f = SymSeq(("a", "b"), ("a", "b"), {
        (("a",), "a"): YoungSet.trivial(("a",), (0,)),
        (("b",), "a"): YoungSet.trivial(("b",), (0, 1)),
        (("b",), "b"): YoungSet.trivial(("b",), (0,)),
    })
    return h, g, f


def test_the_regroup_step_is_the_whisker_after_the_associator_on_random_triples():
    rng = random.Random(41)
    _assert_fused_steps(*_two_sorted_regrouping(), 4, lambda hg, gf: (
        _rand_endo(rng, hg.outer), _rand_endo(rng, gf.seq), _rand_endo(rng, hg.seq)))
    for sorts in (("*",), ("a", "b")):
        for _ in range(8):
            h, g, f = (rand_symseq(rng, sorts=sorts, max_arity=2, max_labels=2, n_cells=2) for _ in range(3))
            _assert_fused_steps(h, g, f, 3, lambda hg, gf: (
                _rand_endo(rng, hg.outer), _rand_endo(rng, gf.seq), _rand_endo(rng, hg.seq)))


@pytest.mark.parametrize("make", [com_operad, assoc_operad, magma_operad], ids=["com3", "assoc3", "magma3"])
def test_the_regroup_step_is_the_whisker_after_the_associator_on_operads(make):
    op = make(3)
    a = op.carrier
    rng = random.Random(5)
    _assert_fused_steps(a, a, a, 3, lambda hg, gf: (
        identity_map(a), restrict_map(op.mu, gf.seq), restrict_map(op.mu, hg.seq)))
    _assert_fused_steps(a, a, a, 3, lambda hg, gf: (
        _rand_endo(rng, a), _rand_endo(rng, gf.seq), _rand_endo(rng, hg.seq)))


def test_the_regroup_step_is_the_whisker_after_the_associator_on_pentagon_bimodules():
    # the shapes relative_compose and the action laws read: (B o M) o A, (N o B) o M, (B o B) o M
    rng = random.Random(19)
    window = 2
    for _ in range(8):
        ops = [rand_operad(rng, window) for _ in range(3)]
        m = rand_bimodule(rng, ops[1], ops[0], window)
        n = rand_bimodule(rng, ops[2], ops[1], window)
        b, a = ops[1].carrier, ops[0].carrier
        _assert_fused_steps(b, m.carrier, a, window, lambda hg, gf: (
            identity_map(b), restrict_map(m.rho, gf.seq), restrict_map(m.lam, hg.seq)))
        _assert_fused_steps(n.carrier, b, m.carrier, window, lambda hg, gf: (
            identity_map(n.carrier), restrict_map(m.lam, gf.seq), restrict_map(n.rho, hg.seq)))
        _assert_fused_steps(b, b, m.carrier, window, lambda hg, gf: (
            _rand_endo(rng, b), restrict_map(m.lam, gf.seq), restrict_map(ops[1].mu, hg.seq)))


# --- each composition checks its endpoints -------------------------------------


def test_a_plain_composition_whose_ends_differ_names_both_sequences():
    f, g = single({1: 1, 2: 2}), single({1: 1, 2: 3})
    with pytest.raises(ValidationError) as err:
        compose_maps(identity_map(g), identity_map(f))
    assert str(err.value) == (
        "maps do not compose: the first ends where the second does not start: "
        "SymSeq(('*',) -> ('*',); 2 cells: (('*',), '*'): 1, (('*', '*'), '*'): 2) is not "
        "SymSeq(('*',) -> ('*',); 2 cells: (('*',), '*'): 1, (('*', '*'), '*'): 3)"
    )
    # equal content is the same sequence: a twin composes
    twin = SymSeq(f.dom, f.cod, dict(f.cells))
    assert compose_maps(identity_map(twin), identity_map(f)).dst is twin
    ff, gf = compose_symseq(f, f, max_arity=3), compose_symseq(g, f, max_arity=3)
    with pytest.raises(ValidationError, match="^the outer 2-cell does not end at the target's outer factor"):
        hcompose_maps(identity_map(f), identity_map(f), ff, gf)
    with pytest.raises(ValidationError, match="^the inner 2-cell does not start at the inner factor"):
        hcompose_maps(identity_map(f), identity_map(g), ff, ff)
    fff = compose_symseq(ff.seq, f, max_arity=3)
    with pytest.raises(ValidationError, match="^the inner 2-cell does not end at the target's inner factor"):
        regroup(ff, ff, identity_map(f), identity_map(ff.seq), ff)
    with pytest.raises(ValidationError, match="^the outer 2-cell does not start at the outer factor"):
        ungroup(ff, ff, identity_map(fff.seq), ff)
