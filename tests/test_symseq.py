import random

import pytest

from opdbim.perms import Perm, YoungSet, compose, stab_gens
from opdbim.symseq import (
    Family,
    SymSeq,
    SymSeqMap,
    analytic_compose_iso,
    analytic_eval,
    associator,
    coequalize_maps,
    compose_maps,
    compose_symseq,
    eval_general,
    family_map_image,
    hcompose_maps,
    id_symseq,
    identity_map,
    iso_symseq,
    left_unitor,
    left_unitor_inv,
    map_equal,
    map_inverse,
    right_unitor,
    right_unitor_inv,
    series,
    sum_symseq,
    transport,
)
from opdbim.samples import rand_small_symseq, rand_symseq, reflexive_pair

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
    relabelled = compose_symseq(
        g.relabelled(order_key=lambda v: repr(v)[::-1]),
        f.relabelled(order_key=lambda v: repr(v)[::-1]),
        max_arity=4,
    )
    sizes = sorted((key, cell.size) for key, cell in base.seq.cells.items())
    sizes2 = sorted((key, cell.size) for key, cell in relabelled.seq.cells.items())
    assert sizes == sizes2


def test_unit_laws_and_iso():
    f = single({1: 1, 2: 2})
    idx = id_symseq((STAR,))
    idf = compose_symseq(idx, f)
    lu = left_unitor(idf)
    lu.validate()
    assert lu.is_bijective()
    assert map_equal(compose_maps(lu, left_unitor_inv(idf)), identity_map(f))
    fid = compose_symseq(f, idx)
    ru = right_unitor(fid)
    ru.validate()
    assert ru.is_bijective()
    assert map_equal(compose_maps(ru, right_unitor_inv(fid)), identity_map(f))
    assert iso_symseq(idf.seq, f) is not None
    assert iso_symseq(f, f) is not None


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


# --- composites reused at a lower cap, and the index-pair coend quotient ------

from opdbim.operads import com_operad
from opdbim.perms import block_offsets, block_perm, embed_at, quotient
from opdbim.symseq import composite_of


def _same_composite(a, b):
    assert a.seq.cells == b.seq.cells
    assert list(a.seq.cells) == list(b.seq.cells)
    assert a.raws == b.raws
    assert a.cls == b.cls
    assert a.reps == b.reps


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
            held = compose_symseq(outer, inner, max_arity=c + 1)
            assert held.cap == c + 1
            restricted = composite_of(held, outer, inner, c)
            _same_composite(restricted, compose_symseq(outer, inner, max_arity=c))
            assert restricted.cap == c or restricted is held
            assert all(len(w) <= c for (w, _y) in restricted.seq.cells)
            assert composite_of(held, outer, inner, c + 1) is held


def test_composite_of_builds_afresh_unless_it_holds_the_factors_at_a_cap_that_covers():
    com3 = com_operad(3).carrier
    held = compose_symseq(com3, com3, max_arity=2)
    larger = composite_of(held, com3, com3, 3)
    assert larger is not held and larger.cap == 3
    _same_composite(larger, compose_symseq(com3, com3, max_arity=3))
    twin = SymSeq(com3.dom, com3.cod, dict(com3.cells))  # equal cells, another object
    other = composite_of(held, twin, com3, 2)
    assert other is not held and other.outer is twin
    _same_composite(other, held)
    com2 = com_seq(2)
    capped = compose_symseq(com2, com2, max_arity=3)
    assert composite_of(capped, com2, com2, None).cap is None
    unbounded = compose_symseq(com2, com2)
    _same_composite(composite_of(unbounded, com2, com2, 3), capped)
    assert composite_of(unbounded, com2, com2, 4) is unbounded


def _element_edges(outer, inner, key, raws):
    """The coend relation of one cell as element pairs, along adjacent transpositions."""
    z = key[1]
    edges = []
    for raw in raws:
        mid, g, blocks, fs, sig = raw
        lengths = [len(b) for b in blocks]
        offs = block_offsets(lengths)
        for i, b in enumerate(blocks):
            for t in stab_gens(b):
                move = embed_at(offs[-1], offs[i], Perm.transposition(len(b), t))
                f2 = inner.cell(b, mid[i]).gen_maps[t][fs[i]]
                sig2 = compose(Perm(sig), move).images
                edges.append((raw, (mid, g, blocks, fs[:i] + (f2,) + fs[i + 1 :], sig2)))
        for t in stab_gens(mid):
            psi = Perm.transposition(len(mid), t)
            g2 = outer.cell(mid, z).gen_maps[t][g]
            blocks2 = tuple(blocks[psi(i)] for i in range(len(blocks)))
            fs2 = tuple(fs[psi(i)] for i in range(len(blocks)))
            sig2 = compose(Perm(sig), block_perm(lengths, psi)).images
            edges.append((raw, (mid, g2, blocks2, fs2, sig2)))
    return edges


def _assert_element_quotients(comp):
    for key, raws in comp.raws.items():
        q = quotient(raws, _element_edges(comp.outer, comp.inner, key, raws))
        assert comp.cls[key] == q.class_index, key
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
