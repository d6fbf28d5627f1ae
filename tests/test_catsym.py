import dataclasses
import gc
import hashlib
import itertools
import math
import random
import weakref

import pytest

from opdbim.perms import (
    FinGroupoid, Perm, ValidationError, YoungSet, block_offsets, disjoint_union, quotient, skey,
)
from opdbim.symseq import SymSeq, SymSeqMap, compose_symseq, identity_map
from opdbim.operads import (
    assoc_operad, com_operad, enumerate_algebras, magma_operad, operad_iso, terminal_operad, unit_operad,
)
from opdbim.catsym import (
    CatSymSeq,
    _read_on_demand,
    cat_compose,
    cat_from_symseq,
    cat_id,
    cat_left_unitor,
    cat_right_unitor,
    cat_sum,
    check_cat_monad,
    ev_catsym,
    exp_object,
    exponential_operad,
    hom_monad,
    merge_words,
    operad_of_monad,
    product_operad,
    split_word,
    sw_arrows,
    sw_block_perm,
    sw_canonical,
    sw_compose,
    sw_embed_at,
    sw_id,
    sw_inverse,
    transpose,
    untranspose,
)
from opdbim.samples import rand_symseq
from oracles import cat_iso, product_object

STAR = "*"


def two_object_iso_groupoid():
    objects = ("p", "q")
    hom = {
        ("p", "p"): ("ip",),
        ("q", "q"): ("iq",),
        ("p", "q"): ("f",),
        ("q", "p"): ("g",),
    }
    comp = {
        ("ip", "ip"): "ip",
        ("iq", "iq"): "iq",
        ("f", "ip"): "f",
        ("iq", "f"): "f",
        ("g", "iq"): "g",
        ("ip", "g"): "g",
        ("g", "f"): "ip",
        ("f", "g"): "iq",
    }
    return FinGroupoid(
        objects, hom, comp, {"p": "ip", "q": "iq"}, {"ip": "ip", "iq": "iq", "f": "g", "g": "f"}
    )


def test_sw_arrows_and_composition():
    g = two_object_iso_groupoid()
    arrows = sw_arrows(g, ("p", "q"), ("q", "q"))
    assert len(arrows) == 2  # either letter of the source can map to each q
    a = arrows[0]
    ai = sw_inverse(g, a)
    assert sw_compose(g, a, ai) == sw_id(g, ("p", "q"))


def test_cat_id_two_object_groupoid():
    g = two_object_iso_groupoid()
    ident = cat_id(g)
    ident.validate()
    assert len(ident.labels(("p",), "q")) == 1
    assert len(ident.labels(("p",), "p")) == 1


def test_cat_map_validate_checks_every_transport():
    g = two_object_iso_groupoid()
    ident = cat_id(g)
    identity_map(ident).validate()
    # two copies (arrow, 0) and (arrow, 1) of each label of Id, transported copywise
    cells = {key: tuple((l, c) for c in (0, 1) for l in labs) for key, labs in ident.cells.items()}
    double = CatSymSeq(g, g, cells, {}, {})
    _read_on_demand(
        double,
        lambda key, v, a, lab: (ident.dom_tr[key][(v, a)][lab[0]], lab[1]),
        lambda key, b, lab: (ident.cod_tr[key][b][lab[0]], lab[1]),
    )
    double.validate()
    first = {key: {l: (l, 0) for l in labels} for key, labels in ident.cells.items()}
    SymSeqMap(ident, double, first).validate()
    # one cell into the other copy: its transports to and from the other cells break
    with pytest.raises(ValidationError, match="equivariance fails"):
        SymSeqMap(ident, double, {**first, (("p",), "q"): {"f": ("f", 1)}}).validate()


def test_cat_compose_discrete_specialization():
    rng = random.Random(31)
    f = rand_symseq(rng, sorts=("a", "b"), max_arity=2, max_labels=2, n_cells=2)
    g = rand_symseq(rng, sorts=("a", "b"), max_arity=2, max_labels=2, n_cells=2)
    plain = compose_symseq(g, f, max_arity=3)
    catf, catg = cat_from_symseq(f), cat_from_symseq(g)
    catted = cat_compose(catg, catf, max_arity=3)
    plain_sizes = {k: c.size for k, c in plain.seq.cells.items() if c.size}
    cat_sizes = {k: len(v) for k, v in catted.seq.cells.items() if v}
    assert plain_sizes == cat_sizes


def test_cat_unit_laws():
    g = two_object_iso_groupoid()
    ident = cat_id(g)
    f = cat_id(g)
    idf = cat_compose(ident, f, max_arity=2)
    lu = cat_left_unitor(idf)
    lu.validate()
    assert lu.is_bijective()
    fid = cat_compose(f, ident, max_arity=2)
    ru = cat_right_unitor(fid)
    assert ru.is_bijective()
    assert cat_iso(idf.seq, f) is not None


def test_product_object_is_disjoint_union():
    x = FinGroupoid.discrete(("a",))
    y = FinGroupoid.discrete(())
    p = product_object(x, y)
    assert set(p.objects) == {("l", "a")}
    q = product_object(x, FinGroupoid.discrete(("b",)))
    assert len(q.objects) == 2
    assert sum(len(v) for v in q.hom.values()) == 2  # identities only


def test_exp_object_counts():
    x = FinGroupoid.discrete((STAR,))
    y = FinGroupoid.discrete(("o",))
    z = exp_object(x, y, 3)
    assert len(z.objects) == 4  # word lengths 0..3
    for (w, yo) in z.objects:
        auts = z.arrows((w, yo), (w, yo))
        assert len(auts) == math.factorial(len(w))
    # between same-multiset words of a discrete domain: prod of m_s!
    x2 = FinGroupoid.discrete(("a", "b"))
    z2 = exp_object(x2, y, 2)
    arrows = z2.arrows((("a", "b"), "o"), (("b", "a"), "o"))
    assert len(arrows) == 1
    arrows2 = z2.arrows((("a", "a"), "o"), (("a", "a"), "o"))
    assert len(arrows2) == 2


def test_exp_object_empty_codomain():
    x = FinGroupoid.discrete((STAR,))
    z = exp_object(x, FinGroupoid.discrete(()), 2)
    assert z.objects == ()


def test_merge_split_roundtrip():
    zw = ("z1", "z2")
    xw = ("x1",)
    merged = merge_words(zw, xw)
    z2, x2, p = split_word(merged)
    assert (z2, x2) == (zw, xw)
    interleaved = (("l", "z1"), ("r", "x1"), ("l", "z2"))
    z3, x3, p3 = split_word(interleaved)
    assert z3 == ("z1", "z2") and x3 == ("x1",)
    sorted_word = merge_words(z3, x3)
    assert tuple(interleaved[p3(i)] for i in range(3)) == sorted_word


def test_ev_cells_against_direct_enumeration():
    # single sort, L = 2: brute-force the hom-set coend with plain permutations
    x = FinGroupoid.discrete((STAR,))
    y = FinGroupoid.discrete(("o",))
    z = exp_object(x, y, 2)
    evd = ev_catsym(x, y, z, 2)
    evd.seq.validate()
    for (w, yo), labels in evd.seq.cells.items():
        zpart, xpart, _ = split_word(w)
        assert len(zpart) == 1
        n = len(xpart)
        x0 = zpart[0][0]
        if len(x0) != n:
            assert labels == ()
            continue
        # arrows (head auto x tail perms) modulo simultaneous Sigma_n: count n!
        # orbits of Sigma_n x Sigma_n under diagonal = n! elements
        assert len(labels) == math.factorial(n)
    # the canonical identity class sits in the Yoneda cell
    yoneda = ((("l", ((STAR, STAR), "o")), ("r", STAR), ("r", STAR)), "o")
    assert len(evd.seq.cells[yoneda]) == 2


def test_transpose_untranspose_roundtrip():
    x = FinGroupoid.discrete((STAR,))
    y = FinGroupoid.discrete(("o",))
    z = exp_object(x, y, 2)
    idz = cat_id(z)
    t = transpose(idz, x, y)
    t.validate()
    back = untranspose(t, z, x, z, y)
    back.validate()
    assert cat_iso(back, idz) is not None
    t2 = transpose(back, x, y)
    assert cat_iso(t2, t) is not None


def test_transpose_of_identity_is_ev():
    x = FinGroupoid.discrete((STAR,))
    y = FinGroupoid.discrete(("o",))
    z = exp_object(x, y, 2)
    evd = ev_catsym(x, y, z, 2)
    t_id = transpose(cat_id(z), x, y)
    assert cat_iso(t_id, evd.seq) is not None


def test_operad_of_monad_on_identity():
    # E = Id_Z gives the hom operad of the groupoid: algebras are presheaves
    x = FinGroupoid.discrete((STAR,))
    y = FinGroupoid.discrete(("o",))
    z = exp_object(x, y, 2)
    idz = cat_id(z)
    ee = cat_compose(idz, idz, max_arity=1)
    mu = cat_left_unitor(ee)
    eta = identity_map(idz)
    op = operad_of_monad(z, idz, mu, eta, ee, 1)
    sizes = {s: {0: 1, 1: 1, 2: 2}[len(s[0])] for s in op.sorts}
    assert enumerate_algebras(op, sizes) == 2  # Sigma_2-sets on a 2-set


def test_hom_monad_unit_case_and_counts():
    a = unit_operad(("x",), 2)
    b = unit_operad(("y",), 2)
    hm = hom_monad(a, b, 2, 2)  # validates the monad laws internally
    exp = operad_of_monad(hm.expz, hm.e, hm.mu, hm.eta, hm.ee, 2)
    sizes = {s: {0: 1, 1: 1, 2: 2}[len(s[0])] for s in exp.sorts}
    assert enumerate_algebras(exp, sizes) == 2


def test_exponential_unit_laws():
    b = com_operad(2)
    t = terminal_operad()
    exp_bt = exponential_operad(t, b, 2, 2)
    assert operad_iso(exp_bt, b) is not None
    a = unit_operad(("x",), 2)
    exp_ta = exponential_operad(a, t, 2, 2)
    assert operad_iso(exp_ta, t) is not None


def test_hom_monad_refuses_an_arity_window_below_the_outer_operad():
    # E has cells up to the arity of B, above the window E o Id_Z is built to;
    # this used to read a cell that composite never built and fail as a law
    from opdbim.perms import InputError

    with pytest.raises(InputError, match="window 2 is below the outer operad's arity bound 3"):
        hom_monad(unit_operad(("x",), 2), com_operad(3), 2, 2)


def _table_digest(comp: dict) -> str:
    rows = [
        f"{key!r}|{lab!r}|{comp[key][lab]!r}"
        for key in sorted(comp, key=repr)
        for lab in sorted(comp[key], key=repr)
    ]
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


# (source, target, length_bound, arity_bound) -> sha256 of the mu and eta tables,
# recorded from the chain that whiskered each step inside B o - on its own
# (14 steps): the inputs of the exponential benchmark and the two-sorted source
HOM_MONAD_TABLES = {
    "x2-com2-2-2": (
        lambda: (unit_operad(("x",), 2), com_operad(2), 2, 2),
        "3ad0483a049710cdd274b98b318acb4647e5299b1a351d441254278e2d06f282",
        "dae2416729ce04c9efe3b10f3b351a7fdc342dd952e0770ccf9636b481ef38cd",
    ),
    "x3-com3-1-3": (
        lambda: (unit_operad(("x",), 3), com_operad(3), 1, 3),
        "053eec248b85edd4b3eb611a8fdc8d665d726cea55029a4e6e6c668c29ca5098",
        "ef7240c54497b7d481a6e02b3d4c55a879f8b487f171a1817f8e13401676f720",
    ),
    "x2-assoc2-2-2": (
        lambda: (unit_operad(("x",), 2), assoc_operad(2), 2, 2),
        "2f588d7c6cadaaea0ef43ad7759c86467c3a20157c3e6d76bf408cf2245e8202",
        "dae2416729ce04c9efe3b10f3b351a7fdc342dd952e0770ccf9636b481ef38cd",
    ),
    "terminal-com2-2-2": (
        lambda: (terminal_operad(), com_operad(2), 2, 2),
        "fb1bc6590a437b234aac29775e6286a6d4050b24ca1a4ebec7d51e4d37c54353",
        "f96d4266d7ce1f79387ab1e53a4ae21b54a4b2c9ccd1f4bf6382b7e7b9a52ab0",
    ),
    "x2-terminal-2-2": (  # T has no sorts, so neither has T^A: both tables are empty
        lambda: (unit_operad(("x",), 2), terminal_operad(), 2, 2),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "x2-y2-2-2": (
        lambda: (unit_operad(("x",), 2), unit_operad(("y",), 2), 2, 2),
        "ec8a30acce0888463e12c0386122e2a84a1d66abaaaddff3cd964378e98b6981",
        "65267ce07c1ff66406bb6c0b2456ef21220a4a3353bd32714f8e053af0583130",
    ),
    "xy2-z2-2-2": (
        lambda: (unit_operad(("x", "y"), 2), unit_operad(("z",), 2), 2, 2),
        "26102e7f28ed86e3076d3137225ae753b5f50dddf8cce31c6ac12e809d4fcf56",
        "601992d1aca97f5a89a3444abe21bde9902d07f33ddcf91d53f114d04c9554fa",
    ),
}


@pytest.mark.parametrize("name", list(HOM_MONAD_TABLES))
def test_hom_monad_tables_match_the_recorded_ones(name):
    args, mu_digest, eta_digest = HOM_MONAD_TABLES[name]
    hm = hom_monad(*args())
    assert (_table_digest(hm.mu.comp), _table_digest(hm.eta.comp)) == (mu_digest, eta_digest)


def _meets(first, then) -> bool:
    """``then`` starts where ``first`` ends: at the same sequence, or one of the
    two is the other restricted to the cells a windowed map holds (``_on_window``)."""
    a, b = first.dst, then.src
    if a is b:
        return True
    return a.dom_tr is b.dom_tr and (
        a.cells.items() <= b.cells.items() or b.cells.items() <= a.cells.items()
    )


def test_each_step_of_the_hom_monad_starts_where_the_last_one_ends(monkeypatch):
    # on every source the kernel accepts today, the interchange, the inverse
    # associator and the T o A~ associator send each class to the class of
    # the same index, so the tables above do not see them left out or turned
    # round; the sequences they run between do
    import opdbim.catsym as catsym

    chains = []
    original = catsym._chain

    def recording(maps):
        chains.append(list(maps))
        return original(maps)

    monkeypatch.setattr(catsym, "_chain", recording)
    for name in ("x2-com2-2-2", "x2-assoc2-2-2", "xy2-z2-2-2"):
        hom_monad(*HOM_MONAD_TABLES[name][0]())
    for maps in chains:
        for i, (first, then) in enumerate(zip(maps, maps[1:])):
            assert _meets(first, then), f"step {i + 1} ends where step {i + 2} does not start"
    # mu: inside B o -, then the whole chain; eta: the transposed unit, then the whole chain
    assert [len(maps) for maps in chains] == [6, 8, 3, 5] * 3


def test_hom_monad_whiskers_the_steps_inside_b_once(monkeypatch):
    # (B o f) ; (B o g) = B o (f ; g): the steps inside B o - are composed
    # first, so no composite is built only as the source of the next whisker
    built = _recorded_composites(
        monkeypatch, lambda: hom_monad(unit_operad(("x",), 2), com_operad(2), 2, 2)
    )
    assert len(built) <= 36


def test_exponential_requires_reduced():
    from opdbim.perms import InputError
    from opdbim.operads import make_operad
    from opdbim.symseq import SymSeq as _S

    cells = {
        ((), STAR): YoungSet.trivial((), ("c",)),
        ((STAR,), STAR): YoungSet.trivial((STAR,), ("e",)),
    }
    carrier = _S((STAR,), (STAR,), cells)

    def mu_fn(key, raw):
        mid, g, blocks, fs, sig = raw
        return "c" if len(key[0]) == 0 else "e"

    nullary = make_operad(carrier, mu_fn, {STAR: "e"}, 2)
    with pytest.raises(InputError):
        exponential_operad(nullary, com_operad(2), 2, 2)


def test_product_operad_counts_second_sample():
    from opdbim.operads import assoc_operad

    prod = product_operad(assoc_operad(3), com_operad(3))
    n = enumerate_algebras(prod, {s: 2 for s in prod.sorts}, budget=10_000_000)
    assert n == 48  # 8 associative times 6 commutative-associative tables


def test_exponential_with_nonunit_outer_operad():
    # the full derivation chain with a genuinely nontrivial outer multiplication;
    # construction validates the hom monad laws and the extracted operad laws.
    a = unit_operad(("x",), 2)
    b = com_operad(2)
    exp = exponential_operad(a, b, length_bound=1, arity_bound=2)
    assert exp.carrier.max_arity() == 2
    # count algebras inside the window only; no bimodule comparison is asserted
    # here because closure of a com-action always needs cells past any finite
    # length bound (the boundary caveat).
    sizes = {s: 1 if len(s[0]) == 0 else 2 for s in exp.sorts}
    assert enumerate_algebras(exp, sizes, budget=10_000_000) == 4


# --- the orbit-level kernel against an enumerate-and-quotient oracle ----------


def _all_arrow_edges(outer, inner, z, raws):
    """The coend relation along every arrow out of each block word and the middle word."""
    dom = inner.dom
    edges = []
    for raw in raws:
        mid, g, blocks, fs, arr = raw
        concat = tuple(o for b in blocks for o in b)
        offs = block_offsets(len(b) for b in blocks)
        for i, b in enumerate(blocks):
            for b2 in inner.support_words(mid[i]):
                for beta in sw_arrows(dom, b, b2):
                    t_beta = inner.dom_tr[(b2, mid[i])][(b, beta)]
                    f2 = {v: k for k, v in t_beta.items()}[fs[i]]
                    arr2 = sw_compose(dom, arr, sw_embed_at(dom, concat, offs[i], beta, len(b)))
                    blocks2 = blocks[:i] + (b2,) + blocks[i + 1 :]
                    edges.append((raw, (mid, g, blocks2, fs[:i] + (f2,) + fs[i + 1 :], arr2)))
        for mid2 in outer.support_words(z):
            for psi in sw_arrows(outer.dom, mid, mid2):
                t_psi = outer.dom_tr[(mid2, z)][(mid, psi)]
                g2 = {v: k for k, v in t_psi.items()}[g]
                sigma = Perm(psi[0])
                order = [sigma(i) for i in range(len(blocks))]
                fs2 = tuple(
                    inner.cod_tr[(blocks[j], mid[j])][psi[1][i]][fs[j]] for i, j in enumerate(order)
                )
                arr2 = sw_compose(dom, arr, sw_block_perm(dom, list(blocks), sigma))
                edges.append((raw, (mid2, g2, tuple(blocks[j] for j in order), fs2, arr2)))
    return edges


def _iso_words(gpd, word):
    """Every canonical word with an arrow into ``word``."""
    letters = [[o for o in gpd.objects if gpd.arrows(o, x)] for x in word]
    return {sw_canonical(gpd, combo)[0] for combo in itertools.product(*letters)}


def _cat_oracle(outer, inner, max_arity=None):
    """The categorical composite by brute force: ``{cell: (every raw, quotient)}``.

    Every raw ``(mid, g, blocks, fs, arr)`` is enumerated, in the order that
    defines representatives (middle word in ``outer.support()`` order, blocks
    in product order over ``inner.support_words``, outer label, inner labels,
    arrow index in ``sw_arrows``), and each cell is quotiented along every
    arrow of each block word and of the middle word.
    """
    dom = inner.dom
    raws_by_cell = {}
    for (mid, z) in outer.support():
        for blocks in itertools.product(*(inner.support_words(y) for y in mid)):
            if max_arity is not None and sum(len(b) for b in blocks) > max_arity:
                continue
            concat = tuple(o for b in blocks for o in b)
            fng = [inner.labels(b, y) for b, y in zip(blocks, mid)]
            for cw in _iso_words(dom, concat):
                raws_by_cell.setdefault((cw, z), []).extend(
                    (mid, g, blocks, fs, arr)
                    for g in outer.labels(mid, z)
                    for fs in itertools.product(*fng)
                    for arr in sw_arrows(dom, cw, concat)
                )
    return {
        key: (raws, quotient(raws, _all_arrow_edges(outer, inner, key[1], raws)))
        for key, raws in raws_by_cell.items()
    }


def _assert_matches_cat_oracle(comp):
    """Same cells, representatives, class numbers and transports as the oracle;
    ``class_of`` agrees with it on every raw."""
    oracle = _cat_oracle(comp.outer, comp.inner, comp.cap)
    dom, outer = comp.inner.dom, comp.outer
    assert set(comp.seq.cells) == set(oracle)
    for key, (raws, q) in oracle.items():
        w, z = key
        assert comp.reps[key] == list(q.representative), key
        assert comp.seq.cells[key] == tuple(range(len(q.classes))), key
        for v, a in comp.seq.dom_arrows(key):
            index = oracle[(v, z)][1].class_index
            want = {i: index[(m, g, b, fs, sw_compose(dom, a, arr))] for i, (m, g, b, fs, arr) in enumerate(q.representative)}
            assert comp.seq.dom_tr[key][(v, a)] == want, (key, v, a)
        for b in comp.seq.cod_arrows(key):
            table = comp.seq.cod_tr[key][b]
            index = oracle[(w, outer.cod.dst[b])][1].class_index
            want = {
                i: index[(m, outer.cod_tr[(m, z)][b][g], bl, fs, arr)]
                for i, (m, g, bl, fs, arr) in enumerate(q.representative)
            }
            assert table == want, (key, b)
        for raw in raws:
            assert comp.class_of(*key, raw) == q.class_index[raw], (key, raw)


def _recorded_composites(monkeypatch, build):
    """Every ``(outer, inner, composite)`` that ``cat_compose`` builds during ``build()``."""
    import opdbim.catsym as catsym

    built = []
    original = catsym.cat_compose

    def recording(outer, inner, max_arity=None):
        comp = original(outer, inner, max_arity=max_arity)
        built.append((outer, inner, comp))
        return comp

    monkeypatch.setattr(catsym, "cat_compose", recording)
    build()
    monkeypatch.undo()
    return built


def test_generator_edges_match_all_arrow_edges(monkeypatch):
    # the kernel builds one raw per class from generators of each slice's
    # group; the oracle quotients every raw along every arrow
    c = cat_from_symseq(com_operad(3).carrier)
    _assert_matches_cat_oracle(cat_compose(c, c, max_arity=3))
    # every composite of the unit(x, 2) / com(2) hom monad, monad laws included
    built = _recorded_composites(
        monkeypatch, lambda: hom_monad(unit_operad(("x",), 2), com_operad(2), 2, 2)
    )
    assert built
    for _outer, _inner, comp in built:
        _assert_matches_cat_oracle(comp)
    # distinct isomorphic objects, such as ((x, y), z) and ((y, x), z), and
    # non-trivial automorphisms, such as the swap of ((x, x), z)
    expz = exp_object(FinGroupoid.discrete(("x", "y")), FinGroupoid.discrete(("z",)), 2)
    assert expz.arrows((("x", "y"), "z"), (("y", "x"), "z"))
    assert len(expz.arrows((("x", "x"), "z"), (("x", "x"), "z"))) == 2
    idz = cat_id(expz)
    _assert_matches_cat_oracle(cat_compose(idz, idz, max_arity=2))


def test_index_pair_quotients_match_the_element_pair_quotient(monkeypatch):
    # every composite of the unit(x, 2) / assoc(2) hom monad against the oracle
    built = _recorded_composites(
        monkeypatch, lambda: hom_monad(unit_operad(("x",), 2), assoc_operad(2), 2, 2)
    )
    assert built
    for _outer, _inner, comp in built:
        _assert_matches_cat_oracle(comp)
    c = cat_from_symseq(com_operad(4).carrier)
    plain = compose_symseq(com_operad(4).carrier, com_operad(4).carrier, max_arity=4)
    comp = cat_compose(c, c, max_arity=4)
    _assert_matches_cat_oracle(comp)
    # the discrete case has as many classes per cell as the plain layer
    assert {k: len(v) for k, v in comp.reps.items()} == {k: len(v) for k, v in plain.reps.items()}
    # one raw per class is built
    assert all(comp.raws[k] == comp.reps[k] for k in comp.reps)


def _same_reps(plain, cat):
    """Same non-empty cells and representatives, reading a plain ``sig`` as ``arr[0]``."""
    cells = {k for k, cell in plain.seq.cells.items() if cell.size}
    assert cells == {k for k, labels in cat.seq.cells.items() if labels}
    for key in cells:
        assert plain.reps[key] == [(m, g, b, fs, arr[0]) for m, g, b, fs, arr in cat.reps[key]], key
    return len(cells)


def test_cat_compose_on_discrete_groupoids_matches_compose_symseq():
    for make in (com_operad, assoc_operad, magma_operad):
        a = make(3).carrier
        _same_reps(compose_symseq(a, a, max_arity=3), cat_compose(cat_from_symseq(a), cat_from_symseq(a), 3))
    cells = 0
    for seed in range(40):
        rng = random.Random(seed)
        f = rand_symseq(rng, ("a", "b"), 2, 3, 3)
        g = rand_symseq(rng, ("a", "b"), 2, 3, 3)
        cells += _same_reps(compose_symseq(f, g, 3), cat_compose(cat_from_symseq(f), cat_from_symseq(g), 3))
    assert cells == 152


def _fresh_arrows(gpd, v, w):
    """Every arrow ``v -> w`` from scratch, in ``skey`` order."""
    if len(v) != len(w):
        return []
    out = []
    for images in itertools.permutations(range(len(v))):
        for comps in itertools.product(*(gpd.arrows(v[images[i]], w[i]) for i in range(len(w)))):
            out.append((images, comps))
    return sorted(out, key=skey)


def test_memoised_sw_arrows_match_a_fresh_enumeration():
    expz = exp_object(FinGroupoid.discrete(("x", "y")), FinGroupoid.discrete(("z",)), 2)
    xy, yx, xx = (("x", "y"), "z"), (("y", "x"), "z"), (("x", "x"), "z")
    words = [(xx, xx), (xy, yx), (yx, xy), (xy, xy, xx), (xx, yx, xy), (xy,), ()]
    for v in words:
        for w in words:
            arrows = sw_arrows(expz, v, w)
            assert isinstance(arrows, tuple)
            assert list(arrows) == _fresh_arrows(expz, v, w)
            assert sw_arrows(expz, v, w) is arrows  # read back from the memo
    assert len(sw_arrows(expz, (xx, xx), (xx, xx))) == 8  # 2! swaps times 2 x 2 letter auts
    assert len(sw_arrows(expz, (xy, xy, xx), (xx, yx, xy))) == 4
    # repeated letters over a discrete groupoid: the Young stabilizer
    d = FinGroupoid.discrete(("a", "b"))
    assert list(sw_arrows(d, ("a", "a", "b"), ("a", "a", "b"))) == _fresh_arrows(
        d, ("a", "a", "b"), ("a", "a", "b")
    )


def test_sw_arrows_memo_is_per_groupoid():
    iso = two_object_iso_groupoid()
    disc = FinGroupoid.discrete(("p", "q"))
    assert iso.objects == disc.objects
    assert len(sw_arrows(iso, ("p", "p"), ("q", "q"))) == 2
    assert sw_arrows(disc, ("p", "p"), ("q", "q")) == ()
    assert sw_arrows(disc, ("p",), ("p",)) == (((0,), (("id", "p"),)),)
    assert sw_arrows(iso, ("p",), ("p",)) == (((0,), ("ip",)),)
    # the memo is not a field: filling it leaves equality alone
    assert disc == FinGroupoid.discrete(("p", "q"))


def test_cat_class_of_names_the_cell_and_an_unhashable_raw():
    # the categorical twin of the plain composite: a raw holding a list is no raw
    c = cat_from_symseq(com_operad(2).carrier)
    comp = cat_compose(c, c, max_arity=2)
    key = next(k for k in comp.reps if len(k[0]) == 2)
    mid, g, blocks, fs, arr = comp.reps[key][0]
    assert comp.class_of(*key, (mid, g, blocks, fs, arr)) == 0
    raw = (mid, g, blocks, fs, list(arr))
    with pytest.raises(ValidationError) as err:
        comp.class_of(*key, raw)
    assert repr(key) in str(err.value) and repr(raw) in str(err.value)


def _cat_class_of_error(comp, w, y, raw):
    with pytest.raises(ValidationError) as err:
        comp.class_of(w, y, raw)
    assert repr((w, y)) in str(err.value) and repr(raw) in str(err.value)


def test_cat_class_of_names_the_cell_and_the_raw_it_refuses():
    # the categorical twin of the plain composite's refusals
    c = cat_from_symseq(com_operad(3).carrier)
    comp = cat_compose(c, c, max_arity=3)
    i = ("id", STAR)
    w, y = (STAR, STAR), STAR
    arr = ((1, 0), (i, i))
    good = ((STAR, STAR), 0, ((STAR,), (STAR,)), (0, 0), arr)
    assert comp.class_of(w, y, good) == 1  # class 0 is the one of mid (*,)
    # a label outside its cell, outer and inner
    _cat_class_of_error(comp, w, y, ((STAR, STAR), 7, ((STAR,), (STAR,)), (0, 0), arr))
    _cat_class_of_error(comp, w, y, ((STAR, STAR), 0, ((STAR,), (STAR,)), (0, "x"), arr))
    # a block outside the inner support, and blocks that do not fit the middle word
    _cat_class_of_error(comp, w, y, ((STAR,), 0, ((STAR,) * 4,), (0,), arr))
    _cat_class_of_error(comp, w, y, ((STAR,), 0, ((),), (0,), arr))
    _cat_class_of_error(comp, w, y, ((STAR, STAR), 0, ((STAR, STAR),), (0,), arr))
    _cat_class_of_error(comp, w, y, "not a raw")
    # arrows whose target is not concat(blocks), or that are no arrows of w
    for bad in (((0,), (i,)), ((0, 0), (i, i)), ((1, 0), (("id", "x"), i)), (1, 0)):
        _cat_class_of_error(comp, w, y, ((STAR, STAR), 0, ((STAR,), (STAR,)), (0, 0), bad))
    # a word above the cap: a raw of c o c at arity 4, but not of this composite
    w4 = (STAR,) * 4
    raw4 = ((STAR, STAR), 0, ((STAR, STAR), (STAR, STAR)), (0, 0), sw_id(c.dom, w4))
    assert raw4 in cat_compose(c, c, max_arity=4).reps[(w4, y)]
    _cat_class_of_error(comp, w4, y, raw4)
    # over a groupoid with isomorphic objects: an arrow into another word
    g = two_object_iso_groupoid()
    ident_g = cat_id(g)
    comp_g = cat_compose(ident_g, ident_g, max_arity=1)
    key = (("p",), "q")
    mid, lab, blocks, fs, arr_g = comp_g.reps[key][0]
    assert blocks == (("p",),)
    assert comp_g.class_of(*key, (mid, lab, blocks, fs, arr_g)) == 0
    _cat_class_of_error(comp_g, *key, (mid, lab, blocks, fs, ((0,), ("f",))))


def test_a_support_not_closed_under_isomorphism_is_refused():
    # p and q are isomorphic, so the least word of the class of (p, q) would
    # be (p, p) or (q, q); with (p, q) alone its swap with components would
    # be missing from the generators of its automorphisms
    g = two_object_iso_groupoid()
    lonely = CatSymSeq(g, g, {(("p", "q"), "p"): ("c",)}, {}, {})
    with pytest.raises(ValidationError, match="not closed under isomorphism"):
        cat_compose(cat_id(g), lonely, max_arity=2)


@pytest.mark.parametrize(
    "make_f",
    [
        lambda: cat_from_symseq(assoc_operad(3).carrier),
        lambda: cat_id(two_object_iso_groupoid()),
        lambda: cat_id(exp_object(FinGroupoid.discrete(("x", "y")), FinGroupoid.discrete(("z",)), 2)),
    ],
    ids=["assoc3", "iso-groupoid", "exp-object"],
)
def test_cat_unitors_send_each_unit_raw_to_its_label(make_f):
    # the raw of a label between identities is the label's image under an
    # inverse unitor; each unitor must send its class back to that label
    f = make_f()
    dom, cod = f.dom, f.cod
    idf = cat_compose(cat_id(cod), f, max_arity=f.max_arity())
    fid = cat_compose(f, cat_id(dom), max_arity=f.max_arity())
    lu, ru = cat_left_unitor(idf), cat_right_unitor(fid)
    for (w, y), labels in f.cells.items():
        one = sw_id(dom, w)
        units = (tuple((o,) for o in w), tuple(dom.ident[o] for o in w))
        for lab in labels:
            assert lu.at(w, y, idf.class_of(w, y, ((y,), cod.ident[y], (w,), (lab,), one))) == lab
            assert ru.at(w, y, fid.class_of(w, y, (w, lab) + units + (one,))) == lab


# --- transport tables are built when first read, from the builder's callbacks ---


def _complete_transports(seq, dom_arrow_fn, cod_arrow_fn):
    """Fill ``dom_tr``/``cod_tr`` by calling the callbacks along every arrow between support words."""
    by_out: dict = {}
    for (w, y), labels in seq.cells.items():
        by_out.setdefault(y, []).append(w)
    for key, labels in seq.cells.items():
        w, y = key
        seq.dom_tr[key] = {}
        for v in by_out.get(y, []):
            if len(v) != len(w):
                continue
            for a in sw_arrows(seq.dom, v, w):
                seq.dom_tr[key][(v, a)] = {l: dom_arrow_fn(key, v, a, l) for l in labels}
        seq.cod_tr[key] = {}
        for y2 in seq.cod.objects:
            for b in seq.cod.arrows(y, y2):
                seq.cod_tr[key][b] = {l: cod_arrow_fn(key, b, l) for l in labels}


def _read_along_every_arrow(seq):
    """Every table of ``seq``, read along the arrows it enumerates, as nested lists (entry order counts)."""
    return (
        [(key, sorted((arrow, list(seq.dom_tr[key][arrow].items())) for arrow in seq.dom_arrows(key)))
         for key in seq.support()],
        [(key, sorted((b, list(seq.cod_tr[key][b].items())) for b in seq.cod_arrows(key)))
         for key in seq.support()],
    )


def _checked_reads(monkeypatch, build):
    """The builders of the sequences ``build()`` makes, each read along every arrow and checked
    against :func:`_complete_transports` run on the builder's own callbacks."""
    import opdbim.catsym as catsym

    made = []
    original = catsym._read_on_demand

    def recording(seq, dom_fn, cod_fn):
        made.append((seq, dom_fn, cod_fn))
        return original(seq, dom_fn, cod_fn)

    monkeypatch.setattr(catsym, "_read_on_demand", recording)
    build()
    monkeypatch.undo()
    builders = []
    for seq, dom_fn, cod_fn in made:
        builder = dom_fn.__qualname__.split(".")[0]
        oracle = CatSymSeq(seq.dom, seq.cod, seq.cells, {}, {})
        _complete_transports(oracle, dom_fn, cod_fn)
        assert _read_along_every_arrow(seq) == _read_along_every_arrow(oracle), builder
        assert all(set(seq.dom_arrows(k)) == set(oracle.dom_tr[k]) for k in seq.support()), builder
        builders.append(builder)
    return builders


HOM_MONAD_BUILDERS = ["cat_compose", "cat_from_symseq", "cat_id", "cat_sum", "ev_catsym", "transpose", "untranspose"]


@pytest.mark.parametrize(
    "build, want",
    [
        (lambda: cat_from_symseq(com_operad(3).carrier), ["cat_from_symseq"]),
        (lambda: cat_from_symseq(assoc_operad(3).carrier), ["cat_from_symseq"]),
        (
            lambda: cat_from_symseq(
                rand_symseq(random.Random(7), sorts=("a", "b"), max_arity=3, max_labels=3, n_cells=4)
            ),
            ["cat_from_symseq"],
        ),
        (
            lambda: cat_id(exp_object(FinGroupoid.discrete(("x", "y")), FinGroupoid.discrete(("z",)), 2)),
            ["cat_id"],
        ),
        (lambda: hom_monad(unit_operad(("x",), 2), com_operad(2), 2, 2), HOM_MONAD_BUILDERS),
        (lambda: hom_monad(unit_operad(("x", "y"), 2), unit_operad(("z",), 2), 2, 2), HOM_MONAD_BUILDERS),
    ],
    ids=["com3", "assoc3", "two-sorted", "exp-object-identity", "x2-com2", "xy-z"],
)
def test_transport_tables_match_the_tables_along_every_arrow(monkeypatch, build, want):
    assert sorted(set(_checked_reads(monkeypatch, build))) == want


def test_no_table_is_built_before_its_first_read():
    seq = cat_from_symseq(assoc_operad(3).carrier)
    assert seq.dom_tr.built == {} and seq.cod_tr.built == {}
    key = ((STAR,) * 3, STAR)
    swap = seq.dom_arrows(key)[1]
    table = seq.dom_tr[key][swap]
    assert seq.dom_tr[key][swap] is table  # kept once built
    assert list(seq.dom_tr.built) == [key] and list(seq.dom_tr[key].built) == [swap]
    assert seq.cod_tr.built == {}
    # an arrow between other words, or into another cell, is no arrow of this cell
    for bad in (((STAR, STAR), swap[1]), (key[0], sw_id(seq.dom, (STAR, STAR)))):
        with pytest.raises(KeyError):
            seq.dom_tr[key][bad]
    with pytest.raises(KeyError):
        seq.cod_tr[key][("id", "nowhere")]


def test_transport_tables_cannot_be_iterated():
    # iterating a table built on read would walk only the tables read so far
    seq = cat_from_symseq(com_operad(2).carrier)
    key = seq.support()[-1]
    for tables in (seq.dom_tr, seq.dom_tr[key], seq.cod_tr, seq.cod_tr[key]):
        with pytest.raises(TypeError):
            iter(tables)
        assert not hasattr(tables, "items")


def _lazy_copy(seq, wrong=False):
    """A fresh copy of ``seq``, none of its tables read; ``wrong`` leaves each label in place along
    every arrow between two different words."""

    def dom_fn(key, v, a, lab):
        return lab if wrong and v != key[0] else seq.dom_tr[key][(v, a)][lab]

    copy = CatSymSeq(seq.dom, seq.cod, dict(seq.cells), {}, {})
    _read_on_demand(copy, dom_fn, lambda key, b, lab: seq.cod_tr[key][b][lab])
    return copy


def test_checks_along_every_arrow_read_the_tables_never_read_before():
    # each check must enumerate the arrows itself: on fresh copies no table
    # has been read, so a check that walked the tables read so far passes
    ident = cat_id(two_object_iso_groupoid())
    _lazy_copy(ident).validate()
    with pytest.raises(ValidationError, match="dom transport mistyped"):
        _lazy_copy(ident, wrong=True).validate()
    src, dst = _lazy_copy(ident), _lazy_copy(ident, wrong=True)
    with pytest.raises(ValidationError, match="equivariance fails"):
        src.check_equivariance(SymSeqMap(src, dst, {k: {l: l for l in labs} for k, labs in src.cells.items()}))
    # assoc(2) and a sequence of the same sizes on which the swap acts trivially
    swapped = cat_from_symseq(assoc_operad(2).carrier)
    cells = {key: YoungSet.trivial(key[0], labels) for key, labels in swapped.cells.items()}
    trivial = cat_from_symseq(SymSeq((STAR,), (STAR,), cells))
    assert cat_iso(_lazy_copy(swapped), _lazy_copy(swapped)) is not None
    assert cat_iso(_lazy_copy(swapped), _lazy_copy(trivial)) is None


def test_composites_and_transposes_are_freed_by_reference_counting():
    # a callback that held its sequence would make a cycle that only the
    # cyclic collector frees
    g = two_object_iso_groupoid()
    x, y = FinGroupoid.discrete((STAR,)), FinGroupoid.discrete(("o",))
    gc.collect()
    gc.disable()
    try:
        comp = cat_compose(cat_id(g), cat_id(g), max_arity=1)
        t = transpose(cat_id(exp_object(x, y, 2)), x, y)
        for seq in (comp.seq, t):
            _read_along_every_arrow(seq)
        refs = [weakref.ref(comp), weakref.ref(comp.seq), weakref.ref(t)]
        del comp, seq, t
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def _corrupted(m, e):
    """``m`` with the first label of its first cell whose target has two labels sent to the other one."""
    key = next(k for k in sorted(m.comp, key=repr) if len(e.labels(*k)) >= 2)
    lab = next(iter(m.comp[key]))
    other = next(t for t in e.labels(*key) if t != m.comp[key][lab])
    return SymSeqMap(m.src, m.dst, {**m.comp, key: {**m.comp[key], lab: other}})


def test_a_corrupted_hom_monad_fails_naming_the_law_the_cell_and_the_class():
    hm = hom_monad(unit_operad(("x",), 2), com_operad(2), 2, 2)
    idz = cat_id(hm.expz)
    ide, eid = cat_compose(idz, hm.e, max_arity=2), cat_compose(hm.e, idz, max_arity=2)
    check_cat_monad(hm, 2, ide, eid)
    with pytest.raises(ValidationError) as err:
        check_cat_monad(dataclasses.replace(hm, mu=_corrupted(hm.mu, hm.e)), 2, ide, eid)
    assert str(err.value) == (
        "hom monad associativity fails at cell ((((), '*'), (('x', 'x'), '*')), (('x', 'x'), '*')), class 0: 1 != 0"
    )
    with pytest.raises(ValidationError, match=r"^hom monad left unit law fails at cell \(.+\), class .+: .+ != "):
        check_cat_monad(dataclasses.replace(hm, eta=_corrupted(hm.eta, hm.e)), 2, ide, eid)
