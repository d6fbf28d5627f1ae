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
from opdbim.symseq import (
    SymSeq, SymSeqMap, compose_symseq, hcompose_maps, identity_map, map_equal, map_inverse, mu_from_raws,
)
from opdbim.operads import (
    assoc_operad, com_operad, enumerate_algebras, magma_operad, operad_iso, terminal_operad, unit_operad,
)
from opdbim.catsym import (
    CatSymSeq,
    _enumerate_arrows,
    cat_compose,
    cat_from_symseq,
    cat_id,
    cat_left_insert,
    cat_left_unit,
    cat_regroup,
    cat_right_insert,
    cat_right_unit,
    cat_sum,
    cat_ungroup,
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
from oracles import (
    cat_associator, cat_iso, cat_left_unitor, cat_monad_unit_chains, cat_right_unitor, product_object,
)

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
    double = _doubled()
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
    lu = mu_from_raws(idf, cat_left_unit(f), f)
    lu.validate()
    assert lu.is_bijective()
    fid = cat_compose(f, ident, max_arity=2)
    ru = mu_from_raws(fid, cat_right_unit(f), f)
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
    mu = mu_from_raws(ee, cat_left_unit(idz), idz)
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


def test_a_source_above_what_the_chain_reads_gives_the_monad_of_the_source_cut_there():
    # the interchange reads A o Id_X only up to arity L + w and inverts no
    # unitor onto all of A, so A's cells above that arity are never read
    y2 = unit_operad(("y",), 2)
    for make, length_bound, cut in ((com_operad, 2, 4), (assoc_operad, 1, 3)):
        at_cut, above = (hom_monad(make(n), y2, length_bound, 2) for n in (cut, cut + 1))
        assert (above.mu.comp, above.eta.comp) == (at_cut.mu.comp, at_cut.eta.comp)


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
    # recorded from the eight-step chain that built both bracketings of each
    # associator: its regroup steps group F blocks whose concatenation is not
    # a canonical word, where G o F has no cell
    "x2-com3-2-3": (
        lambda: (unit_operad(("x",), 2), com_operad(3), 2, 3),
        "f9497282f3b665623791deb30f7ef7231ca2796b87783d2ef90deba5deba5fcb",
        "dae2416729ce04c9efe3b10f3b351a7fdc342dd952e0770ccf9636b481ef38cd",
    ),
    # recorded from the chain that built both ends of each unitor: sources with
    # operations of their own, where the A halves of the interchange and of the
    # multiplication of Id_Z u A move labels (every source above has identities only)
    "com3-com2-2-2": (
        lambda: (com_operad(3), com_operad(2), 2, 2),
        "b73d4ef42bf30caccb0a3d06f5119deda414d1659da086492274bb1adbaee52a",
        "c677608987e790e986e04dc78188794b8f147e82b5cd3b235941f94dec16d5c1",
    ),
    "assoc3-com2-2-2": (
        lambda: (assoc_operad(3), com_operad(2), 2, 2),
        "7ffb53b054d8475af64ba6a09a5ef43386d1ec3d24c4bf06779f09cd8e83dbd1",
        "c677608987e790e986e04dc78188794b8f147e82b5cd3b235941f94dec16d5c1",
    ),
    "assoc3-y2-2-2": (
        lambda: (assoc_operad(3), unit_operad(("y",), 2), 2, 2),
        "dbe23737534f73cfee48ce2ac11f9f70dd700dae218fd153d7c8566df5f706f5",
        "d6ccc2d59729bd9521014daf2dc648f4bb82b4986d68e73b035cb091d165d80a",
    ),
}


@pytest.mark.parametrize("name", list(HOM_MONAD_TABLES))
def test_hom_monad_tables_match_the_recorded_ones(name):
    args, mu_digest, eta_digest = HOM_MONAD_TABLES[name]
    hm = hom_monad(*args())
    assert (_table_digest(hm.mu.comp), _table_digest(hm.eta.comp)) == (mu_digest, eta_digest)


def _recorded_steps(monkeypatch, build) -> list:
    """``(builder name, its arguments, the step)`` of every regroup and ungroup step built during ``build()``."""
    import opdbim.catsym as catsym

    steps = []
    for name in ("cat_regroup", "cat_ungroup"):
        def recording(*args, _name=name, _original=getattr(catsym, name)):
            step = _original(*args)
            steps.append((_name, args, step))
            return step

        monkeypatch.setattr(catsym, name, recording)
    build()
    return steps


# the steps in the order hom_monad and check_cat_monad build them: ev o mu of A~
# (the inner 2-cell of the T o A~ regroup), ev o the interchange, the ungroup
# through the collapse o A~, the T o A~ regroup, the ungroup of ev o (S o S),
# the regroup into B o T, the ungroup through B's multiplication, and the
# associativity law's regroup
STEP_KINDS = ["cat_regroup", "cat_regroup", "cat_ungroup", "cat_regroup",
              "cat_ungroup", "cat_regroup", "cat_ungroup", "cat_regroup"]


@pytest.mark.parametrize("name", list(HOM_MONAD_TABLES))
def test_each_regroup_and_ungroup_step_is_the_associator_then_its_whisker(monkeypatch, name):
    # a regroup step on a class of (H o G) o F is the whisker at its class
    # under the associator; an ungroup step on the associator's image of a
    # class is the whisker beta o F at that class
    steps = _recorded_steps(monkeypatch, lambda: hom_monad(*HOM_MONAD_TABLES[name][0]()))
    assert [kind for kind, _args, _step in steps] == STEP_KINDS
    for kind, step_args, step in steps:
        (hg, gf, beta), dst = step_args[:3], step_args[-1]
        hg_f = cat_compose(hg.seq, gf.inner, max_arity=dst.cap)
        h_gf = cat_compose(hg.outer, gf.seq, max_arity=dst.cap)
        assoc = cat_associator(hg, hg_f, gf, h_gf)
        if kind == "cat_regroup":
            whisker = hcompose_maps(beta, step_args[3], h_gf, dst)
        else:
            whisker = hcompose_maps(beta, identity_map(gf.inner), hg_f, dst)
        for key, reps in hg_f.reps.items():
            classes = range(len(reps))
            if kind == "cat_regroup":
                assert [step(key, raw) for raw in reps] == [whisker.at(*key, assoc.at(*key, c)) for c in classes]
            else:
                assert [step(key, h_gf.rep(*key, assoc.at(*key, c))) for c in classes] == [whisker.at(*key, c) for c in classes]


def _arrows_to(gpd, *targets):
    """At cell ``(w, y)`` with ``w`` of length at most 2, a label ``(k, a)`` for each arrow ``a: w -> word(y)``
    of ``(word, move) = targets[k]``, moved by composing: with the arrow moved along, or with ``move(b):
    word(y) -> word(y2)`` for a codomain arrow ``b: y -> y2``."""
    cells = {}
    for w in itertools.chain.from_iterable(itertools.combinations_with_replacement(gpd.objects, n) for n in range(3)):
        for y in gpd.objects:
            labels = tuple((k, a) for k, (word, _move) in enumerate(targets) for a in sw_arrows(gpd, w, word(y)))
            if labels:
                cells[(w, y)] = labels
    return CatSymSeq(
        gpd, gpd, cells,
        lambda key, v, a, lab: (lab[0], sw_compose(gpd, a, lab[1])),
        lambda key, b, lab: (lab[0], sw_compose(gpd, lab[1], targets[lab[0]][1](b))),
    )


def two_components():
    """Objects ``a`` and ``b``, not isomorphic, each with one automorphism besides its identity."""
    hom = {(o, o): (f"{o}0", f"{o}1") for o in "ab"}
    comp = {(f"{o}{k}", f"{o}{j}"): f"{o}{(j + k) % 2}" for o in "ab" for j in (0, 1) for k in (0, 1)}
    return FinGroupoid(("a", "b"), hom, comp, {"a": "a0", "b": "b0"}, {f: f for arrows in hom.values() for f in arrows})


def _unary_and_binary(gpd):
    """``H = G = F``: the arrows into ``(y,)`` and into ``(y, y)``."""
    f = _arrows_to(gpd, (lambda y: (y,), lambda b: ((0,), (b,))), (lambda y: (y, y), lambda b: ((0, 1), (b, b))))
    return f, f, f


def _nullary_and_unary(gpd):
    """``H = G = F``: the arrows into ``()`` and into ``(y,)``; an ``H o (G o F)`` raw may have no blocks."""
    f = _arrows_to(gpd, (lambda y: (), lambda b: ((), ())), (lambda y: (y,), lambda b: ((0,), (b,))))
    return f, f, f


def _across_components(gpd):
    """``H``: the arrows into ``(y,)`` and into ``(a, b)``, whatever ``y``; ``G``: the arrows into ``(y',)`` and
    ``(y', y')``, with ``y'`` the object of the other component; ``F``: the arrows into ``(y,)``."""
    other = {"a": "b", "b": "a", "a0": "b0", "a1": "b1", "b0": "a0", "b1": "a1"}
    unary = (lambda y: (y,), lambda b: ((0,), (b,)))
    h = _arrows_to(gpd, unary, (lambda y: ("a", "b"), lambda b: ((0, 1), ("a0", "b0"))))
    g = _arrows_to(gpd, (lambda y: (other[y],), lambda b: ((0,), (other[b],))),
                   (lambda y: (other[y],) * 2, lambda b: ((0, 1), (other[b],) * 2)))
    return h, g, _arrows_to(gpd, unary)


@pytest.mark.parametrize(
    "make, factors",
    [(two_object_iso_groupoid, _unary_and_binary), (two_components, _across_components),
     (two_object_iso_groupoid, _nullary_and_unary)],
    ids=["iso-only", "two-components", "nullary"],
)
def test_regroup_and_ungroup_are_the_associator_and_its_inverse_on_every_related_raw(make, factors):
    # the hom monad's steps read only representatives, never move a label
    # along a non-identity arrow of the H o G representative, and never sort
    # the G words by a permutation that is not its own inverse; here the
    # steps read each raw one coend relation away from a representative, and
    # both happen
    h, g, f = factors(make())
    for seq in (h, g, f):
        seq.validate()
    # nullary blocks make a middle word longer than its composite's arity
    hg, gf = cat_compose(h, g, max_arity=5), cat_compose(g, f, max_arity=5)
    hg_f, h_gf = cat_compose(hg.seq, f, max_arity=3), cat_compose(h, gf.seq, max_arity=3)
    assoc = cat_associator(hg, hg_f, gf, h_gf)
    regroup = cat_regroup(hg, gf, identity_map(h), identity_map(gf.seq), h_gf)
    ungroup = cat_ungroup(hg, gf, identity_map(hg.seq), hg_f)
    for step, comp, outer, inner, m in (
        (regroup, hg_f, hg.seq, f, assoc), (ungroup, h_gf, h, gf.seq, map_inverse(assoc)),
    ):
        for key, reps in comp.reps.items():
            for c, rep in enumerate(reps):
                related = [rep] + [raw for _rep, raw in _all_arrow_edges(outer, inner, key[1], [rep])]
                assert {step(key, raw) for raw in related} == {m.at(*key, c)}, (key, rep)


def test_a_step_whose_ends_do_not_meet_its_factors_is_refused(monkeypatch):
    # three wrong chains once passed every table pin and the monad laws, as
    # the steps they change send each class to the class of the same index:
    # the interchange left out, the inverse associator turned round and the
    # T o A~ associator left out; restated on the steps, each is refused
    steps = _recorded_steps(monkeypatch, lambda: hom_monad(*HOM_MONAD_TABLES["x2-com2-2-2"][0]()))
    # the interchange left out: ev o (A~ o S) regrouped into ev o (S o A~) under the identity
    hg, gf, beta, _swap, dst = steps[1][1]
    with pytest.raises(ValidationError, match="the inner 2-cell does not end at the target's inner factor"):
        cat_regroup(hg, gf, beta, identity_map(gf.seq), dst)
    # the ungroup turned round: ev o (S o A~) -> T o A~ built as a regroup
    hg, gf, col_e, dst = steps[2][1]
    with pytest.raises(ValidationError, match="the outer 2-cell does not start at the outer factor"):
        cat_regroup(hg, gf, col_e, identity_map(gf.seq), dst)
    # the T o A~ regroup replaced by the plain whisker B o (ev o mu of A~):
    # hcompose_maps compares categorical ends too, so B's identity, which does
    # not start at the outer factor T, is refused before any cell is read
    hg, gf, beta, alpha, dst = steps[3][1]
    with pytest.raises(ValidationError, match=r"^the outer 2-cell does not start at the outer factor: CatSymSeq\("):
        hcompose_maps(beta, alpha, cat_compose(hg.seq, gf.inner, max_arity=dst.cap), dst)


def _meets(first, then) -> bool:
    """``then`` starts where ``first`` ends: at the same sequence, or one of the
    two is the other restricted to the cells a windowed map holds (``_on_window``)."""
    a, b = first.dst, then.src
    if a is b:
        return True
    return a.dom_fn is b.dom_fn and a.cod_fn is b.cod_fn and (
        a.cells.items() <= b.cells.items() or b.cells.items() <= a.cells.items()
    )


def test_each_step_of_the_hom_monad_starts_where_the_last_one_ends(monkeypatch):
    # each regroup and ungroup step checks its own ends; the maps of each
    # chain must meet too
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
    # mu: inside B o -, then the chain up to B o T, before the ungroup through
    # B's multiplication; eta: the transposed unit (ev's labels over
    # identities, collapsed), then its inverse and two insertions
    assert [len(maps) for maps in chains] == [3, 4, 2, 3] * 3


def test_hom_monad_whiskers_the_steps_inside_b_once(monkeypatch):
    # (B o f) ; (B o g) = B o (f ; g): the steps inside B o - are composed
    # first, so no composite is built only as the source of the next whisker;
    # a unit step or an insertion stands in for every unitor, and
    # check_cat_monad reads each unit law per label of E through an
    # insertion into E o E, so no composite has a factor Id
    hms = []
    built = _recorded_composites(
        monkeypatch, lambda: hms.append(hom_monad(unit_operad(("x",), 2), com_operad(2), 2, 2))
    )
    assert len(built) <= 20

    def name(seq):
        return "Id" if seq.dom_fn.__qualname__.startswith("cat_id.") else "E" if seq is hms[0].e else "other"

    factors = [(name(outer), name(inner)) for outer, inner, _comp in built]
    assert [pair for pair in factors if "Id" in pair] == []


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
                    f2 = next(f for f in inner.labels(b2, mid[i]) if inner.dom_at((b2, mid[i]), b, beta, f) == fs[i])
                    arr2 = sw_compose(dom, arr, sw_embed_at(dom, concat, offs[i], beta, len(b)))
                    blocks2 = blocks[:i] + (b2,) + blocks[i + 1 :]
                    edges.append((raw, (mid, g, blocks2, fs[:i] + (f2,) + fs[i + 1 :], arr2)))
        for mid2 in outer.support_words(z):
            for psi in sw_arrows(outer.dom, mid, mid2):
                g2 = next(g2 for g2 in outer.labels(mid2, z) if outer.dom_at((mid2, z), mid, psi, g2) == g)
                sigma = Perm(psi[0])
                order = [sigma(i) for i in range(len(blocks))]
                fs2 = tuple(
                    inner.cod_at((blocks[j], mid[j]), psi[1][i], fs[j]) for i, j in enumerate(order)
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
            assert {i: comp.seq.dom_at(key, v, a, i) for i in want} == want, (key, v, a)
        for b in comp.seq.cod_arrows(key):
            index = oracle[(w, outer.cod.dst[b])][1].class_index
            want = {
                i: index[(m, outer.cod_at((m, z), b, g), bl, fs, arr)]
                for i, (m, g, bl, fs, arr) in enumerate(q.representative)
            }
            assert {i: comp.seq.cod_at(key, b, i) for i in want} == want, (key, b)
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


def two_isomorphic_objects():
    """Objects ``q`` and ``p``, isomorphic, each with one automorphism besides its identity; a fresh
    instance on each call, with its objects and every hom listed against ``skey`` order."""
    objs = ("q", "p")
    hom = {(a, b): (f"{a}{b}1", f"{a}{b}0") for a in objs for b in objs}
    comp = {
        (f"{b}{c}{k}", f"{a}{b}{j}"): f"{a}{c}{(j + k) % 2}"
        for a, b, c in itertools.product(objs, repeat=3) for j in (0, 1) for k in (0, 1)
    }
    inv = {f"{a}{b}{k}": f"{b}{a}{k}" for a, b in hom for k in (0, 1)}
    return FinGroupoid(objs, hom, comp, {o: f"{o}{o}0" for o in objs}, inv)


def _exp_two_outputs():
    expz = exp_object(FinGroupoid.discrete(("x", "y")), FinGroupoid.discrete(("u", "v")), 2)
    return expz, [(("x", "y"), "u"), (("y", "x"), "u"), (("x", "x"), "v"), ((), "v")]


def _exp_and_its_source():
    expz, letters = _exp_two_outputs()
    return disjoint_union(expz, FinGroupoid.discrete(("x", "y"))), [("l", o) for o in letters[:2]] + [("r", "x")]


def _iso_pair():
    return two_isomorphic_objects(), ["q", "p"]


WORD_GROUPOIDS = pytest.mark.parametrize(
    "make", [_exp_two_outputs, _exp_and_its_source, _iso_pair], ids=["exp-two-outputs", "exp-and-source", "iso-pair"]
)


@WORD_GROUPOIDS
def test_arrows_are_enumerated_in_skey_order_without_a_sort(make):
    # images first, then components: a kernel that ordered components first,
    # or read a hom in the order it is listed, would break the least raws
    gpd, letters = make()
    gpd.validate()
    for n in range(4):
        words = list(itertools.product(letters, repeat=n))
        for v, w in itertools.product(words, repeat=2):
            arrows = list(sw_arrows(gpd, v, w))
            assert arrows == sorted(_enumerate_arrows(gpd, v, w), key=skey) == _fresh_arrows(gpd, v, w)


@WORD_GROUPOIDS
def test_support_and_composite_cells_stay_in_skey_order(make):
    # cells sort by object ranks, which must give the skey order of words and outputs
    gpd, letters = make()
    out = FinGroupoid.discrete(("o", 2, ("o", 1)))
    words = [w for n in range(3) for w in itertools.product(letters, repeat=n)]
    cells = {(w, y): ("c",) for w in words for y in out.objects}
    seq = CatSymSeq(gpd, out, cells, lambda key, v, a, lab: lab, lambda key, b, lab: lab)  # every arrow is trivial
    comp = cat_compose(cat_id(out), seq, max_arity=2)
    for keys in (seq.support(), comp.seq.support(), comp.reps):
        assert list(keys) == sorted(keys, key=lambda k: (len(k[0]), skey(k[0]), skey(k[1])))


def _read_through(seq, dom, cod):
    """``seq`` over groupoids equal to its own, reading its transports."""
    return CatSymSeq(dom, cod, dict(seq.cells), seq.dom_at, seq.cod_at)


def _twisted(gpd, twist):
    """Two labels on each of ``(p,)`` and ``(q,)``; an arrow swaps them iff ``twist`` and its automorphism
    part is not the identity."""
    y = FinGroupoid.discrete(("y",))
    cells = {(("p",), "y"): (0, 1), (("q",), "y"): (0, 1)}
    return CatSymSeq(
        gpd, y, cells, lambda key, v, a, lab: lab ^ (twist and a[1][0][-1] == "1"), lambda key, b, lab: lab
    )


def _twisted_composites(gpd):
    # the slices of the two composites differ only in how the block automorphism moves the inner labels
    idy = cat_id(FinGroupoid.discrete(("y",)))
    return [lambda twist=twist: cat_compose(idy, _twisted(gpd, twist), max_arity=1) for twist in (True, False)]


def _sum_composites(u):
    # the hom monad's S o S and Ev o A~, over one instance of Z u X
    x, y = FinGroupoid.discrete(("x",)), FinGroupoid.discrete(("y",))
    expz = exp_object(x, y, 2)
    t = _read_through(transpose(cat_id(expz), x, y), u, y)
    s = _read_through(cat_sum(cat_id(expz), cat_id(x)), u, u)
    return [lambda: cat_compose(s, s, max_arity=3), lambda: cat_compose(t, s, max_arity=3)]


@pytest.mark.parametrize(
    "make, build",
    [
        (two_isomorphic_objects, _twisted_composites),
        (lambda: disjoint_union(exp_object(FinGroupoid.discrete(("x",)), FinGroupoid.discrete(("y",)), 2),
                                FinGroupoid.discrete(("x",))), _sum_composites),
    ],
    ids=["twisted-blocks", "hom-monad-sums"],
)
def test_slice_plans_shared_within_a_groupoid_give_the_composite_built_alone(make, build):
    warm, fresh = make(), make()
    shared = [b() for b in build(warm)][-1]  # built after the others filled the memo of its groupoid
    before = {kind: len(entries) for kind, entries in warm.memo.items()}
    again = [b() for b in build(warm)][-1]
    assert {kind: len(entries) for kind, entries in warm.memo.items()} == before  # every plan was shared
    gc.collect()
    gc.disable()
    try:
        alone = build(fresh)[-1]()  # the only composite over its groupoid
        for comp in (shared, again):
            assert comp.reps == alone.reps and comp.seq.cells == alone.seq.cells
            assert _read_along_every_arrow(comp.seq) == _read_along_every_arrow(alone.seq)
        # the memo holds nothing that holds its groupoid, so reference counting frees it
        ref = weakref.ref(fresh)
        del alone, fresh
        assert ref() is None
    finally:
        gc.enable()


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
    lonely = CatSymSeq(g, g, {(("p", "q"), "p"): ("c",)}, None, None)
    with pytest.raises(ValidationError, match="not closed under isomorphism"):
        cat_compose(cat_id(g), lonely, max_arity=2)


UNIT_FACTORS = [
    lambda: cat_from_symseq(assoc_operad(3).carrier),
    lambda: cat_id(two_object_iso_groupoid()),
    lambda: cat_id(exp_object(FinGroupoid.discrete(("x", "y")), FinGroupoid.discrete(("z",)), 2)),
    lambda: _unary_and_binary(two_components())[0],
]
UNIT_IDS = ["assoc3", "iso-groupoid", "exp-object", "two-components"]


def _unit_composites(f):
    """``Id o F`` and ``F o Id`` up to the arity of ``F``."""
    return (cat_compose(cat_id(f.cod), f, max_arity=f.max_arity()),
            cat_compose(f, cat_id(f.dom), max_arity=f.max_arity()))


@pytest.mark.parametrize("make_f", UNIT_FACTORS[:3], ids=UNIT_IDS[:3])
def test_cat_unitors_send_each_unit_raw_to_its_label(make_f):
    # the raw of a label between identities is what an insertion classes;
    # each unit step must send it, and the representative of its class, back
    # to that label
    f = make_f()
    dom, cod = f.dom, f.cod
    idf, fid = _unit_composites(f)
    lu, ru = cat_left_unit(f), cat_right_unit(f)
    for (w, y), labels in f.cells.items():
        one = sw_id(dom, w)
        units = (tuple((o,) for o in w), tuple(dom.ident[o] for o in w))
        for lab in labels:
            for comp, step, raw in ((idf, lu, ((y,), cod.ident[y], (w,), (lab,), one)), (fid, ru, (w, lab) + units + (one,))):
                assert step((w, y), raw) == step((w, y), comp.rep(w, y, comp.class_of(w, y, raw))) == lab


@pytest.mark.parametrize("make_f", UNIT_FACTORS, ids=UNIT_IDS)
def test_unit_steps_and_insertions_are_the_unitors_and_their_inverses_on_every_related_raw(make_f):
    # the interchange and the sum splits apply a unit step to every
    # representative of a composite of sums, which is no representative of
    # Id o F or F o Id; here each step reads every raw one coend relation
    # away from a representative, with arrows along the outer label, the
    # inner labels and the raw's own arrow
    f = make_f()
    f.validate()
    idf, fid = _unit_composites(f)
    for comp, step, insert, unitor in (
        (idf, cat_left_unit(f), cat_left_insert(idf, f.cod.ident.__getitem__), cat_left_unitor(idf)),
        (fid, cat_right_unit(f), cat_right_insert(fid, f.dom.ident.__getitem__), cat_right_unitor(fid)),
    ):
        assert unitor.is_bijective()
        for key, reps in comp.reps.items():
            for c, rep in enumerate(reps):
                related = [rep] + [raw for _rep, raw in _all_arrow_edges(comp.outer, comp.inner, key[1], [rep])]
                assert {step(key, raw) for raw in related} == {unitor.at(*key, c)}, (key, rep)
        inserted = {key: {lab: insert(key, lab) for lab in labels} for key, labels in f.cells.items() if labels}
        assert inserted == map_inverse(unitor).comp


# --- transports are read one label at a time, from the builder's callbacks ---


def _read_along_every_arrow(seq):
    """Every transport of ``seq`` along the arrows it enumerates, read label by label, as nested lists."""
    return (
        [(key, sorted((arrow, [(l, seq.dom_at(key, *arrow, l)) for l in seq.cells[key]])
                      for arrow in seq.dom_arrows(key)))
         for key in seq.support()],
        [(key, sorted((b, [(l, seq.cod_at(key, b, l)) for l in seq.cells[key]]) for b in seq.cod_arrows(key)))
         for key in seq.support()],
    )


def _every_transport(seq, dom_fn, cod_fn):
    """The callbacks called along every arrow between support words of ``seq``, found apart from its own
    enumeration, in the shape of :func:`_read_along_every_arrow`."""
    words: dict = {}
    for w, y in seq.support():
        words.setdefault(y, []).append(w)
    dom_reads, cod_reads = [], []
    for key in seq.support():
        (w, y), labels = key, seq.cells[key]
        arrows = [(v, a) for v in words[y] if len(v) == len(w) for a in _fresh_arrows(seq.dom, v, w)]
        dom_reads.append((key, sorted((arrow, [(l, dom_fn(key, *arrow, l)) for l in labels]) for arrow in arrows)))
        cods = [b for y2 in seq.cod.objects for b in seq.cod.arrows(y, y2)]
        cod_reads.append((key, sorted((b, [(l, cod_fn(key, b, l)) for l in labels]) for b in cods)))
    return dom_reads, cod_reads


def _checked_reads(monkeypatch, build):
    """The builders of the sequences ``build()`` makes, each read along every arrow and checked against
    the callbacks the builder passed when it constructed the sequence."""
    import opdbim.catsym as catsym

    made = []
    original = catsym.CatSymSeq

    def recording(dom, cod, cells, dom_fn, cod_fn):
        made.append((original(dom, cod, cells, dom_fn, cod_fn), dom_fn, cod_fn))
        return made[-1][0]

    monkeypatch.setattr(catsym, "CatSymSeq", recording)
    build()
    monkeypatch.undo()
    builders = []
    for seq, dom_fn, cod_fn in made:
        builder = dom_fn.__qualname__.split(".")[0]
        assert _read_along_every_arrow(seq) == _every_transport(seq, dom_fn, cod_fn), builder
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


def _counted(seq):
    """A fresh copy of ``seq`` reading its transports, and the list of every label its callbacks move."""
    calls = []

    def dom_fn(key, v, a, lab):
        calls.append((key, v, a, lab))
        return seq.dom_at(key, v, a, lab)

    def cod_fn(key, b, lab):
        calls.append((key, b, lab))
        return seq.cod_at(key, b, lab)

    return CatSymSeq(seq.dom, seq.cod, dict(seq.cells), dom_fn, cod_fn), calls


@pytest.mark.parametrize(
    "make", [lambda: cat_from_symseq(assoc_operad(3).carrier), lambda: cat_id(two_object_iso_groupoid())],
    ids=["assoc3", "iso-groupoid"],
)
def test_no_label_is_transported_before_it_is_read_and_each_once(make):
    seq, calls = _counted(make())
    assert calls == []
    key = max(seq.support(), key=lambda k: len(seq.cells[k]))
    v, a = seq.dom_arrows(key)[-1]
    first = seq.cells[key][0]
    moved = seq.dom_at(key, v, a, first)
    assert seq.dom_at(key, v, a, first) == moved
    assert calls == [(key, v, a, first)]  # no other label of the cell, and no other arrow
    # validate reads every label along every arrow, most of them many times
    seq.validate()
    seq.validate()
    assert len(calls) == len(set(calls)) == sum(
        len(seq.cells[k]) * (len(seq.dom_arrows(k)) + len(seq.cod_arrows(k))) for k in seq.support()
    )


def test_a_read_along_a_non_arrow_or_of_a_label_outside_the_cell_raises_key_error():
    seq, calls = _counted(cat_from_symseq(assoc_operad(3).carrier))
    key = ((STAR,) * 3, STAR)
    v, swap = seq.dom_arrows(key)[1]
    label = seq.cells[key][0]
    two = (STAR, STAR)
    refused = [
        # an arrow from a word of another arity, one into another word, and one out of another output
        (lambda: seq.dom_at(key, two, swap, label), (two, swap)),
        (lambda: seq.dom_at(key, v, sw_id(seq.dom, two), label), (v, sw_id(seq.dom, two))),
        (lambda: seq.cod_at(key, ("id", "nowhere"), label), ("id", "nowhere")),
        # a label outside the cell, and a cell outside the support
        (lambda: seq.dom_at(key, v, swap, "no label"), "no label"),
        (lambda: seq.cod_at(key, ("id", STAR), "no label"), "no label"),
        (lambda: seq.dom_at(((STAR,) * 4, STAR), v, swap, label), ((STAR,) * 4, STAR)),
    ]
    for read, bad in refused:
        with pytest.raises(KeyError) as err:
            read()
        assert err.value.args == (bad,)
    assert calls == []  # a refused read calls no callback and keeps nothing
    assert seq.dom_at(key, v, swap, label) == seq.cells[key][1] and len(calls) == 1


def _lazy_copy(seq, dom_fn=None, cod_fn=None):
    """A fresh copy of ``seq``, none of its labels moved yet, reading its transports where ``dom_fn`` or
    ``cod_fn`` does not take their place."""
    return CatSymSeq(seq.dom, seq.cod, dict(seq.cells), dom_fn or seq.dom_at, cod_fn or seq.cod_at)


def _stays_across_words(seq):
    """A fresh copy of ``seq`` that leaves each label in place along every arrow between two different words."""
    return _lazy_copy(seq, lambda key, v, a, lab: lab if v != key[0] else seq.dom_at(key, v, a, lab))


def test_checks_along_every_arrow_read_the_tables_never_read_before():
    # each check must enumerate the arrows itself: on fresh copies no label
    # has been moved, so a check that walked the labels moved so far passes
    ident = cat_id(two_object_iso_groupoid())
    _lazy_copy(ident).validate()
    with pytest.raises(ValidationError, match="dom transport mistyped"):
        _stays_across_words(ident).validate()
    src, dst = _lazy_copy(ident), _stays_across_words(ident)
    with pytest.raises(ValidationError, match="equivariance fails"):
        src.check_equivariance(SymSeqMap(src, dst, {k: {l: l for l in labs} for k, labs in src.cells.items()}))
    # assoc(2) and a sequence of the same sizes on which the swap acts trivially
    swapped = cat_from_symseq(assoc_operad(2).carrier)
    cells = {key: YoungSet.trivial(key[0], labels) for key, labels in swapped.cells.items()}
    trivial = cat_from_symseq(SymSeq((STAR,), (STAR,), cells))
    assert cat_iso(_lazy_copy(swapped), _lazy_copy(swapped)) is not None
    assert cat_iso(_lazy_copy(swapped), _lazy_copy(trivial)) is None


def _doubled(dom_flip=None, cod_flip=None):
    """Two copies ``(l, 0)`` and ``(l, 1)`` of each label ``l`` of ``Id`` on two isomorphic objects, moved
    copywise, except that a move turns the copy over where ``dom_flip(key, a)`` or ``cod_flip(b)`` holds."""
    ident = cat_id(two_object_iso_groupoid())
    cells = {key: tuple((l, c) for c in (0, 1) for l in labs) for key, labs in ident.cells.items()}

    def dom_fn(key, v, a, lab):
        return ident.dom_at(key, v, a, lab[0]), lab[1] ^ bool(dom_flip and dom_flip(key, a))

    def cod_fn(key, b, lab):
        return ident.cod_at(key, b, lab[0]), lab[1] ^ bool(cod_flip and cod_flip(b))

    return CatSymSeq(ident.dom, ident.cod, cells, dom_fn, cod_fn)


@pytest.mark.parametrize(
    "make, refusal",
    [
        (lambda: _doubled(dom_flip=lambda key, a: True), "identity transport wrong"),
        # along f: p -> q but not back along g
        (lambda: _doubled(dom_flip=lambda key, a: a[1] == ("f",)), "dom functoriality fails"),
        (lambda: _lazy_copy(_doubled(), cod_fn=lambda key, b, lab: lab), "cod transport mistyped"),
        (lambda: _doubled(cod_flip=lambda b: b == "f"), "cod functoriality fails"),
        # each functorial, but only the cells at output p flip along f and g
        (lambda: _doubled(dom_flip=lambda key, a: a[1][0] in "fg" and key[1] == "p"), "dom/cod interchange fails"),
    ],
    ids=["identity", "dom-functoriality", "cod-mistyped", "cod-functoriality", "interchange"],
)
def test_validate_refuses_each_broken_law_of_a_functor(make, refusal):
    _doubled().validate()
    with pytest.raises(ValidationError) as err:
        make().validate()
    assert str(err.value).startswith(f"{refusal} at (('p',), 'p')")


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


def test_one_hom_monad_composes_over_one_union_groupoid(monkeypatch):
    # Z u X is built once per pair of groupoids and an operad's embedding has
    # one groupoid on both sides, so every sum and transpose of one hom monad
    # shares one groupoid, and with it one memo of plans
    import opdbim.catsym as catsym

    built = []
    for name in ("cat_sum", "transpose"):
        def recording(*args, original=getattr(catsym, name)):
            built.append(original(*args))
            return built[-1]

        monkeypatch.setattr(catsym, name, recording)
    hm = hom_monad(unit_operad(("x",), 2), com_operad(2), 2, 2)
    w = hm.evdata.seq.dom
    assert w is disjoint_union(hm.expz, hm.x)
    assert len(built) > 2 and all(s.dom is w and (s.cod is w or s.cod is hm.y) for s in built)


def test_a_corrupted_hom_monad_fails_naming_the_law_the_cell_and_the_class():
    hm = hom_monad(unit_operad(("x",), 2), com_operad(2), 2, 2)
    check_cat_monad(hm, 2)
    with pytest.raises(ValidationError) as err:
        check_cat_monad(dataclasses.replace(hm, mu=_corrupted(hm.mu, hm.e)), 2)
    assert str(err.value) == (
        "hom monad associativity fails at cell ((((), '*'), (('x', 'x'), '*')), (('x', 'x'), '*')), class 0: 1 != 0"
    )
    with pytest.raises(ValidationError, match=r"^hom monad left unit law fails at cell \(.+\), class .+: .+ != "):
        check_cat_monad(dataclasses.replace(hm, eta=_corrupted(hm.eta, hm.e)), 2)


# every hom monad input of the tier-1 tests besides those of HOM_MONAD_TABLES:
# sources cut above what the chain reads, and a window of length 1
OTHER_HOM_MONAD_INPUTS = [
    lambda: (com_operad(4), unit_operad(("y",), 2), 2, 2),
    lambda: (com_operad(5), unit_operad(("y",), 2), 2, 2),
    lambda: (assoc_operad(3), unit_operad(("y",), 2), 1, 2),
    lambda: (assoc_operad(4), unit_operad(("y",), 2), 1, 2),
    lambda: (unit_operad(("x",), 2), com_operad(2), 1, 2),
]


def test_hom_monad_unit_laws_read_per_label_accept_and_refuse_where_the_chains_on_id_o_e_do(monkeypatch):
    # each law check records whether it holds and raises nothing, so the
    # right unit law of the corrupted eta is compared too
    import opdbim.catsym as catsym

    verdicts = []
    monkeypatch.setattr(catsym, "require_equal", lambda law, a, b: verdicts.append((law, map_equal(a, b))))
    inputs = [args() for args in [args for args, _mu, _eta in HOM_MONAD_TABLES.values()] + OTHER_HOM_MONAD_INPUTS]
    hms = [(hom_monad(*args), args[3]) for args in inputs]
    hm, cap = hms[0]
    hms.append((dataclasses.replace(hm, eta=_corrupted(hm.eta, hm.e)), cap))
    for hm, cap in hms:
        verdicts.clear()
        check_cat_monad(hm, cap)
        expected = [map_equal(*sides) for sides in cat_monad_unit_chains(hm, cap)]
        assert verdicts[1:] == [("hom monad left unit law", expected[0]), ("hom monad right unit law", expected[1])]
    assert expected == [False, False]
