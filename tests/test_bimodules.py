import itertools
import random
import re

import pytest

from opdbim.perms import InputError, Perm, ValidationError, YoungSet, canonical_word
from opdbim.symseq import (
    Family,
    SymSeq,
    SymSeqMap,
    compose_maps,
    compose_symseq,
    id_symseq,
    identity_map,
    map_equal,
)
from opdbim.operads import (
    assoc_operad,
    com_operad,
    enumerate_algebras,
    identity_morphism,
    make_operad,
    operad_morphism,
    unit_operad,
)
from opdbim.bimodules import (
    BimAdjunction,
    Bimodule,
    adjunction_from_operad,
    algebra_as_module,
    bimodule_of_lax,
    bimodule_of_oplax,
    check_bimodule_laws,
    check_bimodule_map,
    delta_lower,
    delta_upper,
    enumerate_bimodule_maps,
    enumerate_bimodules,
    extension,
    free_bimodule,
    free_left_module,
    identity_bimodule,
    left_module,
    make_bimodule,
    rel_associator,
    rel_hcompose,
    rel_left_unitor,
    rel_right_unitor,
    relative_compose,
    restriction,
    restrict_map,
    transport_adjunction,
    u_circ,
    u_lower_circ,
)
from opdbim.samples import rand_bimodule, rand_operad
from oracles import iso_symseq, lax_chain, morphism_unit_chain, oplax_rho_chain, sym_triangle_chains, transport_chain

STAR = "*"


def make_morphism():
    a = unit_operad(("a", "b"), 2)
    b = com_operad(2)
    u = {"a": STAR, "b": STAR}
    xi = {key: {lab: 0 for lab in cell.labels} for key, cell in a.carrier.cells.items()}
    return operad_morphism(a, b, u, xi)


def test_identity_bimodule_laws():
    for op in (unit_operad((STAR,), 2), com_operad(3)):
        check_bimodule_laws(identity_bimodule(op))


def test_unit_operads_any_symseq_is_bimodule():
    # over unit operads the actions are forced, any sequence qualifies
    from oracles import left_unitor, right_unitor

    u1 = unit_operad(("a",), 2)
    u2 = unit_operad(("b",), 2)
    carrier = SymSeq(("a",), ("b",), {(("a", "a"), "b"): YoungSet.trivial(("a", "a"), ("m",))})
    bm = compose_symseq(u2.carrier, carrier, max_arity=2)
    ma = compose_symseq(carrier, u1.carrier, max_arity=2)
    b = Bimodule(u2, u1, carrier, left_unitor(bm), right_unitor(ma), 2, bm, ma)
    check_bimodule_laws(b)


def test_perturbed_action_fails():
    com = com_operad(2)
    seed = SymSeq((STAR,), (STAR,), {((STAR,), STAR): YoungSet.trivial((STAR,), ("v",))})
    good = free_bimodule(com, com, seed, window=2)

    bad_rho_comp = {}
    for key, m in good.rho.comp.items():
        bad_rho_comp[key] = dict(m)
    # twist one binary cell of the right action
    for key in bad_rho_comp:
        cell = good.carrier.cell(*key)
        if len(key[0]) == 2 and cell is not None and cell.size >= 2:
            m = bad_rho_comp[key]
            perm = {
                lab: cell.labels[(cell.index(lab) + 1) % cell.size] for lab in cell.labels
            }
            bad_rho_comp[key] = {k: perm[v] for k, v in m.items()}
            break
    with pytest.raises(ValidationError):
        Bimodule(
            good.left, good.right, good.carrier, good.lam,
            SymSeqMap(good.rho.src, good.rho.dst, bad_rho_comp),
            good.window, good.bm, good.ma,
        )


def test_every_bimodule_built_is_law_checked(monkeypatch):
    # the unitor composites, the identity bimodules and the composites of both
    # adjunctions are checked like any other bimodule: by their constructor
    import opdbim.bimodules as bimodules
    from opdbim.symseq import map_inverse
    from oracles import left_unitor, right_unitor

    built, checked = [], []
    init, check = Bimodule.__init__, bimodules.check_bimodule_laws

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_check(b):
        checked.append(b)
        check(b)

    com = com_operad(2)
    v = SymSeq((STAR,), (STAR,), {((STAR,), STAR): YoungSet.trivial((STAR,), ("v",))})
    m = free_bimodule(com, com, v, window=2)
    f = id_symseq((STAR,))
    ff = compose_symseq(f, f, max_arity=2)
    u_bf = compose_symseq(f, compose_symseq(com.carrier, f, max_arity=2).seq, max_arity=2)
    a_id = compose_symseq(com.carrier, f, max_arity=2)
    xi = compose_maps(map_inverse(left_unitor(u_bf)), map_inverse(right_unitor(a_id)))
    xi = SymSeqMap(com.carrier, u_bf.seq, xi.comp)
    monkeypatch.setattr(Bimodule, "__init__", counting_init)
    monkeypatch.setattr(bimodules, "check_bimodule_laws", counting_check)
    rel_left_unitor(m)
    rel_right_unitor(m)
    adjunction_from_operad(com)
    transport_adjunction(f, f, map_inverse(left_unitor(ff)), left_unitor(ff), com, com, xi, window=2)
    assert len(built) == len(checked)
    assert {id(b) for b in built} == {id(b) for b in checked}


def test_relative_compose_unitors():
    com = com_operad(3)
    ib = identity_bimodule(com)
    l, rel = rel_left_unitor(ib)
    l.validate()
    assert l.is_bijective()
    check_bimodule_map(l, rel.bimodule, ib)
    r, rel2 = rel_right_unitor(ib)
    assert r.is_bijective()
    check_bimodule_map(r, rel2.bimodule, ib)
    # on B o_B B both unitors are induced by the multiplication and agree
    assert map_equal(l, r)


def test_relative_compose_over_unit_is_plain():
    u1 = unit_operad(("a",), 2)
    u2 = unit_operad(("b",), 2)
    u3 = unit_operad(("c",), 2)
    m_car = SymSeq(("a",), ("b",), {(("a",), "b"): YoungSet.trivial(("a",), ("m0", "m1"))})
    n_car = SymSeq(("b",), ("c",), {(("b",), "c"): YoungSet.trivial(("b",), ("n0",))})
    from oracles import left_unitor, right_unitor

    def as_bim(left, right, car):
        bm = compose_symseq(left.carrier, car, max_arity=2)
        ma = compose_symseq(car, right.carrier, max_arity=2)
        return Bimodule(left, right, car, left_unitor(bm), right_unitor(ma), 2, bm, ma)

    m = as_bim(u2, u1, m_car)
    n = as_bim(u3, u2, n_car)
    rel = relative_compose(n, m)
    plain = compose_symseq(n_car, m_car, max_arity=2)
    assert rel.proj.is_bijective()
    for key, cell in plain.seq.cells.items():
        assert rel.bimodule.carrier.size(*key) == cell.size


def _check_pentagon(l, m, n, p) -> None:
    """The pentagon of relative associators on ``P o N o M o L`` commutes."""
    nm = relative_compose(n, m)
    ml = relative_compose(m, l)
    pn = relative_compose(p, n)
    nm_l = relative_compose(nm.bimodule, l)
    n_ml = relative_compose(n, ml.bimodule)
    pn_m = relative_compose(pn.bimodule, m)
    p_nm = relative_compose(p, nm.bimodule)
    pnm_l = relative_compose(pn_m.bimodule, l)
    p_nm_l = relative_compose(p_nm.bimodule, l)
    p__nm_l = relative_compose(p, nm_l.bimodule)
    p__n_ml = relative_compose(p, n_ml.bimodule)
    pn__ml = relative_compose(pn.bimodule, ml.bimodule)

    a1 = rel_associator(pn, pn_m, nm, p_nm)
    m1 = rel_hcompose(a1, identity_map(l.carrier), pnm_l, p_nm_l)
    m2 = rel_associator(p_nm, p_nm_l, nm_l, p__nm_l)
    a2 = rel_associator(nm, nm_l, ml, n_ml)
    m3 = rel_hcompose(identity_map(p.carrier), a2, p__nm_l, p__n_ml)
    path1 = compose_maps(m3, compose_maps(m2, m1))
    b1 = rel_associator(pn_m, pnm_l, ml, pn__ml)
    b2 = rel_associator(pn, pn__ml, n_ml, p__n_ml)
    path2 = compose_maps(b2, b1)
    assert map_equal(path1, path2)


def test_rel_pentagon_sampled():
    rng = random.Random(17)
    window = 2
    ops = [rand_operad(rng, window) for _ in range(5)]
    _check_pentagon(*(rand_bimodule(rng, ops[i + 1], ops[i], window) for i in range(4)))


def test_pentagon_builds_as_many_composites_without_the_cyclic_collector(monkeypatch):
    # composites are shared by content while anyone holds them, so a cycle that
    # keeps one alive until the collector runs changes how many are built again
    import gc

    from opdbim.symseq import Composite

    built = [0]
    init = Composite.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Composite, "__init__", counting)

    def builds() -> int:
        gc.collect()
        built[0] = 0
        for seed in range(6):
            rng = random.Random(seed)
            ops = [rand_operad(rng, 2) for _ in range(5)]
            _check_pentagon(*(rand_bimodule(rng, ops[i + 1], ops[i], 2) for i in range(4)))
        return built[0]

    collected = builds()
    gc.disable()
    try:
        kept = builds()
    finally:
        gc.enable()
    assert collected == kept > 0


def test_adjunction_from_operads():
    adjunction_from_operad(unit_operad((STAR,), 2))
    adj = adjunction_from_operad(com_operad(3))
    # U o_A F recovers the operad itself
    assert iso_symseq(adj.gf.bimodule.carrier, com_operad(3).carrier) is not None


def _identity_morphism_inputs(op):
    """``(F, phi, psi)`` for ``F = Id``: phi and psi transport along the two unitors."""
    from opdbim.symseq import map_inverse
    from oracles import left_unitor, right_unitor

    f = id_symseq((STAR,))
    bf = compose_symseq(op.carrier, f, max_arity=2)
    fb = compose_symseq(f, op.carrier, max_arity=2)
    phi = compose_maps(map_inverse(left_unitor(fb)), right_unitor(bf))
    return f, phi, compose_maps(map_inverse(right_unitor(bf)), left_unitor(fb))


def test_bimodule_of_lax_identity():
    com = com_operad(2)
    # identity monad morphism: phi is the canonical iso B o Id -> Id o B sort of
    f, phi, psi = _identity_morphism_inputs(com)
    lax = bimodule_of_lax(f, com, com, phi, window=2)
    assert iso_symseq(lax.carrier, com.carrier) is not None
    oplax = bimodule_of_oplax(f, com, com, psi, window=2)
    assert iso_symseq(oplax.carrier, com.carrier) is not None


@pytest.mark.parametrize("builder, law", [(bimodule_of_lax, "phi"), (bimodule_of_oplax, "psi")])
def test_morphism_builders_validate_their_two_cell(builder, law):
    # the regroup step reads non-representative raws, so a 2-cell that is not
    # equivariant must be refused before any law reads it: here every class of
    # the arity-2 cell of assoc(2) goes to its least image
    op = assoc_operad(2)
    f, phi, psi = _identity_morphism_inputs(op)
    twist = {"phi": phi, "psi": psi}[law]
    key = ((STAR, STAR), STAR)
    least = min(twist.comp[key].values())
    comp = {**twist.comp, key: {lab: least for lab in twist.comp[key]}}
    with pytest.raises(ValidationError, match=rf"^equivariance fails at cell {re.escape(str(key))}, generator 0, label 0$"):
        builder(f, op, op, SymSeqMap(twist.src, twist.dst, comp), window=2)


def _projection_inputs():
    """``(F, A x B, A, phi)``: the projection of ``com(2) x com(2)`` onto its first factor as a lax morphism."""
    from opdbim.catsym import product_operad

    a = com_operad(2)
    b = com_operad(2)
    prod = product_operad(a, b)
    # the projection delta onto the first factor
    tag_a = [s for s in prod.sorts if s[0] == "l"][0]
    f = SymSeq(prod.sorts, (STAR,), {((tag_a,), STAR): YoungSet.trivial((tag_a,), ("p",))})
    bf = compose_symseq(a.carrier, f, max_arity=2)
    fp = compose_symseq(f, prod.carrier, max_arity=2)
    phi_comp = {}
    for key, reps in bf.reps.items():
        w, out = key
        m = {}
        for idx, raw in enumerate(reps):
            mid, g, blocks, fs, sig = raw
            # move the outer com label into the product operad cell
            praw = (w, g, tuple((s,) for s in w), tuple("p" for _ in w), tuple(sig))
            prod_cell_raw = ((tag_a,), "p", (w,), (g,), Perm.identity(len(w)).images)
            m[idx] = fp.class_of(w, out, prod_cell_raw)
        phi_comp[key] = m
    return f, prod, a, SymSeqMap(bf.seq, fp.seq, phi_comp)


def test_projection_lax_morphism_for_product():
    f, prod, a, phi = _projection_inputs()
    tag_a = [s for s in prod.sorts if s[0] == "l"][0]
    lax = bimodule_of_lax(f, prod, a, phi, window=2)
    # the projection bimodule has cells P[w; tagged output]
    for (w, out), cell in lax.carrier.cells.items():
        if cell.size:
            assert prod.carrier.size(w, tag_a) == cell.size


def _transport_identity_inputs():
    """``(F, U, eta, eps, A, B, xi)`` of the identity adjunction over ``com(2)``."""
    com = com_operad(2)
    f = id_symseq((STAR,))
    ff = compose_symseq(f, f, max_arity=2)
    from opdbim.symseq import map_inverse
    from oracles import left_unitor

    eta = map_inverse(left_unitor(ff))
    eps = left_unitor(ff)
    # xi: A -> Id o (A o Id): reindex along the unitors
    bf = compose_symseq(com.carrier, f, max_arity=2)
    u_bf = compose_symseq(f, bf.seq, max_arity=2)
    from oracles import right_unitor

    a_id = compose_symseq(com.carrier, f, max_arity=2)
    xi = compose_maps(map_inverse(left_unitor(u_bf)), map_inverse(right_unitor(a_id)))
    return f, f, eta, eps, com, com, SymSeqMap(com.carrier, u_bf.seq, xi.comp)


def test_transport_identity_adjunction():
    inputs = _transport_identity_inputs()
    com = inputs[4]
    adj = transport_adjunction(*inputs, window=2)
    assert iso_symseq(adj.left.carrier, com.carrier) is not None
    assert iso_symseq(adj.right.carrier, com.carrier) is not None


def _transport_circ_inputs(phi):
    """``(F, U, eta, eps, A, B, xi)`` of the adjunction ``delta^phi -| delta_phi`` that transports to ``u° -| u_o``."""
    a, b, u = phi.src, phi.dst, phi.u
    du, dl = delta_upper(phi), delta_lower(phi)
    uf = compose_symseq(dl, du, max_arity=2)
    fu = compose_symseq(du, dl, max_arity=2)
    eta_comp = {}
    for x in ("a", "b"):
        raw = ((STAR,), ("pt", x), ((x,),), (("pt", x),), (0,))
        eta_comp[((x,), x)] = {("id", x): uf.class_of((x,), x, raw)}
    eta = SymSeqMap(id_symseq(("a", "b")), uf.seq, eta_comp)
    eps = SymSeqMap(
        fu.seq,
        id_symseq((STAR,)),
        {key: {lab: ("id", key[1]) for lab in cell.labels} for key, cell in fu.seq.cells.items()},
    )
    bf = compose_symseq(b.carrier, du, max_arity=2)
    u_bf = compose_symseq(dl, bf.seq, max_arity=2)
    xi_comp = {}
    for (w, x), cell in a.carrier.cells.items():
        c_y, tau = canonical_word(tuple(u[s] for s in w))
        taui = tau.inverse()
        blocks = tuple((w[taui(p)],) for p in range(len(w)))
        fs = tuple(("pt", w[taui(p)]) for p in range(len(w)))
        bf_cls = bf.class_of(w, u[x], (c_y, 0, blocks, fs, taui.images))
        raw = ((u[x],), ("pt", x), (w,), (bf_cls,), Perm.identity(len(w)).images)
        xi_comp[(w, x)] = {lab: u_bf.class_of(w, x, raw) for lab in cell.labels}
    return du, dl, eta, eps, a, b, SymSeqMap(a.carrier, u_bf.seq, xi_comp)


def test_transport_yields_circ_bimodules():
    phi = make_morphism()
    b = phi.dst
    uc = u_circ(phi)
    ulc = u_lower_circ(phi)
    du, dl = delta_upper(phi), delta_lower(phi)
    b_du = compose_symseq(b.carrier, du, max_arity=2)
    dl_b = compose_symseq(dl, b.carrier, max_arity=2)
    assert iso_symseq(uc.carrier, b_du.seq) is not None
    assert iso_symseq(ulc.carrier, dl_b.seq) is not None
    adj = transport_adjunction(*_transport_circ_inputs(phi), window=2)
    assert iso_symseq(adj.left.carrier, uc.carrier) is not None
    assert iso_symseq(adj.right.carrier, ulc.carrier) is not None


def test_restriction_extension_adjunction_counts():
    phi = make_morphism()
    a, b = phi.src, phi.dst
    k = ("k",)
    rng = random.Random(9)
    checked = 0
    for m_cells, n_cells in [
        ({(("k",), "a"): ("m0",)}, {(("k",), STAR): ("n0",)}),
        ({(("k",), "b"): ("m0", "m1")}, {(("k",), STAR): ("n0",)}),
        ({(("k",), "a"): ("m0",)}, {(("k", "k"), STAR): ("n0",)}),
    ]:
        vm = SymSeq(k, ("a", "b"), {key: YoungSet.trivial(key[0], labs) for key, labs in m_cells.items()})
        vn = SymSeq(k, (STAR,), {key: YoungSet.trivial(key[0], labs) for key, labs in n_cells.items()})
        m = free_left_module(a, k, vm, window=2)
        n = free_left_module(b, k, vn, window=2)
        um = extension(phi, m)
        rn = restriction(phi, n)
        assert enumerate_bimodule_maps(um.bimodule, n) == enumerate_bimodule_maps(m, rn)
        checked += 1
    assert checked == 3


def test_enumerate_bimodules_counts():
    u1 = unit_operad((STAR,), 3)
    u2 = unit_operad(("o",), 3)
    assert enumerate_bimodules(u1, u2, {((STAR, STAR), "o"): 2}) == 2
    # a free cell with trivial stabilizer contributes exactly one structure
    assert enumerate_bimodules(u1, u2, {((STAR,), "o"): 2}) == 1


def test_bimodule_maps_of_identity():
    com = com_operad(2)
    idb = identity_bimodule(com)
    assert enumerate_bimodule_maps(idb, idb) == 1


def test_modules_subsume_algebras():
    com = com_operad(2)
    count_alg = enumerate_algebras(com, 2)
    from opdbim.operads import terminal_operad

    top = terminal_operad()
    count_bim = enumerate_bimodules(top, com, {((), STAR): 2})
    assert count_alg == count_bim == 8


def test_coequalizer_universal_property():
    com = com_operad(2)
    ib = identity_bimodule(com)
    l, rel = rel_left_unitor(ib)
    # the projection is surjective cellwise and the split-fork map factors it
    mu_map = restrict_map(com.mu, rel.nm.seq, com.carrier)
    for key, cm in rel.proj.comp.items():
        assert set(cm.values()) == set(range(len(rel.lift[key])))
    assert map_equal(compose_maps(l, rel.proj), mu_map)


def test_bim_extends_sym_fully_faithfully():
    # between unit operads the relative and plain composites agree on the nose
    u1 = unit_operad(("a",), 2)
    m_car = SymSeq(("a",), ("a",), {(("a", "a"), "a"): YoungSet.trivial(("a", "a"), ("m",))})
    from oracles import left_unitor, right_unitor

    bm = compose_symseq(u1.carrier, m_car, max_arity=2)
    ma = compose_symseq(m_car, u1.carrier, max_arity=2)
    m = Bimodule(u1, u1, m_car, left_unitor(bm), right_unitor(ma), 2, bm, ma)
    rel = relative_compose(m, m)
    plain = compose_symseq(m_car, m_car, max_arity=2)
    assert rel.proj.is_bijective()
    assert sorted(k for k, c in rel.bimodule.carrier.cells.items() if c.size) == sorted(
        k for k, c in plain.seq.cells.items() if c.size
    )


def test_algebra_as_module_laws():
    com = com_operad(2)
    fam = Family((STAR,), {STAR: (0, 1)})
    act = {}
    for n in (1, 2):
        w = (STAR,) * n
        act[(w, STAR)] = {(0, tv): min(tv) for tv in itertools.product((0, 1), repeat=n)}
    from opdbim.operads import make_algebra

    alg = make_algebra(com, fam, act)
    mod = algebra_as_module(alg)  # validates on construction
    assert mod.carrier.size((), STAR) == 2


def unique_map(src, dst):
    """The unique 2-cell between sequences all of whose cells are singletons."""
    comp = {}
    for key, cell in src.cells.items():
        if cell.size == 0:
            continue
        tgt = dst.cell(*key)
        assert tgt is not None and tgt.size == 1
        comp[key] = {lab: tgt.labels[0] for lab in cell.labels}
    return SymSeqMap(src, dst, comp)


def _collapse_inputs():
    """``(F, A, B, phi)`` of the sort collapses ``L0``, ``L1`` and ``L1 o L0`` between unit operads, at window 2."""
    a1 = unit_operad(("a", "b", "c"), 2)
    a2 = unit_operad(("d", "e"), 2)
    a3 = unit_operad((STAR,), 2)
    u1 = {"a": "d", "b": "d", "c": "e"}
    u2 = {"d": STAR, "e": STAR}

    def delta_seq(u, dom_sorts, cod_sorts):
        cells = {
            ((u[x],), x): YoungSet.trivial((u[x],), (("pt", x),)) for x in cod_sorts
        }
        return SymSeq(dom_sorts, cod_sorts, cells)

    f1 = delta_seq(u1, ("d", "e"), ("a", "b", "c"))   # (d,e) -> (a,b,c)
    f0 = delta_seq(u2, (STAR,), ("d", "e"))           # (*) -> (d,e)
    w = 2

    def lax_of(f, src_op, dst_op):
        bf = compose_symseq(dst_op.carrier, f, max_arity=w)
        fa = compose_symseq(f, src_op.carrier, max_arity=w)
        return f, src_op, dst_op, unique_map(bf.seq, fa.seq)

    u = {x: u2[u1[x]] for x in ("a", "b", "c")}
    return [
        lax_of(f0, a3, a2),   # ({*}, unit) -> ({d,e}, unit)
        lax_of(f1, a2, a1),   # ({d,e}, unit) -> ({a,b,c}, unit)
        lax_of(delta_seq(u, (STAR,), ("a", "b", "c")), a3, a1),
    ]


def test_lax_morphisms_compose_up_to_iso():
    # R(L1 o L0) ~ R(L1) o R(L0) for two sort collapses between unit operads
    r0, r1, r01 = (bimodule_of_lax(*inputs, window=2) for inputs in _collapse_inputs())
    rel = relative_compose(r1, r0)
    assert iso_symseq(rel.bimodule.carrier, r01.carrier) is not None


def test_restriction_preserves_module_maps():
    phi = make_morphism()
    a, b = phi.src, phi.dst
    k = ("k",)
    vn = SymSeq(k, (STAR,), {(("k",), STAR): YoungSet.trivial(("k",), ("n0", "n1"))})
    vn2 = SymSeq(k, (STAR,), {(("k",), STAR): YoungSet.trivial(("k",), ("m0",))})
    n = free_left_module(b, k, vn, window=2)
    n2 = free_left_module(b, k, vn2, window=2)
    seed = SymSeqMap(vn, vn2, {(("k",), STAR): {"n0": "m0", "n1": "m0"}})
    bvn = compose_symseq(b.carrier, vn, max_arity=2)
    bvn2 = compose_symseq(b.carrier, vn2, max_arity=2)
    from opdbim.symseq import hcompose_maps, identity_map as idm

    f = hcompose_maps(idm(b.carrier), seed, bvn, bvn2)
    check_bimodule_map(f, n, n2)
    rn, rn2 = restriction(phi, n), restriction(phi, n2)
    restricted_comp = {}
    for (kw, x), cell in rn.carrier.cells.items():
        restricted_comp[(kw, x)] = dict(f.comp[(kw, phi.u[x])])
    rf = SymSeqMap(rn.carrier, rn2.carrier, restricted_comp)
    check_bimodule_map(rf, rn, rn2)


def test_restriction_and_extension_along_identity():
    from opdbim.operads import identity_morphism

    b = com_operad(2)
    phi = identity_morphism(b)
    k = ("k",)
    vn = SymSeq(k, (STAR,), {(("k",), STAR): YoungSet.trivial(("k",), ("n0",))})
    n = free_left_module(b, k, vn, window=2)
    rn = restriction(phi, n)
    assert {k2: c.size for k2, c in rn.carrier.cells.items()} == {
        k2: c.size for k2, c in n.carrier.cells.items()
    }
    un = extension(phi, n)
    assert iso_symseq(un.bimodule.carrier, n.carrier) is not None


def test_restrict_map_names_a_cell_the_map_lacks():
    # com(2) has no multiplication above arity 2, so a window of 3 asks restrict_map
    # for a cell of com o com that mu does not hold; it used to be a bare KeyError
    with pytest.raises(ValidationError, match=re.escape(f"map undefined at cell {((STAR,) * 3, STAR)!r}")):
        free_left_module(com_operad(2), (STAR,), id_symseq((STAR,)), window=3)


# --- one unary cell: each law failure names its law ----------------------------


def _unary_operad(mul):
    """Labels ``{e, a}`` on one unary cell, unit ``e``, ``mul(outer, inner)``."""
    carrier = SymSeq((STAR,), (STAR,), {((STAR,), STAR): YoungSet.trivial((STAR,), ("e", "a"))})
    return make_operad(carrier, lambda key, raw: mul(raw[1], raw[3][0]), {STAR: "e"}, 1)


def _z2():
    return _unary_operad(lambda g, f: "e" if g == f else "a")  # a.a = e


def _j():
    return _unary_operad(lambda g, f: "a" if "a" in (g, f) else "e")  # a.a = a


def _unary_bimodule(left, right, lam, rho):
    """Labels ``{p, q}`` on one unary cell; ``lam(b, x)`` and ``rho(x, a)`` act on them."""
    carrier = SymSeq((STAR,), (STAR,), {((STAR,), STAR): YoungSet.trivial((STAR,), ("p", "q"))})
    return make_bimodule(
        left, right, carrier,
        lambda key, raw: lam(raw[1], raw[3][0]),
        lambda key, raw: rho(raw[1], raw[3][0]),
    )


def _unit():
    return unit_operad((STAR,), 1)


def _keep(b, x):
    return x


def test_constant_multiplication_fails_the_operad_left_unit_law():
    with pytest.raises(ValidationError, match=r"^left unit law fails at cell"):
        _unary_operad(lambda g, f: "a")  # associative, but e.e = a


def test_keeping_the_inner_label_fails_the_operad_right_unit_law():
    with pytest.raises(ValidationError, match=r"^right unit law fails at cell"):
        _unary_operad(lambda g, f: f)  # associative and e.x = x, but a.e = e


def test_constant_left_action_fails_the_left_action_unit():
    with pytest.raises(ValidationError, match=r"^left action unit fails at cell"):
        _unary_bimodule(_z2(), _unit(), lambda b, x: "p", lambda x, a: x)


def test_constant_right_action_fails_the_right_action_unit():
    with pytest.raises(ValidationError, match=r"^right action unit fails at cell"):
        _unary_bimodule(_unit(), _z2(), _keep, lambda x, a: "p")


def test_lawful_actions_that_do_not_commute_fail_commuting_actions():
    def swap(b, x):
        return {"p": "q", "q": "p"}[x] if b == "a" else x

    def to_p(x, a):
        return "p" if a == "a" else x

    _unary_bimodule(_z2(), _unit(), swap, lambda x, a: x)
    _unary_bimodule(_unit(), _j(), _keep, to_p)
    with pytest.raises(ValidationError, match=r"^commuting actions fails at cell"):
        _unary_bimodule(_z2(), _j(), swap, to_p)


def test_middle_operads_on_equal_cells_but_other_products_are_refused():
    # Z2 and J share their one cell {e, a} and differ only in a.a
    z2, j = _z2(), _j()
    assert z2.carrier.cells == j.carrier.cells
    with pytest.raises(InputError, match="middle operads do not match"):
        relative_compose(identity_bimodule(z2), identity_bimodule(j))
    with pytest.raises(InputError, match="not a left module over the morphism target"):
        restriction(identity_morphism(z2), identity_bimodule(j))
    relative_compose(identity_bimodule(z2), identity_bimodule(z2))


def test_a_carrier_checked_before_still_has_every_action_law_checked():
    # the first bimodule leaves the fixtures of the carrier {p, q} with Z2 and J;
    # each later carrier of that content reads them, and every unlawful action
    # on it is still refused, naming its law
    z2, j = _z2(), _j()
    _unary_bimodule(z2, j, _keep, lambda x, a: x)
    held = {id(op): dict(op.memo) for op in (z2, j)}
    assert all(held.values())

    def swap(b, x):
        return {"p": "q", "q": "p"}[x] if b == "a" else x

    unlawful = [
        ("left action unit", lambda b, x: "p", lambda x, a: x),
        ("left action associativity", lambda b, x: "p" if b == "a" else x, lambda x, a: x),
        ("right action unit", _keep, lambda x, a: "p"),
        ("commuting actions", swap, lambda x, a: "p" if a == "a" else x),
    ]
    for law, lam, rho in unlawful:
        with pytest.raises(ValidationError, match=rf"^{law} fails at cell {CELL}"):
            _unary_bimodule(z2, j, lam, rho)
    _unary_bimodule(z2, j, _keep, lambda x, a: x)
    # no fixture was built again: each check read the ones the first carrier left
    for op in (z2, j):
        assert op.memo.keys() == held[id(op)].keys()
        assert all(op.memo[k] is v for k, v in held[id(op)].items())


def _fixture_parts(memo: dict) -> list:
    """The composites and maps that the fixtures in an operad's memo hold."""
    from functools import partial

    from opdbim.symseq import Composite

    parts, todo = [], list(memo.values())
    while todo:
        x = todo.pop()
        if isinstance(x, (tuple, list)):
            todo.extend(x)
        elif isinstance(x, partial):
            todo.extend(x.args)
            todo.extend(x.keywords.values())
        elif isinstance(x, (Composite, SymSeqMap)):
            parts.append(x)
    return parts


def test_an_operad_its_bimodules_and_their_fixtures_are_freed_by_reference_counting():
    # the fixtures live in the operad's memo and hold nothing that holds the
    # operad, the identity bimodule's (left and right operad one object) included
    import gc
    import weakref

    gc.collect()
    gc.disable()
    try:
        com = com_operad(2)
        v = SymSeq((STAR,), (STAR,), {((STAR,), STAR): YoungSet.trivial((STAR,), ("v", "w"))})
        m = free_bimodule(com, com, v, window=2)
        ident = identity_bimodule(com)
        rel = relative_compose(ident, m)
        parts = _fixture_parts(com.memo)
        assert len(parts) > 4
        refs = [weakref.ref(x) for x in (com, m, ident, rel.bimodule, *parts)]
        del com, v, m, ident, rel, parts
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


# --- (op)lax morphism and Sym adjunction laws: each failure names its law --------


CELL = re.escape(str(((STAR,), STAR)))  # the one unary cell, as a failure prints it


def _unary_twist(op, label_map, lax):
    """``phi: B o F -> F o A`` (``lax``) or ``psi: F o A -> B o F`` for ``F = Id``, ``A = B = op``.

    It reads the ``op`` label through the unitors and sends it along ``label_map``.
    """
    from opdbim.symseq import map_inverse
    from oracles import left_unitor, right_unitor

    f = id_symseq((STAR,))
    bf = compose_symseq(op.carrier, f, max_arity=1)
    fa = compose_symseq(f, op.carrier, max_arity=1)
    twist = SymSeqMap(op.carrier, op.carrier, {((STAR,), STAR): label_map})
    if lax:
        return f, compose_maps(map_inverse(left_unitor(fa)), compose_maps(twist, right_unitor(bf)))
    return f, compose_maps(map_inverse(right_unitor(bf)), compose_maps(twist, left_unitor(fa)))


@pytest.mark.parametrize("builder, lax, law", [
    (bimodule_of_lax, True, "lax morphism"),
    (bimodule_of_oplax, False, "oplax morphism"),
])
def test_morphism_laws_are_named(builder, lax, law):
    z2, j = _z2(), _j()
    f, keep = _unary_twist(z2, {"e": "e", "a": "a"}, lax)
    builder(f, z2, z2, keep, window=1)
    f, swap = _unary_twist(z2, {"e": "a", "a": "e"}, lax)
    with pytest.raises(ValidationError, match=rf"^{law} multiplication square fails at cell {CELL}, class 0: 1 != 0$"):
        builder(f, z2, z2, swap, window=1)
    # a.a = a in J, so the constant map at a commutes with mu but not with eta;
    # the triangle is read per label of F, here Id's one label
    f, const = _unary_twist(j, {"e": "a", "a": "a"}, lax)
    label = re.escape(repr(("id", STAR)))
    with pytest.raises(ValidationError, match=rf"^{law} unit triangle fails at cell {CELL}, class {label}: 1 != 0$"):
        builder(f, j, j, const, window=1)


def _sym_left_triangle_mutant():
    """``(F, U, eta, eps, A, B, xi)`` whose ``eta`` and ``eps`` break the left Sym triangle, at window 1."""
    f = SymSeq((STAR,), (STAR,), {((STAR,), STAR): YoungSet.trivial((STAR,), ("p", "q"))})
    ff = compose_symseq(f, f, max_arity=1)
    ident = id_symseq((STAR,))
    eta = SymSeqMap(ident, ff.seq, {((STAR,), STAR): {("id", STAR): 0}})
    eps = SymSeqMap(ff.seq, ident, {k: {c: ("id", STAR) for c in cell.labels} for k, cell in ff.seq.cells.items()})
    unit = _unit()
    return f, f, eta, eps, unit, unit, identity_map(unit.carrier)


def test_sym_adjunction_left_triangle_is_named():
    law = r"^Sym adjunction triangle \(left\) fails at cell "
    with pytest.raises(ValidationError, match=law + CELL + r", class 'q': 'p' != 'q'$"):
        transport_adjunction(*_sym_left_triangle_mutant(), window=1)


# --- each unit law, read per label, against the chain through built Id o F and F o Id


def test_unit_laws_read_per_label_accept_and_refuse_where_the_chains_through_built_unitors_do(monkeypatch):
    # every law check of the builders records whether it holds and raises
    # nothing, so a law read after a refused one is compared too; the (op)lax
    # builders that transport_adjunction calls record their inputs
    import opdbim.bimodules as bimodules

    verdicts, morphisms = [], []
    monkeypatch.setattr(bimodules, "require_equal", lambda law, a, b: verdicts.append((law, map_equal(a, b))))
    for builder, lax in ((bimodule_of_lax, True), (bimodule_of_oplax, False)):
        def recording(f, a, b, m, window, builder=builder, lax=lax):
            morphisms.append((f, a, b, m, window, lax))
            return builder(f, a, b, m, window=window)

        monkeypatch.setattr(bimodules, builder.__name__, recording)

    def unit_verdicts(build) -> list:
        verdicts.clear()
        try:
            build()
        except ValidationError:  # a law the builder does not record, such as an action law
            pass
        return [(law, holds) for law, holds in verdicts if "unit triangle" in law or "Sym" in law]

    com, z2, j = com_operad(2), _z2(), _j()
    f, phi, psi = _identity_morphism_inputs(com)
    morphisms += [(f, com, com, phi, 2, True), (f, com, com, psi, 2, False)]
    morphisms += [(*inputs, 2, True) for inputs in (_projection_inputs(), *_collapse_inputs())]
    for op, label_map in ((z2, {"e": "e", "a": "a"}), (j, {"e": "a", "a": "a"})):  # the second is the constant mutant
        for lax in (True, False):
            f, m = _unary_twist(op, label_map, lax)
            morphisms.append((f, op, op, m, 1, lax))
    refused = 0
    for f, u, eta, eps, a, b, xi, window in (
        (*_transport_identity_inputs(), 2), (*_transport_circ_inputs(make_morphism()), 2), (*_sym_left_triangle_mutant(), 1),
    ):
        got = unit_verdicts(lambda: transport_adjunction(f, u, eta, eps, a, b, xi, window=window))
        chains = sym_triangle_chains(f, u, eta, eps, window)
        expected = [(f"Sym adjunction triangle ({side})", map_equal(tri, identity_map(seq)))
                    for side, tri, seq in (("left", chains[0], f), ("right", chains[1], u))]
        assert got[:2] == expected
        refused += sum(not holds for _law, holds in expected)
    for f, a, b, m, window, lax in list(morphisms):
        builder = bimodule_of_lax if lax else bimodule_of_oplax
        got = unit_verdicts(lambda: builder(f, a, b, m, window=window))
        law = "lax morphism unit triangle" if lax else "oplax morphism unit triangle"
        assert got == [(law, map_equal(*morphism_unit_chain(f, a, b, m, window, lax)))]
        refused += not got[0][1]
    assert len(morphisms) == 14 and refused == 4


# --- the (op)lax and transport builders against the chains through built associators


def _assert_lax_chain(lax, f, a, b, phi):
    lam, s1, s2 = lax_chain(f, a, b, phi, 2)
    assert lax.lam.comp == lam.comp
    assert map_equal(s1, s2)


def test_lax_and_oplax_actions_match_the_chains_through_built_associators():
    com = com_operad(2)
    f, phi, psi = _identity_morphism_inputs(com)
    for inputs in [(f, com, com, phi), _projection_inputs(), *_collapse_inputs()]:
        _assert_lax_chain(bimodule_of_lax(*inputs, window=2), *inputs)
    assert bimodule_of_oplax(f, com, com, psi, window=2).rho.comp == oplax_rho_chain(f, com, com, psi, 2).comp


@pytest.mark.parametrize("inputs", [_transport_identity_inputs, lambda: _transport_circ_inputs(make_morphism())],
                         ids=["identity", "circ"])
def test_transport_matches_the_chains_through_built_associators(monkeypatch, inputs):
    import opdbim.bimodules

    given = {}

    def recording(builder):
        def record(f, a, b, m, window):
            given[builder.__name__] = m
            return builder(f, a, b, m, window=window)
        return record

    for builder in (bimodule_of_lax, bimodule_of_oplax):
        monkeypatch.setattr(opdbim.bimodules, builder.__name__, recording(builder))
    f, u, eta, eps, a, b, xi = inputs()
    adj = transport_adjunction(f, u, eta, eps, a, b, xi, window=2)
    psi, phi, unit, counit = transport_chain(f, u, eps, a, b, xi, 2, adj)
    assert given["bimodule_of_oplax"].comp == psi.comp
    assert given["bimodule_of_lax"].comp == phi.comp
    assert adj.left.rho.comp == oplax_rho_chain(f, a, b, psi, 2).comp
    _assert_lax_chain(adj.right, u, b, a, phi)
    assert adj.unit.comp == unit.comp
    assert adj.counit.comp == counit.comp


# --- each law composite is built once -------------------------------------------


def _content(seq):
    """The cells of ``seq`` as text: equal for equal cells of equal types."""
    return repr((seq.dom, seq.cod, sorted(seq.cells.items(), key=repr)))


@pytest.fixture
def composite_builds(monkeypatch):
    """Run a call and count the composites it builds again.

    A call to ``compose_symseq`` builds again when an earlier call had
    factors of the same content and the same cap but got another object.
    Every result is kept alive, so a composite shared by content is still
    there to be returned.
    """
    import opdbim.bimodules
    import opdbim.operads
    import opdbim.symseq

    original = opdbim.symseq.compose_symseq
    results: dict = {}
    rebuilt = [0]

    def traced(outer, inner, max_arity=None):
        out = original(outer, inner, max_arity=max_arity)
        earlier = results.setdefault((_content(outer), _content(inner), max_arity), out)
        rebuilt[-1] += earlier is not out
        return out

    for mod in (opdbim.symseq, opdbim.operads, opdbim.bimodules):
        monkeypatch.setattr(mod, "compose_symseq", traced)

    def builds_again(call) -> int:
        rebuilt.append(0)
        call()
        return rebuilt[-1]

    return builds_again


def test_no_composite_is_built_twice(composite_builds):
    from opdbim.symseq import map_inverse
    from oracles import left_unitor, right_unitor

    com = com_operad(2)
    f = id_symseq((STAR,))
    bf = compose_symseq(com.carrier, f, max_arity=2)
    fb = compose_symseq(f, com.carrier, max_arity=2)
    phi = compose_maps(map_inverse(left_unitor(fb)), right_unitor(bf))
    psi = compose_maps(map_inverse(right_unitor(bf)), left_unitor(fb))
    assert composite_builds(lambda: bimodule_of_lax(f, com, com, phi, window=2)) == 0
    assert composite_builds(lambda: bimodule_of_oplax(f, com, com, psi, window=2)) == 0
    sizes = {((), "y"): 1, (("x",), "y"): 1, (("x", "x"), "y"): 2}
    count = []
    enum = lambda: count.append(enumerate_bimodules(unit_operad(("x",), 2), unit_operad(("y",), 2), sizes))
    assert composite_builds(enum) == 0
    assert count == [2]
    v = SymSeq((STAR,), (STAR,), {((STAR,), STAR): YoungSet.trivial((STAR,), ("v",))})
    m = free_bimodule(com, com, v, window=2)
    assert composite_builds(lambda: rel_left_unitor(m)) == 0
    assert composite_builds(lambda: rel_right_unitor(m)) == 0


@pytest.mark.parametrize("left, right, expected", [(_z2, _j, 4), (_j, _j, 7)])
def test_enumeration_matches_make_bimodule_on_one_unary_cell(left, right, expected):
    # every pair of label functions (lam, rho) on {p, q}, checked one by one
    b, a = left(), right()
    labels = ("p", "q")
    inputs = [(g, x) for g in ("e", "a") for x in labels]
    functions = [dict(zip(inputs, images)) for images in itertools.product(labels, repeat=len(inputs))]
    accepted = 0
    for lam, rho in itertools.product(functions, repeat=2):
        try:
            _unary_bimodule(b, a, lambda g, x: lam[(g, x)], lambda x, h: rho[(h, x)])
        except ValidationError:
            continue
        accepted += 1
    assert accepted == expected
    assert enumerate_bimodules(a, b, {((STAR,), STAR): 2}) == expected


# --- actions read through the regroup step --------------------------------------

from dataclasses import replace

from opdbim import symseq
from opdbim.operads import _unit_law, assoc_operad
from opdbim.bimodules import bimodule_laws
from opdbim.symseq import hcompose_maps, regroup
from oracles import relative_compose_chain


def _pentagon_draw(rng, window=2):
    """Five operads and four bimodules ``l, m, n, p`` drawn as one pentagon sample draws them."""
    ops = [rand_operad(rng, window) for _ in range(5)]
    return [rand_bimodule(rng, ops[i + 1], ops[i], window) for i in range(4)]


def _costliest_pentagon_draw(window=2):
    """Five com operads and four free bimodules, each on one unary cell with two labels."""
    ops = [com_operad(window) for _ in range(5)]
    seed = SymSeq((STAR,), (STAR,), {((STAR,), STAR): YoungSet.trivial((STAR,), ("s", "t"))})
    return [free_bimodule(ops[i + 1], ops[i], seed, window=window) for i in range(4)]


@pytest.mark.parametrize("seed", list(range(12)) + ["costliest"])
def test_the_relative_associator_matches_the_chain_through_built_bracketings(seed):
    # both associators of the pentagon that regroup (N o M) o L: the regroup
    # step per lifted raw gives the map that the built associator gave
    from oracles import rel_associator_chain

    l, m, n, p = _costliest_pentagon_draw() if seed == "costliest" else _pentagon_draw(random.Random(seed))
    for outer, mid, inner in ((n, m, l), (p, n, m)):
        nm, ml = relative_compose(outer, mid), relative_compose(mid, inner)
        nm_l, n_ml = relative_compose(nm.bimodule, inner), relative_compose(outer, ml.bimodule)
        got = rel_associator(nm, nm_l, ml, n_ml)
        assert got.comp == rel_associator_chain(nm, nm_l, ml, n_ml).comp
        assert got.is_bijective()


@pytest.mark.parametrize("seed", range(32))
def test_relative_composition_matches_the_chain_through_built_associators(seed):
    # pentagon draws at window 2: the regroup steps give the carrier, projection
    # and induced actions that the whiskers after built associators gave
    rng = random.Random(seed)
    ops = [rand_operad(rng, 2) for _ in range(4)]
    l, m, n = (rand_bimodule(rng, ops[i + 1], ops[i], 2) for i in range(3))
    nm = relative_compose(n, m)
    pairs = [(n, m), (m, l), (nm.bimodule, l), (identity_bimodule(m.left), m), (m, identity_bimodule(m.right))]
    for nb, mb in pairs:
        rel = relative_compose(nb, mb)
        carrier, proj, lam, rho = relative_compose_chain(nb, mb)
        assert rel.bimodule.carrier.cells == carrier.cells
        assert (rel.proj.comp, rel.bimodule.lam.comp, rel.bimodule.rho.comp) == (proj.comp, lam.comp, rho.comp)


def _recording(comp):
    """``comp`` with fresh class tables and a ``canon`` that records each raw it carries to its representative."""
    seen = []
    fresh = {key: {raw: idx for idx, raw in enumerate(reps)} for key, reps in comp.reps.items()}
    return replace(comp, cls=fresh, canon=lambda w, y, raw: (seen.append(raw), comp.canon(w, y, raw))[1]), seen


def test_a_left_action_wrong_where_the_regroup_reaches_it_only_through_canon_fails():
    # assoc(3) acting on itself, with the action swapped on the orbit {2, 3} of
    # binary classes of B o M that put the binary operation over two units; the
    # action stays equivariant and the unit law holds, since those are not unit classes
    b = identity_bimodule(assoc_operad(3))
    key = ((STAR, STAR), STAR)
    assert [raw[1] for raw in b.bm.reps[key][2:]] == [(0, 1), (0, 1)]
    comp = {k: dict(m) for k, m in b.lam.comp.items()}
    comp[key][2], comp[key][3] = comp[key][3], comp[key][2]
    lam = SymSeqMap(b.bm.seq, b.carrier, comp)
    lam.validate()
    # every class of (B o B) o M where the two sides differ reaches B o M through canon
    op, bm = b.left, b.bm
    spy, seen = _recording(bm)
    oo_m = compose_symseq(op.comp2.seq, b.carrier, max_arity=3)
    fixed = hcompose_maps(restrict_map(op.mu, op.comp2.seq), identity_map(b.carrier), oo_m, bm)
    step = regroup(op.comp2, bm, identity_map(op.carrier), lam, spy)
    differing = []
    for k, reps in oo_m.reps.items():
        for idx, raw in enumerate(reps):
            before = len(seen)
            if lam.at(*k, step(k, raw)) != lam.at(*k, fixed.at(*k, idx)):
                differing.append(len(seen) > before)
    assert differing and all(differing)
    with pytest.raises(ValidationError, match=r"^left action associativity fails at cell"):
        Bimodule(b.left, b.right, b.carrier, lam, b.rho, b.window, b.bm, b.ma)


@pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
def test_the_unit_law_reads_labels_that_are_not_least_in_their_orbit(left):
    # assoc(2) acting on itself: the binary cell is one orbit {(0, 1), (1, 0)},
    # whose least label is (0, 1); the action is wrong only at the class of
    # (eta; (1, 0)), so it is not equivariant and only a check of every label sees it
    op = assoc_operad(2)
    key = ((STAR, STAR), STAR)
    unit = {True: ((STAR,), (0,), ((STAR, STAR),), ((1, 0),), (0, 1)),
            False: ((STAR, STAR), (1, 0), ((STAR,), (STAR,)), ((0,), (0,)), (0, 1))}[left]
    comp = {k: dict(m) for k, m in op.mu.comp.items()}
    comp[key][op.comp2.class_of(*key, unit)] = (0, 1)
    act = SymSeqMap(op.comp2.seq, op.carrier, comp)
    law = "left action unit" if left else "right action unit"
    _unit_law(op, op.comp2, 2, left, law)(op.mu)
    with pytest.raises(ValidationError, match=re.escape(f"{law} fails at cell {key!r}, label (1, 0): (0, 1) != (1, 0)")):
        _unit_law(op, op.comp2, 2, left, law)(act)


def test_a_non_equivariant_action_is_refused_before_any_regroup_step_reads_it(monkeypatch):
    steps = []
    original = symseq.regroup
    monkeypatch.setattr(symseq, "regroup", lambda *args: (steps.append(args), original(*args))[1])
    b = identity_bimodule(assoc_operad(2))
    check = bimodule_laws(b.left, b.right, b.bm, b.ma, b.window)
    built = len(steps)  # the right action's fixed side, which reads mu only
    key = ((STAR, STAR), STAR)
    comp = {k: dict(m) for k, m in b.lam.comp.items()}
    comp[key][2] = comp[key][3]  # one class moved off its orbit's image
    lam = SymSeqMap(b.bm.seq, b.carrier, comp)
    with pytest.raises(ValidationError, match=r"^equivariance fails at cell"):
        check(lam, b.rho)
    assert len(steps) == built
    check(b.lam, b.rho)
    assert len(steps) > built
