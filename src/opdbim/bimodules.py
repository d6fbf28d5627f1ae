"""Operad bimodules: relative composition, coherence, adjunctions, enumeration.

A ``(B, A)``-bimodule is a symmetric sequence between the sort sets of two
operads together with a left ``B``-action and a right ``A``-action that
commute.  :func:`bimodule_laws` builds the composites these laws read once per
carrier and returns the check of a pair of actions on them: the one
action-law check, :func:`.operads.action_laws`, once per side, and then that
the actions commute.  Every :class:`Bimodule` runs it on itself when it is
built (:func:`check_bimodule_laws`), so no bimodule exists unchecked;
enumeration checks every candidate pair of actions against one set of
composites per carrier.  The free actions through ``mu`` are written once:
:func:`free_left_action` on ``B o (B o F)`` and :func:`free_right_action` on
``(F o A) o A``; the free bimodule, the free left module and the bimodules of
lax and oplax monad morphisms are built from them.  Those two builders check
the morphism square and unit triangle, and :func:`transport_adjunction` the
triangle identities in Sym, on the composites they build the structure from;
each unit triangle starts per label from an insertion (``symseq.left_insert``,
``symseq.right_insert``), so no ``Id o F`` is built for it nor unitor inverted.
Relative composition quotients the plain composite by the two middle actions;
a map out of the plain composite that coequalizes them induces the map out of
the relative composite (:func:`descend`), which gives both unit isomorphisms
(split-fork bijections) and the units and counits of the adjunctions.  Every
plain associator here is applied inside the map that reads it, raw by raw
(``symseq.regroup``, ``symseq.ungroup``), so the other bracketing is never
built; those steps read raws that are not representatives, so each 2-cell
they whisker by is validated (equivariant) first.  All laws are checked cell
by cell within the smallest arity window of the participants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

from .perms import (
    BudgetError,
    InputError,
    ValidationError,
    Word,
    YoungSet,
    enumerate_equivariant_maps,
    skey,
    ssorted,
    stab_gens,
)
from .symseq import (
    Composite,
    SymSeq,
    SymSeqMap,
    coequalize_maps,
    compose_maps,
    compose_symseq,
    hcompose_maps,
    id_symseq,
    identity_map,
    labelwise,
    left_insert,
    left_unitor,
    map_inverse,
    mu_from_raws,
    regroup,
    regroup_map,
    require_equal,
    restrict_map,
    right_insert,
    right_unitor,
    ungroup,
)
from .operads import (
    Algebra,
    Operad,
    OperadMorphism,
    action_laws,
    held,
    pulled_back_cells,
    pulled_back_outputs,
    reindex_raw,
    same_operad,
    unit_operad,
)

DEFAULT_BUDGET = 2_000_000


@dataclass
class Bimodule:
    """A ``(left, right)``-bimodule; its constructor runs :func:`check_bimodule_laws`."""

    left: Operad      # acts on the codomain side
    right: Operad     # acts on the domain side
    carrier: SymSeq
    lam: SymSeqMap    # bm.seq -> carrier
    rho: SymSeqMap    # ma.seq -> carrier
    window: int
    bm: Composite     # left.carrier o carrier
    ma: Composite     # carrier o right.carrier

    def __post_init__(self):
        check_bimodule_laws(self)

    @property
    def dom(self):
        return self.carrier.dom

    @property
    def cod(self):
        return self.carrier.cod


def make_bimodule(
    left: Operad,
    right: Operad,
    carrier: SymSeq,
    lam_fn: Callable,
    rho_fn: Callable,
) -> Bimodule:
    """Assemble and law-check a bimodule from action functions on composite representatives."""
    if set(carrier.dom) != set(right.sorts) or set(carrier.cod) != set(left.sorts):
        raise InputError("bimodule carrier sorts do not match its operads")
    w = min(left.arity_bound, right.arity_bound)
    bm = compose_symseq(left.carrier, carrier, max_arity=w)
    ma = compose_symseq(carrier, right.carrier, max_arity=w)
    lam, rho = mu_from_raws(bm, lam_fn, carrier), mu_from_raws(ma, rho_fn, carrier)
    return Bimodule(left, right, carrier, lam, rho, w, bm, ma)


def check_bimodule_laws(b: Bimodule) -> None:
    """Each action is lawful (:func:`.operads.action_laws`), and the two commute."""
    bimodule_laws(b.left, b.right, b.bm, b.ma, b.window)(b.lam, b.rho)


def bimodule_laws(left: Operad, right: Operad, bm: Composite, ma: Composite, w: int) -> Callable:
    """The check of actions ``lam: bm.seq -> M`` and ``rho: ma.seq -> M`` on one carrier ``M``.

    The composites the laws read, and the maps on them that read neither
    action, are fixtures held by the operads (:func:`.operads.held`):
    ``(B o M) o A`` by ``left``, keyed by the contents of ``B o M`` and of
    ``A``'s carrier and the window.  The returned ``check(lam, rho)``
    validates both actions, so every regroup step reads equivariant maps,
    runs each action's laws and then checks that the two commute on ``(B o
    M) o A``.
    """
    bc, ac = left.carrier, right.carrier
    left_laws = action_laws(left, bm, w, True, ("left action associativity", "left action unit"))
    right_laws = action_laws(right, ma, w, False, ("right action associativity", "right action unit"))
    bm_a = held(left, ("commuting", bm.seq.content(), ac.content(), w), lambda: compose_symseq(bm.seq, ac, max_arity=w))
    id_b, id_a = identity_map(bc), identity_map(ac)

    def check(lam: SymSeqMap, rho: SymSeqMap) -> None:
        lam.validate()
        rho.validate()
        left_laws(lam)
        right_laws(rho)
        path1 = compose_maps(rho, hcompose_maps(lam, id_a, bm_a, ma))
        path2 = compose_maps(lam, regroup_map(bm, bm_a, ma, id_b, rho, bm))
        require_equal("commuting actions", path1, path2)

    return check


def check_bimodule_map(f: SymSeqMap, src: Bimodule, dst: Bimodule) -> None:
    """Verify the left- and right-module map squares for ``f: src -> dst``."""
    f.validate()
    id_b = identity_map(src.left.carrier)
    id_a = identity_map(src.right.carrier)
    rhs = compose_maps(dst.lam, hcompose_maps(id_b, f, src.bm, dst.bm))
    require_equal("left module map square", compose_maps(f, src.lam), rhs)
    rhs2 = compose_maps(dst.rho, hcompose_maps(f, id_a, src.ma, dst.ma))
    require_equal("right module map square", compose_maps(f, src.rho), rhs2)


def identity_bimodule(op: Operad) -> Bimodule:
    """The operad acting on itself by multiplication on both sides."""
    return Bimodule(
        op, op, op.carrier, op.mu, op.mu, op.arity_bound, op.comp2, op.comp2
    )


def free_left_action(op: Operad, bf: Composite, w: int) -> tuple[Composite, SymSeqMap]:
    """``(B o (B o F), lam)``: the free left action of ``B = op`` on ``bf = B o F``.

    ``lam: B o (B o F) -> B o F`` takes each raw apart into ``(B o B) o F``,
    which is not built, and multiplies there through ``mu``.
    """
    comp2 = compose_symseq(op.carrier, op.carrier, max_arity=w)
    b_bf = compose_symseq(op.carrier, bf.seq, max_arity=w)
    return b_bf, mu_from_raws(b_bf, ungroup(comp2, bf, restrict_map(op.mu, comp2.seq), bf), bf.seq)


def free_right_action(fa: Composite, op: Operad, w: int) -> tuple[Composite, SymSeqMap]:
    """``((F o A) o A, rho)``: the free right action of ``A = op`` on ``fa = F o A``.

    ``rho: (F o A) o A -> F o A`` regroups each raw into ``F o (A o A)``,
    which is not built, and multiplies there through ``mu``.
    """
    comp2 = compose_symseq(op.carrier, op.carrier, max_arity=w)
    fa_a = compose_symseq(fa.seq, op.carrier, max_arity=w)
    return fa_a, regroup_map(fa, fa_a, comp2, identity_map(fa.outer), restrict_map(op.mu, comp2.seq), fa)


def left_module(op: Operad, dom_sorts: Iterable, carrier: SymSeq, lam_fn: Callable, window: int) -> Bimodule:
    """A left module as a bimodule over the unit operad on its domain."""
    unit = unit_operad(ssorted(dom_sorts), max(window, 2))
    bm = compose_symseq(op.carrier, carrier, max_arity=window)
    ma = compose_symseq(carrier, unit.carrier, max_arity=window)
    return Bimodule(op, unit, carrier, mu_from_raws(bm, lam_fn, carrier), right_unitor(ma), window, bm, ma)


def free_left_module(op: Operad, dom_sorts: Iterable, v: SymSeq, window: int) -> Bimodule:
    """The free left module ``A o V`` on a sequence ``V``, acting through ``mu``."""
    av = compose_symseq(op.carrier, v, max_arity=window)
    a_av, lam = free_left_action(op, av, window)
    unit = unit_operad(ssorted(dom_sorts), max(window, 2))
    ma = compose_symseq(av.seq, unit.carrier, max_arity=window)
    return Bimodule(op, unit, av.seq, lam, right_unitor(ma), window, a_av, ma)


def free_bimodule(left: Operad, right: Operad, v: SymSeq, window: int) -> Bimodule:
    """The free ``(B, A)``-bimodule ``B o V o A`` with both actions by multiplication."""
    bc, ac = left.carrier, right.carrier
    va = compose_symseq(v, ac, max_arity=window)
    bva = compose_symseq(bc, va.seq, max_arity=window)
    carrier = bva.seq
    b_bva, lam = free_left_action(left, bva, window)
    va_a, inner = free_right_action(va, right, window)  # (V o A) o A -> V o A
    bva_a = compose_symseq(carrier, ac, max_arity=window)
    rho = regroup_map(bva, bva_a, va_a, identity_map(bc), inner, bva)
    return Bimodule(left, right, carrier, lam, rho, window, b_bva, bva_a)


def algebra_as_module(alg: Algebra) -> Bimodule:
    """An algebra is a left module with empty domain."""
    op = alg.operad
    cells = {}
    for x in op.sorts:
        elems = alg.family.sets[x]
        if elems:
            cells[((), x)] = YoungSet.trivial((), elems)
    carrier = SymSeq((), op.sorts, cells)

    def lam_fn(key, raw):
        _w, x = key
        mid, a, _blocks, fs, _sig = raw
        return alg.act[(mid, x)][(a, fs)]

    return left_module(op, (), carrier, lam_fn, window=op.arity_bound)


# ---------------------------------------------------------------------------
# relative composition
# ---------------------------------------------------------------------------


@dataclass
class RelCompose:
    bimodule: Bimodule
    nm: Composite        # plain composite of the carriers
    proj: SymSeqMap      # nm.seq -> relative carrier
    lift: dict           # (w, z) -> {class -> nm class of its representative}


def relative_compose(nb: Bimodule, mb: Bimodule) -> RelCompose:
    """Composite over the middle operad, by the reflexive-coequalizer quotient.

    The second map of the pair and the induced actions (per raw of ``C o Q``
    and ``Q o A``) apply ``N``'s and ``M``'s actions inside the regroup steps,
    which read them as equivariant because both bimodules were law-checked.
    The relative composite is a :class:`Bimodule`, so its induced actions are
    law-checked when it is built.
    """
    if not same_operad(nb.right, mb.left):
        raise InputError("middle operads do not match")
    w = min(nb.window, mb.window)
    bmid = mb.left
    n, m = nb.carrier, mb.carrier
    # beside an identity bimodule this is M's B o M or N's N o A, shared by content
    nm = compose_symseq(n, m, max_arity=w)
    nb_ = compose_symseq(n, nb.right.carrier, max_arity=w)
    nb_m = compose_symseq(nb_.seq, m, max_arity=w)
    b_m = compose_symseq(bmid.carrier, m, max_arity=w)
    e1 = hcompose_maps(restrict_map(nb.rho, nb_.seq), identity_map(m), nb_m, nm)
    e2 = regroup_map(nb_, nb_m, b_m, identity_map(n), restrict_map(mb.lam, b_m.seq), nm)
    carrier, proj = coequalize_maps(e1, e2)
    lift = {}
    for key, cm in proj.comp.items():
        sec = lift[key] = {}
        for cls_nm, cls_rel in cm.items():
            sec[cls_rel] = min(sec.get(cls_rel, cls_nm), cls_nm)

    # induced left action of the outer operad: a raw of C o Q lifts to one of
    # C o (N o M), which is taken apart into (C o N) o M, acted on there and projected
    cc = nb.left.carrier
    c_q = compose_symseq(cc, carrier, max_arity=w)
    c_n = compose_symseq(cc, n, max_arity=w)
    lam_step = ungroup(c_n, nm, restrict_map(nb.lam, c_n.seq), nm)

    def lam_fn(key, raw):
        mid, g, blocks, qs, sig = raw
        lifted = tuple(lift[(b, y)][q] for b, y, q in zip(blocks, mid, qs))
        return proj.at(*key, lam_step(key, (mid, g, blocks, lifted, sig)))

    # induced right action of the inner operad: a raw of Q o A lifts to one of
    # (N o M) o A, which is regrouped into N o (M o A), acted on there and projected
    ac = mb.right.carrier
    q_a = compose_symseq(carrier, ac, max_arity=w)
    m_a = compose_symseq(m, ac, max_arity=w)
    rho_step = regroup(nm, m_a, identity_map(n), restrict_map(mb.rho, m_a.seq), nm)

    def rho_fn(key, raw):
        mid, q, blocks, as_, sig = raw
        return proj.at(*key, rho_step(key, (mid, lift[(mid, key[1])][q], blocks, as_, sig)))

    lam_rel, rho_rel = mu_from_raws(c_q, lam_fn, carrier), mu_from_raws(q_a, rho_fn, carrier)
    return RelCompose(Bimodule(nb.left, mb.right, carrier, lam_rel, rho_rel, w, c_q, q_a), nm, proj, lift)


def descend(rel: RelCompose, m: SymSeqMap, dst: SymSeq) -> SymSeqMap:
    """The map ``rel.bimodule.carrier -> dst`` that ``m: rel.nm.seq -> dst`` induces.

    ``m`` is read at the least plain class of each relative class
    (``rel.lift``); that it coequalizes the two middle actions is not checked
    here.
    """
    comp = {
        key: {cls: m.at(*key, nm_cls) for cls, nm_cls in sec.items()}
        for key, sec in rel.lift.items()
    }
    return SymSeqMap(rel.bimodule.carrier, dst, comp)


def rel_left_unitor(mb: Bimodule) -> tuple[SymSeqMap, RelCompose]:
    """Split-fork iso ``B o_B M -> M`` induced by the left action, with the composite ``B o_B M``."""
    rel = relative_compose(identity_bimodule(mb.left), mb)
    out = descend(rel, mb.lam, mb.carrier)
    if not out.is_bijective():
        raise ValidationError("left unit map of a relative composite failed to biject")
    return out, rel


def rel_right_unitor(mb: Bimodule) -> tuple[SymSeqMap, RelCompose]:
    """Split-fork iso ``M o_A A -> M`` induced by the right action, with the composite ``M o_A A``."""
    rel = relative_compose(mb, identity_bimodule(mb.right))
    out = descend(rel, mb.rho, mb.carrier)
    if not out.is_bijective():
        raise ValidationError("right unit map of a relative composite failed to biject")
    return out, rel


def rel_hcompose(
    beta: SymSeqMap,
    alpha: SymSeqMap,
    src: RelCompose,
    dst: RelCompose,
) -> SymSeqMap:
    """Relative horizontal composite: lift, compose plainly, project back."""
    plain = hcompose_maps(beta, alpha, src.nm, dst.nm)
    comp = {}
    for key, sec in src.lift.items():
        comp[key] = {
            cls: dst.proj.at(*key, plain.at(*key, nm_cls)) for cls, nm_cls in sec.items()
        }
    return SymSeqMap(src.bimodule.carrier, dst.bimodule.carrier, comp)


def rel_associator(
    nm_rel: RelCompose,   # N o_C M
    nm_l: RelCompose,     # (N o_C M) o_B L
    ml_rel: RelCompose,   # M o_B L
    n_ml: RelCompose,     # N o_C (M o_B L)
) -> SymSeqMap:
    """Regrouping iso ``(N o_C M) o_B L -> N o_C (M o_B L)`` on representatives.

    Each relative class is read at its least lift, regrouped raw by raw
    (``symseq.regroup``, whiskered by the projection onto ``M o_B L``), so
    neither plain bracketing of ``N o M o L`` is built.
    """
    nm, ml = nm_rel.nm, ml_rel.nm   # N o M and M o L
    # a raw of (N o_C M) o L lifts to one of (N o M) o L, which is regrouped into
    # N o (M o L), projected to N o (M o_B L) there and on to N o_C (M o_B L)
    step = regroup(nm, ml, identity_map(nm.outer), ml_rel.proj, n_ml.nm)
    comp = {}
    for key, sec in nm_l.lift.items():
        table = {}
        for cls, q1l_cls in sec.items():
            mid, q1, blocks, ls, sig = nm_l.nm.rep(*key, q1l_cls)
            lifted = nm_rel.lift[(mid, key[1])][q1]
            table[cls] = n_ml.proj.at(*key, step(key, (mid, lifted, blocks, ls, sig)))
        comp[key] = table
    out = SymSeqMap(nm_l.bimodule.carrier, n_ml.bimodule.carrier, comp)
    if not out.is_bijective():
        raise ValidationError("relative associator failed to biject")
    return out


# ---------------------------------------------------------------------------
# bimodules from (op)lax monad morphisms
# ---------------------------------------------------------------------------


def bimodule_of_lax(f: SymSeq, a: Operad, b: Operad, phi: SymSeqMap, window: int) -> Bimodule:
    """Carrier ``F o A`` with the free right action and phi-twisted left action.

    ``phi: B o F -> F o A`` must be a lax monad morphism.  It is validated
    first; its square and unit triangle are checked on the composites that
    build the actions, before the bimodule laws.
    """
    ac, bc = a.carrier, b.carrier
    bf = compose_symseq(bc, f, max_arity=window)
    fa = compose_symseq(f, ac, max_arity=window)
    phi = restrict_map(phi, bf.seq, fa.seq)
    phi.validate()
    fa_a, rho = free_right_action(fa, a, window)
    b_fa = compose_symseq(bc, fa.seq, max_arity=window)
    # lam: B o (F o A) -> (B o F) o A -> (F o A) o A -> F o A
    lam = compose_maps(rho, mu_from_raws(b_fa, ungroup(bf, fa, phi, fa_a), fa_a.seq))
    comp2b = compose_symseq(bc, bc, max_arity=window)
    bb_f = compose_symseq(comp2b.seq, f, max_arity=window)
    s1 = compose_maps(phi, hcompose_maps(restrict_map(b.mu, comp2b.seq), identity_map(f), bb_f, bf))
    s2 = compose_maps(lam, regroup_map(comp2b, bb_f, bf, identity_map(bc), phi, b_fa))
    require_equal("lax morphism multiplication square", s1, s2)
    u1 = compose_maps(phi, labelwise(f, left_insert(bf, b.eta_label), bf.seq, window))
    require_equal("lax morphism unit triangle", u1, labelwise(f, right_insert(fa, a.eta_label), fa.seq, window))
    return Bimodule(b, a, fa.seq, lam, rho, window, b_fa, fa_a)


def bimodule_of_oplax(f: SymSeq, a: Operad, b: Operad, psi: SymSeqMap, window: int) -> Bimodule:
    """Carrier ``B o F`` with the free left action and psi-twisted right action.

    ``psi: F o A -> B o F`` must be an oplax monad morphism.  It is
    validated first; its square and unit triangle are checked on the
    composites that build the actions, before the bimodule laws.
    """
    ac, bc = a.carrier, b.carrier
    bf = compose_symseq(bc, f, max_arity=window)
    fa = compose_symseq(f, ac, max_arity=window)
    psi = restrict_map(psi, fa.seq, bf.seq)
    psi.validate()
    b_bf, lam = free_left_action(b, bf, window)
    bf_a = compose_symseq(bf.seq, ac, max_arity=window)
    # rho: (B o F) o A -> B o (F o A) -> B o (B o F) -> B o F
    rho = compose_maps(lam, regroup_map(bf, bf_a, fa, identity_map(bc), psi, b_bf))
    fa_a, free_rho = free_right_action(fa, a, window)
    s2 = compose_maps(rho, hcompose_maps(psi, identity_map(ac), fa_a, bf_a))
    require_equal("oplax morphism multiplication square", compose_maps(psi, free_rho), s2)
    u1 = compose_maps(psi, labelwise(f, right_insert(fa, a.eta_label), fa.seq, window))
    require_equal("oplax morphism unit triangle", u1, labelwise(f, left_insert(bf, b.eta_label), bf.seq, window))
    return Bimodule(b, a, bf.seq, lam, rho, window, b_bf, bf_a)


# ---------------------------------------------------------------------------
# adjunctions
# ---------------------------------------------------------------------------


@dataclass
class BimAdjunction:
    """An adjunction in the bimodule bicategory, with validated triangles."""

    left: Bimodule      # F': X/A -> Y/B
    right: Bimodule     # G': Y/B -> X/A
    unit: SymSeqMap     # carrier of 1_{X/A} -> carrier of G' o_A F'
    counit: SymSeqMap   # carrier of F' o_A G' -> carrier of 1_{Y/B}
    gf: RelCompose
    fg: RelCompose


def _check_triangles(adj: BimAdjunction) -> None:
    f, u = adj.left, adj.right
    # (F eta) ; assoc^{-1} ; (eps F) == unitors, as maps F -> F
    r_f, f_id = rel_right_unitor(f)
    l_f, id_f = rel_left_unitor(f)
    f_gf = relative_compose(f, adj.gf.bimodule)
    fg_f = relative_compose(adj.fg.bimodule, f)
    m1 = rel_hcompose(identity_map(f.carrier), adj.unit, f_id, f_gf)
    asc = rel_associator(adj.fg, fg_f, adj.gf, f_gf)
    m2 = rel_hcompose(adj.counit, identity_map(f.carrier), fg_f, id_f)
    tri1 = compose_maps(l_f, compose_maps(m2, compose_maps(map_inverse(asc), m1)))
    require_equal("first triangle identity", compose_maps(tri1, map_inverse(r_f)), identity_map(f.carrier))
    # (eta U) ; assoc ; (U eps) == unitors, as maps U -> U
    l_u, id_u = rel_left_unitor(u)
    r_u, u_id = rel_right_unitor(u)
    gf_u = relative_compose(adj.gf.bimodule, u)
    u_fg = relative_compose(u, adj.fg.bimodule)
    n1 = rel_hcompose(adj.unit, identity_map(u.carrier), id_u, gf_u)
    asc2 = rel_associator(adj.gf, gf_u, adj.fg, u_fg)
    n2 = rel_hcompose(identity_map(u.carrier), adj.counit, u_fg, u_id)
    tri2 = compose_maps(r_u, compose_maps(n2, compose_maps(asc2, n1)))
    require_equal("second triangle identity", compose_maps(tri2, map_inverse(l_u)), identity_map(u.carrier))


def adjunction_from_operad(op: Operad) -> BimAdjunction:
    """The free/forgetful adjunction between the unit operad and ``op``."""
    unit = unit_operad(op.sorts, op.arity_bound)
    a = op.carrier
    a_id = compose_symseq(a, unit.carrier, max_arity=op.arity_bound)
    id_a = compose_symseq(unit.carrier, a, max_arity=op.arity_bound)
    free = Bimodule(op, unit, a, op.mu, right_unitor(a_id), op.arity_bound, op.comp2, a_id)
    forg = Bimodule(unit, op, a, left_unitor(id_a), op.mu, op.arity_bound, id_a, op.comp2)
    gf = relative_compose(forg, free)   # A o_A A
    fg = relative_compose(free, forg)   # A o_1 A
    # unit: Id -> A o_A A through eta and the inverse of the map mu induces
    unit_map = compose_maps(map_inverse(descend(gf, op.mu, a)), op.eta)
    # counit: A o_1 A -> A through mu
    adj = BimAdjunction(free, forg, unit_map, descend(fg, op.mu, a), gf, fg)
    _check_triangles(adj)
    return adj


def transport_adjunction(
    f: SymSeq,
    u: SymSeq,
    eta: SymSeqMap,
    eps: SymSeqMap,
    a: Operad,
    b: Operad,
    xi: SymSeqMap,
    window: int,
) -> BimAdjunction:
    """Lift an adjunction ``F -| U`` in Sym along a monad map ``xi: A -> U(BF)``.

    ``xi`` lands in the composite bracketed as ``U o (B o F)``.  ``eta``,
    ``eps`` and ``xi`` are validated once restricted.  The triangle
    identities of ``F -| U`` in Sym are checked first, on the ``F o U`` and
    the restricted ``eps`` that then build ``psi`` and ``phi``.
    """
    uf = compose_symseq(u, f, max_arity=window)
    fu = compose_symseq(f, u, max_arity=window)
    id_f = compose_symseq(id_symseq(f.cod), f, max_arity=window)
    f_uf = compose_symseq(f, uf.seq, max_arity=window)
    eta = restrict_map(eta, id_symseq(f.dom), uf.seq)
    eps = restrict_map(eps, fu.seq, id_symseq(f.cod))
    eta.validate()
    eps.validate()
    unit = {x: eta.at((x,), x, ("id", x)) for x in f.dom}.__getitem__  # eta's image of each identity
    # each triangle starts from the insertion of a label over eta's images, or under one
    to_f_uf = labelwise(f, right_insert(f_uf, unit), f_uf.seq, window)
    tri1 = compose_maps(left_unitor(id_f), compose_maps(mu_from_raws(f_uf, ungroup(fu, uf, eps, id_f), id_f.seq), to_f_uf))
    require_equal("Sym adjunction triangle (left)", tri1, identity_map(f))
    u_id = compose_symseq(u, id_symseq(u.dom), max_arity=window)
    uf_u = compose_symseq(uf.seq, u, max_arity=window)
    to_uf_u = labelwise(u, left_insert(uf_u, unit), uf_u.seq, window)
    tri2 = compose_maps(right_unitor(u_id), compose_maps(regroup_map(uf, uf_u, fu, identity_map(u), eps, u_id), to_uf_u))
    require_equal("Sym adjunction triangle (right)", tri2, identity_map(u))

    ac, bc = a.carrier, b.carrier
    bf = compose_symseq(bc, f, max_arity=window)
    u_bf = compose_symseq(u, bf.seq, max_arity=window)
    xi = restrict_map(xi, a.carrier, u_bf.seq)
    xi.validate()

    # psi: F o A -> B o F
    fa = compose_symseq(f, ac, max_arity=window)
    f_ubf = compose_symseq(f, u_bf.seq, max_arity=window)
    id_bf = compose_symseq(id_symseq(f.cod), bf.seq, max_arity=window)
    psi = compose_maps(
        left_unitor(id_bf),
        compose_maps(
            mu_from_raws(f_ubf, ungroup(fu, u_bf, eps, id_bf), id_bf.seq),
            hcompose_maps(identity_map(f), xi, fa, f_ubf),
        ),
    )
    # phi: A o U -> U o B
    au = compose_symseq(ac, u, max_arity=window)
    ubf_u = compose_symseq(u_bf.seq, u, max_arity=window)
    bf_u = compose_symseq(bf.seq, u, max_arity=window)
    b_id = compose_symseq(bc, id_symseq(f.cod), max_arity=window)
    ub = compose_symseq(u, bc, max_arity=window)
    # (B o F) o U -> B
    inner = compose_maps(right_unitor(b_id), regroup_map(bf, bf_u, fu, identity_map(bc), eps, b_id))
    phi = compose_maps(
        regroup_map(u_bf, ubf_u, bf_u, identity_map(u), inner, ub),
        hcompose_maps(xi, identity_map(u), au, ubf_u),
    )
    fprime = bimodule_of_oplax(f, a, b, psi, window=window)
    gprime = bimodule_of_lax(u, b, a, phi, window=window)
    gf = relative_compose(gprime, fprime)
    fg = relative_compose(fprime, gprime)

    # unit: (U o B) o (B o F) -> U o (B o F) multiplies the middle through the
    # free left action of F' = B o F, and descends
    m = regroup_map(ub, gf.nm, fprime.bm, identity_map(u), fprime.lam, u_bf)
    unit_map = compose_maps(map_inverse(descend(gf, m, u_bf.seq)), xi)

    # counit: sigma: (B o F) o (U o B) -> B descends
    comp2b = compose_symseq(bc, bc, max_arity=window)
    f_ub = compose_symseq(f, ub.seq, max_arity=window)
    id_b = compose_symseq(id_symseq(f.cod), bc, max_arity=window)
    # F o (U o B) -> B
    inner2 = compose_maps(left_unitor(id_b), mu_from_raws(f_ub, ungroup(fu, ub, eps, id_b), id_b.seq))
    sigma = compose_maps(
        restrict_map(b.mu, comp2b.seq),
        regroup_map(bf, fg.nm, f_ub, identity_map(bc), inner2, comp2b),
    )
    adj = BimAdjunction(fprime, gprime, unit_map, descend(fg, sigma, bc), gf, fg)
    _check_triangles(adj)
    return adj


# ---------------------------------------------------------------------------
# restriction and extension along an operad morphism
# ---------------------------------------------------------------------------


def delta_upper(phi: OperadMorphism) -> SymSeq:
    """Unary sequence ``X -> Y`` supported at ``((x), u(x))``."""
    u = phi.u
    cells = {}
    for x in phi.src.sorts:
        cells[((x,), u[x])] = YoungSet.trivial((x,), (("pt", x),))
    return SymSeq(phi.src.sorts, phi.dst.sorts, cells)


def delta_lower(phi: OperadMorphism) -> SymSeq:
    """Unary sequence ``Y -> X`` supported at ``((u(x)), x)``."""
    u = phi.u
    cells = {}
    for x in phi.src.sorts:
        cells[((u[x],), x)] = YoungSet.trivial((u[x],), (("pt", x),))
    return SymSeq(phi.dst.sorts, phi.src.sorts, cells)


def u_circ(phi: OperadMorphism) -> Bimodule:
    """The ``(B, A)``-bimodule with cells ``B[u(w); y]``."""
    a, b, u = phi.src, phi.dst, phi.u
    carrier = SymSeq(a.sorts, b.sorts, pulled_back_cells(b.carrier, u, a.sorts))

    def lam_fn(key, raw):
        # B o u° : the outer label is a B-label over a Y-word already
        cw, raw_y = reindex_raw(raw, key[0], None, u)
        return b.mu.at(cw, key[1], b.comp2.class_of(cw, key[1], raw_y))

    def rho_fn(key, raw):
        # u° o A : push the inner A-labels through xi first
        mid, g, blocks, fs, sig = raw
        fs = tuple(phi.xi.at(bl, s, lab) for bl, s, lab in zip(blocks, mid, fs))
        cw, raw_y = reindex_raw((mid, g, blocks, fs, sig), key[0], u, u)
        return b.mu.at(cw, key[1], b.comp2.class_of(cw, key[1], raw_y))

    return make_bimodule(b, a, carrier, lam_fn, rho_fn)


def u_lower_circ(phi: OperadMorphism) -> Bimodule:
    """The ``(A, B)``-bimodule with cells ``B[v; u(x)]``."""
    a, b, u = phi.src, phi.dst, phi.u
    carrier = SymSeq(b.sorts, a.sorts, pulled_back_outputs(b.carrier.cells, u, a.sorts))

    def lam_fn(key, raw):
        # A o (u_.) : push the outer A-label through xi, then multiply in B
        w, x = key
        mid, g, blocks, fs, sig = raw
        cw, raw_y = reindex_raw((mid, phi.xi.at(mid, x, g), blocks, fs, sig), w, u, None)
        return b.mu.at(cw, u[x], b.comp2.class_of(cw, u[x], raw_y))

    def rho_fn(key, raw):
        # (u_.) o B : plain multiplication in B
        w, x = key
        return b.mu.at(w, u[x], b.comp2.class_of(w, u[x], raw))

    return make_bimodule(a, b, carrier, lam_fn, rho_fn)


def restriction(phi: OperadMorphism, nb: Bimodule) -> Bimodule:
    """Pull a left dst-module back to a left src-module along the morphism."""
    a, b, u = phi.src, phi.dst, phi.u
    if not same_operad(nb.left, b):
        raise InputError("module is not a left module over the morphism target")
    n = nb.carrier
    carrier = SymSeq(n.dom, a.sorts, pulled_back_outputs(n.cells, u, a.sorts))
    w_bound = min(a.arity_bound, nb.window)

    def lam_fn(key, raw):
        kw, x = key
        mid, g, blocks, fs, sig = raw
        cw, raw_y = reindex_raw((mid, phi.xi.at(mid, x, g), blocks, fs, sig), kw, u, None)
        return nb.lam.at(cw, u[x], nb.bm.class_of(cw, u[x], raw_y))

    return left_module(a, n.dom, carrier, lam_fn, window=w_bound)


def extension(phi: OperadMorphism, mb: Bimodule) -> RelCompose:
    """Left adjoint of restriction: relative composition with ``u_circ``."""
    return relative_compose(u_circ(phi), mb)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _all_young_structures(w: Word, size: int):
    """Every stabilizer action on ``size`` labels at the word ``w``."""
    labels = tuple(range(size))
    gens = stab_gens(w)
    perms = [p for p in itertools.permutations(labels)]
    out = []
    for combo in itertools.product(perms, repeat=len(gens)):
        gen_maps = {g: {lab: combo[k][lab] for lab in labels} for k, g in enumerate(gens)}
        ys = YoungSet(w, labels, gen_maps)
        try:
            ys.validate()
        except ValidationError:
            continue
        out.append(ys)
    return out


def _action_choices(om: Composite, carrier: SymSeq):
    """Per cell of ``om``, the equivariant maps into ``carrier``; ``None`` if a non-empty cell has none."""
    choices = []
    for key in sorted(om.seq.cells, key=lambda k: (len(k[0]), skey(k))):
        cell, tgt = om.seq.cells[key], carrier.cell(*key)
        if tgt is None and cell.size == 0:
            continue
        maps = enumerate_equivariant_maps(cell, tgt) if tgt is not None else []
        if not maps:
            return None
        choices.append((key, maps))
    return choices


def enumerate_bimodules(
    a: Operad,
    b: Operad,
    cell_sizes: dict,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Number of (B, A)-bimodule structures on prescribed cell sizes, exhaustively.

    Each carrier's law composites are built once (:func:`bimodule_laws`), and
    every candidate pair of actions on it gets the full law check.
    """
    keys = sorted(cell_sizes, key=lambda k: (len(k[0]), skey(k)))
    struct_choices = []
    total = 1
    for key in keys:
        w, _y = key
        structures = _all_young_structures(w, cell_sizes[key])
        struct_choices.append(structures)
        total *= max(1, len(structures))
        if total > budget:
            raise BudgetError("bimodule enumeration exceeded its budget")
    found = 0
    for combo in itertools.product(*struct_choices):
        cells = {key: ys for key, ys in zip(keys, combo) if ys.size}
        carrier = SymSeq(a.sorts, b.sorts, cells)
        w_bound = min(a.arity_bound, b.arity_bound)
        bm = compose_symseq(b.carrier, carrier, max_arity=w_bound)
        ma = compose_symseq(carrier, a.carrier, max_arity=w_bound)
        lam_choices = _action_choices(bm, carrier)
        rho_choices = None if lam_choices is None else _action_choices(ma, carrier)
        if lam_choices is None or rho_choices is None:
            continue
        space = 1
        for _k, ms in lam_choices + rho_choices:
            space *= len(ms)
            if space > budget:
                raise BudgetError("bimodule action enumeration exceeded its budget")
        laws = bimodule_laws(b, a, bm, ma, w_bound)
        for lam_combo in itertools.product(*(ms for _k, ms in lam_choices)):
            lam = SymSeqMap(bm.seq, carrier, {k: mm for (k, _), mm in zip(lam_choices, lam_combo)})
            for rho_combo in itertools.product(*(ms for _k, ms in rho_choices)):
                rho = SymSeqMap(ma.seq, carrier, {k: mm for (k, _), mm in zip(rho_choices, rho_combo)})
                try:
                    laws(lam, rho)
                except ValidationError:
                    continue
                found += 1
    return found


def enumerate_bimodule_maps(src: Bimodule, dst: Bimodule, budget: int = DEFAULT_BUDGET) -> int:
    """Number of bimodule maps ``src -> dst``, by per-cell equivariant enumeration."""
    keys = [k for k, c in src.carrier.cells.items() if c.size]
    per_cell = []
    total = 1
    for key in sorted(keys, key=lambda k: (len(k[0]), skey(k))):
        tgt = dst.carrier.cell(*key)
        if tgt is None:
            return 0
        maps = enumerate_equivariant_maps(src.carrier.cells[key], tgt)
        per_cell.append((key, maps))
        total *= max(1, len(maps))
        if total > budget:
            raise BudgetError("bimodule map enumeration exceeded its budget")
    found = 0
    for combo in itertools.product(*(ms for _k, ms in per_cell)):
        f = SymSeqMap(src.carrier, dst.carrier, {k: mm for (k, _), mm in zip(per_cell, combo)})
        try:
            check_bimodule_map(f, src, dst)
        except ValidationError:
            continue
        found += 1
    return found
