"""Brute-force oracles shared by several test modules; no kernel code calls them."""

import itertools
from functools import lru_cache
from typing import Optional

from opdbim.bimodules import descend, free_left_action, free_right_action
from opdbim.catsym import (
    CatSymSeq,
    cat_compose,
    sw_block_diag,
    sw_block_perm,
    sw_canonical,
    sw_compose,
    sw_inverse,
    sw_perm_arrow,
)
from opdbim.perms import (
    FinGroupoid,
    InputError,
    Perm,
    QuotientResult,
    ValidationError,
    Word,
    YoungSet,
    act_word,
    block_offsets,
    canonical_word,
    compose,
    disjoint_union,
    equivariant_iso_search,
    skey,
    ssorted,
)
from opdbim.symseq import (
    Composite,
    EvalResult,
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
    left_unitor,
    map_inverse,
    mu_from_raws,
    regroup_map,
    restrict_map,
    right_unitor,
    ungroup,
)


@lru_cache(maxsize=65536)
def word_arrows(v: Word, w: Word) -> tuple[Perm, ...]:
    """All arrows ``p: v -> w``, i.e. permutations with ``act_word(v, p) == w``."""
    if len(v) != len(w):
        return ()
    positions: dict = {}
    for i, s in enumerate(v):
        positions.setdefault(s, []).append(i)
    by_letter: dict = {}
    for i, s in enumerate(w):
        by_letter.setdefault(s, []).append(i)
    if {k: len(ps) for k, ps in positions.items()} != {
        k: len(ps) for k, ps in by_letter.items()
    }:
        return ()
    letters = ssorted(by_letter)
    choices = []
    for s in letters:
        tgt = by_letter[s]
        src = positions[s]
        choices.append([list(zip(tgt, perm)) for perm in itertools.permutations(src)])
    out = []
    for combo in itertools.product(*choices):
        im = [0] * len(w)
        for pairs in combo:
            for tgt_pos, src_pos in pairs:
                im[tgt_pos] = src_pos
        out.append(Perm(tuple(im)))
    out.sort(key=lambda p: p.images)
    return tuple(out)


def relabelled(f: SymSeq, order_key=None) -> SymSeq:
    """``f`` with label tuples reordered (tests enumeration independence)."""
    cells = {}
    for key, cell in f.cells.items():
        labels = tuple(sorted(cell.labels, key=order_key or skey))
        cells[key] = YoungSet(cell.word, labels, {i: dict(m) for i, m in cell.gen_maps.items()})
    return SymSeq(f.dom, f.cod, cells)


def rep_of(q: QuotientResult, element):
    """The representative of the class of ``element`` in ``q``."""
    return q.representative[q.class_index[element]]


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


def product_object(x: FinGroupoid, y: FinGroupoid) -> FinGroupoid:
    """Binary product of objects: the coproduct of the groupoids."""
    return disjoint_union(x, y)


def cat_iso(f: CatSymSeq, g: CatSymSeq) -> Optional[SymSeqMap]:
    """Global equivariant iso search with propagation along every transport."""
    keys = sorted(set(f.support()) | set(g.support()), key=skey)
    for key in keys:
        if len(f.labels(*key)) != len(g.labels(*key)):
            return None
    mapping: dict = {}

    def propagate(seed_key, seed_a, seed_b, mapping):
        queue = [(seed_key, seed_a)]
        mapping = dict(mapping)
        if mapping.get((seed_key, seed_a), seed_b) != seed_b:
            return None
        mapping[(seed_key, seed_a)] = seed_b
        while queue:
            key, la = queue.pop()
            lb = mapping[(key, la)]
            moves = [((v, key[1]), f.dom_at(key, v, a, la), g.dom_at(key, v, a, lb))
                     for v, a in f.dom_arrows(key)]
            moves += [((key[0], f.cod.dst[b]), f.cod_at(key, b, la), g.cod_at(key, b, lb))
                      for b in f.cod_arrows(key)]
            for key2, xa, xb in moves:
                node = (key2, xa)
                if node not in mapping:
                    mapping[node] = xb
                    queue.append(node)
                elif mapping[node] != xb:
                    return None
        return mapping

    def injective_per_cell(mapping):
        seen: dict = {}
        for (key, la), lb in mapping.items():
            if (key, lb) in seen and seen[(key, lb)] != la:
                return False
            seen[(key, lb)] = la
        return True

    def search(mapping):
        pending = next(
            ((key, la) for key in keys for la in f.labels(*key) if (key, la) not in mapping), None
        )
        if pending is None:
            return mapping
        key, la = pending
        for lb in g.labels(*key):
            ext = propagate(key, la, lb, mapping)
            if ext is None or not injective_per_cell(ext):
                continue
            res = search(ext)
            if res is not None:
                return res
        return None

    res = search({})
    if res is None:
        return None
    comp: dict = {}
    for (key, la), lb in res.items():
        comp.setdefault(key, {})[la] = lb
    return SymSeqMap(f, g, comp)


def cat_left_unitor(idf: Composite) -> SymSeqMap:
    """``Id o F -> F``: transport along the shuffle, then along the unary arrow.

    The reference for :func:`opdbim.catsym.cat_left_unit`, the step a map
    that reads it applies inside itself, and ``cat_left_insert``, its inverse.
    """
    f = idf.inner
    comp = {}
    for key, reps in idf.reps.items():
        w, y = key
        m = {}
        for idx, raw in enumerate(reps):
            mid, g, blocks, fs, arr = raw
            # g: mid[0] -> y in the codomain groupoid; block word realizes F at w
            b = blocks[0]
            lab = f.dom_at((b, mid[0]), w, arr, fs[0])
            m[idx] = f.cod_at((w, mid[0]), g, lab)
        comp[key] = m
    return SymSeqMap(idf.seq, f, comp)


def cat_right_unitor(fid: Composite) -> SymSeqMap:
    """``F o Id -> F``: absorb the unary arrows and the shuffle.

    The reference for :func:`opdbim.catsym.cat_right_unit` and
    ``cat_right_insert``.
    """
    f = fid.outer
    dom = f.dom
    comp = {}
    for key, reps in fid.reps.items():
        w, y = key
        m = {}
        for idx, raw in enumerate(reps):
            mid, g, blocks, fs, arr = raw
            # arr: w -> concat(blocks); then letterwise arrows into mid
            d = (tuple(range(len(mid))), tuple(fs))
            total = sw_compose(dom, arr, d)
            m[idx] = f.dom_at((mid, y), w, total, g)
        comp[key] = m
    return SymSeqMap(fid.seq, f, comp)


def cat_associator(hg: Composite, hg_f: Composite, gf: Composite, h_gf: Composite) -> SymSeqMap:
    """Canonical iso ``(H o G) o F -> H o (G o F)`` on every class of ``hg_f``, both bracketings built.

    The reference for :func:`opdbim.catsym.cat_regroup` and ``cat_ungroup``,
    which apply it inside the map that reads it.
    """
    dom = gf.inner.dom
    f = gf.inner
    comp = {}
    for key, reps in hg_f.reps.items():
        w, t_out = key
        m = {}
        for idx, raw in enumerate(reps):
            mid, q, blocks, fs, arr = raw
            zmid, h, yblocks, gs, tau = hg.rep(mid, t_out, q)
            sigma_tau = Perm(tau[0])
            yoffs = block_offsets([len(d) for d in yblocks])
            new_blocks, new_fs, kappas, group_words = [], [], [], []
            for j, d in enumerate(yblocks):
                # cod-transport the inner labels along the components of tau
                sub_blocks, sub_fs = [], []
                for p in range(yoffs[j], yoffs[j + 1]):
                    i = sigma_tau(p)
                    comp_arrow = tau[1][p]  # mid[i] -> (+yblocks)[p]
                    sub_blocks.append(blocks[i])
                    sub_fs.append(f.cod_at((blocks[i], mid[i]), comp_arrow, fs[i]))
                u = tuple(o for bl in sub_blocks for o in bl)
                e, kap = sw_canonical(dom, u)
                kap_arrow = sw_perm_arrow(dom, u, kap)
                gf_raw = (d, gs[j], tuple(sub_blocks), tuple(sub_fs), kap_arrow)
                new_blocks.append(e)
                new_fs.append(gf.class_of(e, zmid[j], gf_raw))
                kappas.append(kap_arrow)
                group_words.append(u)
            rearrange = sw_block_perm(dom, list(blocks), sigma_tau)
            chi = sw_block_diag(dom, [sw_inverse(dom, k) for k in kappas], group_words)
            arr2 = sw_compose(dom, sw_compose(dom, arr, rearrange), chi)
            m[idx] = h_gf.class_of(w, t_out, (zmid, h, tuple(new_blocks), tuple(new_fs), arr2))
        comp[key] = m
    return SymSeqMap(hg_f.seq, h_gf.seq, comp)


def relative_compose_chain(nb, mb) -> tuple:
    """``(carrier, proj, lam, rho)`` of ``N o_B M`` by whiskers after built associators.

    The chain ``relative_compose`` used before its regroup steps: both
    bracketings of ``N o B o M``, ``C o N o M`` and ``N o M o A`` are built,
    each map goes through the associator (or its inverse) between them, and
    the induced actions are read at the class of each lifted raw.
    """
    w = min(nb.window, mb.window)
    n, m = nb.carrier, mb.carrier
    nm = compose_symseq(n, m, max_arity=w)
    nb_ = compose_symseq(n, nb.right.carrier, max_arity=w)
    nb_m = compose_symseq(nb_.seq, m, max_arity=w)
    b_m = compose_symseq(mb.left.carrier, m, max_arity=w)
    n_bm = compose_symseq(n, b_m.seq, max_arity=w)
    e1 = hcompose_maps(restrict_map(nb.rho, nb_.seq), identity_map(m), nb_m, nm)
    e2 = compose_maps(
        hcompose_maps(identity_map(n), restrict_map(mb.lam, b_m.seq), n_bm, nm),
        associator(nb_, nb_m, b_m, n_bm),
    )
    carrier, proj = coequalize_maps(e1, e2)
    lift: dict = {}
    for key, cm in proj.comp.items():
        sec = lift.setdefault(key, {})
        for cls_nm, cls_rel in cm.items():
            sec[cls_rel] = min(sec.get(cls_rel, cls_nm), cls_nm)
    cc, ac = nb.left.carrier, mb.right.carrier
    c_q, c_nm = compose_symseq(cc, carrier, max_arity=w), compose_symseq(cc, nm.seq, max_arity=w)
    c_n = compose_symseq(cc, n, max_arity=w)
    cn_m = compose_symseq(c_n.seq, m, max_arity=w)
    chain_l = compose_maps(proj, compose_maps(
        hcompose_maps(restrict_map(nb.lam, c_n.seq), identity_map(m), cn_m, nm),
        map_inverse(associator(c_n, cn_m, nm, c_nm)),
    ))

    def lam_fn(key, raw):
        mid, g, blocks, qs, sig = raw
        lifted = tuple(lift[(b, y)][q] for b, y, q in zip(blocks, mid, qs))
        return chain_l.at(*key, c_nm.class_of(*key, (mid, g, blocks, lifted, sig)))

    q_a, nm_a = compose_symseq(carrier, ac, max_arity=w), compose_symseq(nm.seq, ac, max_arity=w)
    m_a = compose_symseq(m, ac, max_arity=w)
    n_ma = compose_symseq(n, m_a.seq, max_arity=w)
    chain_r = compose_maps(proj, compose_maps(
        hcompose_maps(identity_map(n), restrict_map(mb.rho, m_a.seq), n_ma, nm),
        associator(nm, nm_a, m_a, n_ma),
    ))

    def rho_fn(key, raw):
        mid, q, blocks, as_, sig = raw
        return chain_r.at(*key, nm_a.class_of(*key, (mid, lift[(mid, key[1])][q], blocks, as_, sig)))

    return carrier, proj, mu_from_raws(c_q, lam_fn, carrier), mu_from_raws(q_a, rho_fn, carrier)


def rel_associator_chain(nm_rel, nm_l, ml_rel, n_ml) -> SymSeqMap:
    """``(N o_C M) o_B L -> N o_C (M o_B L)`` through built bracketings and a built associator.

    The chain ``rel_associator`` used before it regrouped each lifted raw:
    both plain bracketings ``(N o M) o L`` and ``N o (M o L)`` are built,
    with the whole associator between them and ``id o proj`` over every
    class of the second, and each relative class is read through them.
    """
    nm, ml = nm_rel.nm, ml_rel.nm
    n_carrier, l_carrier = nm.outer, ml.inner
    w = min(nm_l.bimodule.window, n_ml.bimodule.window)
    nm_plain_l = compose_symseq(nm.seq, l_carrier, max_arity=w)
    n_ml_plain = compose_symseq(n_carrier, ml.seq, max_arity=w)
    asc = associator(nm, nm_plain_l, ml, n_ml_plain)
    proj_inner = hcompose_maps(identity_map(n_carrier), ml_rel.proj, n_ml_plain, n_ml.nm)
    comp: dict = {}
    for key, sec in nm_l.lift.items():
        table = comp[key] = {}
        for cls, q1l_cls in sec.items():
            mid, q1, blocks, ls, sig = nm_l.nm.rep(*key, q1l_cls)
            raw3 = (mid, nm_rel.lift[(mid, key[1])][q1], blocks, ls, sig)
            c4 = asc.at(*key, nm_plain_l.class_of(*key, raw3))
            table[cls] = n_ml.proj.at(*key, proj_inner.at(*key, c4))
    return SymSeqMap(nm_l.bimodule.carrier, n_ml.bimodule.carrier, comp)


def lax_chain(f, a, b, phi, window) -> tuple:
    """``(lam, s1, s2)`` of ``bimodule_of_lax`` through built associators.

    The chain the builder used before its regroup steps: ``(B o F) o A`` and
    ``B o (B o F)`` are built, ``lam`` is ``rho o (phi o A)`` after the inverse
    associator, and the square's second side ``s2`` is ``lam o (B o phi)``
    after the associator; ``s1`` is its first side, ``phi o (mu o F)``.
    """
    ac, bc = a.carrier, b.carrier
    bf = compose_symseq(bc, f, max_arity=window)
    fa = compose_symseq(f, ac, max_arity=window)
    phi = restrict_map(phi, bf.seq, fa.seq)
    fa_a, rho = free_right_action(fa, a, window)
    b_fa = compose_symseq(bc, fa.seq, max_arity=window)
    bf_a = compose_symseq(bf.seq, ac, max_arity=window)
    phi_a = hcompose_maps(phi, identity_map(ac), bf_a, fa_a)
    lam = compose_maps(rho, compose_maps(phi_a, map_inverse(associator(bf, bf_a, fa, b_fa))))
    comp2b = compose_symseq(bc, bc, max_arity=window)
    bb_f = compose_symseq(comp2b.seq, f, max_arity=window)
    b_bf = compose_symseq(bc, bf.seq, max_arity=window)
    s1 = compose_maps(phi, hcompose_maps(restrict_map(b.mu, comp2b.seq), identity_map(f), bb_f, bf))
    b_phi = hcompose_maps(identity_map(bc), phi, b_bf, b_fa)
    s2 = compose_maps(lam, compose_maps(b_phi, associator(comp2b, bb_f, bf, b_bf)))
    return lam, s1, s2


def oplax_rho_chain(f, a, b, psi, window) -> SymSeqMap:
    """``rho`` of ``bimodule_of_oplax`` through a built ``B o (F o A)``: ``lam o (B o psi)`` after the associator."""
    ac, bc = a.carrier, b.carrier
    bf = compose_symseq(bc, f, max_arity=window)
    fa = compose_symseq(f, ac, max_arity=window)
    psi = restrict_map(psi, fa.seq, bf.seq)
    b_bf, lam = free_left_action(b, bf, window)
    bf_a = compose_symseq(bf.seq, ac, max_arity=window)
    b_fa = compose_symseq(bc, fa.seq, max_arity=window)
    b_psi = hcompose_maps(identity_map(bc), psi, b_fa, b_bf)
    return compose_maps(lam, compose_maps(b_psi, associator(bf, bf_a, fa, b_fa)))


def transport_chain(f, u, eps, a, b, xi, window, adj) -> tuple:
    """``(psi, phi, unit, counit)`` of ``transport_adjunction`` through built associators.

    Each map goes through the whole associator (or its inverse) between two
    built bracketings and is whiskered on representatives after it.  The
    unit and counit descend along ``adj``'s own relative composites and read
    the free left action of ``adj.left``.
    """
    ac, bc = a.carrier, b.carrier
    fu = compose_symseq(f, u, max_arity=window)
    eps = restrict_map(eps, fu.seq, id_symseq(f.cod))
    bf = compose_symseq(bc, f, max_arity=window)
    u_bf = compose_symseq(u, bf.seq, max_arity=window)
    xi = restrict_map(xi, a.carrier, u_bf.seq)
    # psi: F o A -> F o (U o (B o F)) -> (F o U) o (B o F) -> Id o (B o F) -> B o F
    fa = compose_symseq(f, ac, max_arity=window)
    f_ubf = compose_symseq(f, u_bf.seq, max_arity=window)
    fu_bf = compose_symseq(fu.seq, bf.seq, max_arity=window)
    id_bf = compose_symseq(id_symseq(f.cod), bf.seq, max_arity=window)
    psi = compose_maps(left_unitor(id_bf), compose_maps(
        hcompose_maps(eps, identity_map(bf.seq), fu_bf, id_bf),
        compose_maps(map_inverse(associator(fu, fu_bf, u_bf, f_ubf)), hcompose_maps(identity_map(f), xi, fa, f_ubf)),
    ))
    # phi: A o U -> (U o (B o F)) o U -> U o ((B o F) o U) -> U o B
    au = compose_symseq(ac, u, max_arity=window)
    ubf_u = compose_symseq(u_bf.seq, u, max_arity=window)
    bf_u = compose_symseq(bf.seq, u, max_arity=window)
    u_bfu = compose_symseq(u, bf_u.seq, max_arity=window)
    b_fu = compose_symseq(bc, fu.seq, max_arity=window)
    b_id = compose_symseq(bc, id_symseq(f.cod), max_arity=window)
    ub = compose_symseq(u, bc, max_arity=window)
    inner = compose_maps(right_unitor(b_id), compose_maps(
        hcompose_maps(identity_map(bc), eps, b_fu, b_id), associator(bf, bf_u, fu, b_fu),
    ))
    phi = compose_maps(hcompose_maps(identity_map(u), inner, u_bfu, ub), compose_maps(
        associator(u_bf, ubf_u, bf_u, u_bfu), hcompose_maps(xi, identity_map(u), au, ubf_u),
    ))
    # unit: (U o B) o (B o F) -> U o (B o (B o F)) -> U o (B o F), descended
    fprime, gf, fg = adj.left, adj.gf, adj.fg
    u_b_bf = compose_symseq(u, fprime.bm.seq, max_arity=window)
    m = compose_maps(
        hcompose_maps(identity_map(u), fprime.lam, u_b_bf, u_bf), associator(ub, gf.nm, fprime.bm, u_b_bf),
    )
    unit = compose_maps(map_inverse(descend(gf, m, u_bf.seq)), xi)
    # counit: (B o F) o (U o B) -> B o (F o (U o B)) -> B o B -> B, descended
    comp2b = compose_symseq(bc, bc, max_arity=window)
    f_ub = compose_symseq(f, ub.seq, max_arity=window)
    b_fub = compose_symseq(bc, f_ub.seq, max_arity=window)
    fu_b = compose_symseq(fu.seq, bc, max_arity=window)
    id_b = compose_symseq(id_symseq(f.cod), bc, max_arity=window)
    inner2 = compose_maps(left_unitor(id_b), compose_maps(
        hcompose_maps(eps, identity_map(bc), fu_b, id_b), map_inverse(associator(fu, fu_b, ub, f_ub)),
    ))
    sigma = compose_maps(restrict_map(b.mu, comp2b.seq), compose_maps(
        hcompose_maps(identity_map(bc), inner2, b_fub, comp2b), associator(bf, fg.nm, f_ub, b_fub),
    ))
    return psi, phi, unit, descend(fg, sigma, bc)


# --- unit laws through built Id o F and F o Id and inverted unitors --------------


def morphism_unit_chain(f, a, b, m, window, lax) -> tuple:
    """The two sides of the unit triangle of a lax ``phi: B o F -> F o A`` (``lax``) or an oplax ``psi: F o A -> B o F``.

    The chain ``bimodule_of_lax`` and ``bimodule_of_oplax`` used before they
    read the triangle per label of ``F``: both sides start at a built ``Id o
    F``, one side through ``eta o F``, the other through the left unitor,
    the inverse of the right unitor of a built ``F o Id`` and ``F o eta``
    (the oplax triangle is its mirror image).
    """
    bf = compose_symseq(b.carrier, f, max_arity=window)
    fa = compose_symseq(f, a.carrier, max_arity=window)
    idf = compose_symseq(b.eta.src, f, max_arity=window)
    fid = compose_symseq(f, a.eta.src, max_arity=window)
    b_eta = hcompose_maps(b.eta, identity_map(f), idf, bf)
    a_eta = hcompose_maps(identity_map(f), a.eta, fid, fa)
    if lax:
        u2 = compose_maps(a_eta, compose_maps(map_inverse(right_unitor(fid)), left_unitor(idf)))
        return compose_maps(restrict_map(m, bf.seq, fa.seq), b_eta), u2
    u2 = compose_maps(b_eta, compose_maps(map_inverse(left_unitor(idf)), right_unitor(fid)))
    return compose_maps(restrict_map(m, fa.seq, bf.seq), a_eta), u2


def sym_triangle_chains(f, u, eta, eps, window) -> tuple:
    """``(tri1, tri2)``: the triangle identities of ``F -| U`` in Sym, each to be the identity.

    The chains ``transport_adjunction`` used before it started each triangle
    from insertions of ``eta``'s images: ``F o eta`` on a built ``F o Id``
    after the inverse right unitor, and ``eta o U`` on a built ``Id o U``
    after the inverse left unitor.
    """
    uf = compose_symseq(u, f, max_arity=window)
    fu = compose_symseq(f, u, max_arity=window)
    eta = restrict_map(eta, id_symseq(f.dom), uf.seq)
    eps = restrict_map(eps, fu.seq, id_symseq(f.cod))
    f_id = compose_symseq(f, id_symseq(f.dom), max_arity=window)
    id_f = compose_symseq(id_symseq(f.cod), f, max_arity=window)
    f_uf = compose_symseq(f, uf.seq, max_arity=window)
    m1 = hcompose_maps(identity_map(f), eta, f_id, f_uf)
    m2 = mu_from_raws(f_uf, ungroup(fu, uf, eps, id_f), id_f.seq)
    tri1 = compose_maps(left_unitor(id_f), compose_maps(m2, compose_maps(m1, map_inverse(right_unitor(f_id)))))
    u_id = compose_symseq(u, id_symseq(u.dom), max_arity=window)
    id_u = compose_symseq(id_symseq(u.cod), u, max_arity=window)
    uf_u = compose_symseq(uf.seq, u, max_arity=window)
    n1 = hcompose_maps(eta, identity_map(u), id_u, uf_u)
    n2 = regroup_map(uf, uf_u, fu, identity_map(u), eps, u_id)
    tri2 = compose_maps(right_unitor(u_id), compose_maps(n2, compose_maps(n1, map_inverse(left_unitor(id_u)))))
    return tri1, tri2


def cat_monad_unit_chains(hm, cap) -> tuple:
    """The two sides of the left and of the right unit law of a hom monad, on built ``Id_Z o E`` and ``E o Id_Z``.

    The chain ``check_cat_monad`` used before it read each unit law per
    label of ``E``: ``mu`` after ``eta o E`` against the left unitor, and
    ``mu`` after ``E o eta`` against the right unitor.
    """
    e, mu, eta, ee, idz = hm.e, hm.mu, hm.eta, hm.ee, hm.eta.src
    ide, eid = cat_compose(idz, e, max_arity=cap), cat_compose(e, idz, max_arity=cap)
    return (
        (compose_maps(mu, hcompose_maps(eta, identity_map(e), ide, ee)), cat_left_unitor(ide)),
        (compose_maps(mu, hcompose_maps(identity_map(e), eta, eid, ee)), cat_right_unitor(eid)),
    )
