"""Operads as monads on symmetric sequences, their algebras, and enumeration.

An operad carries an explicit multiplication ``mu`` defined on the
materialized composite of its carrier with itself and a unit ``eta`` from the
identity sequence.  Monad laws are verified by exhaustive comparison of
2-cells on every composite cell of arity at most the operad's window; a
failure reports the first offending cell and label.  The associativity and
unit laws of an action are checked in one place, ``action_laws``: it returns
the check of an action on the law-check fixtures of its carrier, everything
the laws build before they read the action.  An operad keeps each fixture it
has built in ``Operad.memo`` (:func:`held`), keyed by what the fixture reads,
so a later check of equal carrier content builds none of it again; every
check still validates the action and compares it on every class, and no
verdict is kept.  Associativity reads the other bracketing through a regroup
step and the unit laws read ``(eta; f)`` per label, so neither builds a
composite only to read it once.  The monad laws are the operad's left action
on its own carrier plus the right unit law, and a bimodule runs it once per
side.  Every builder in this module law-checks what it builds; there is no
switch to skip it.

Change of base along a sort map ``u`` is written once: ``pulled_back_cells``
gives the cells ``B[u(w); y]`` with the pulled-back Young action,
``pulled_back_outputs`` the cells ``B[v; u(x)]``, and ``reindex_raw`` turns a
composite raw over the source sorts into the raw of ``B o B`` it names.
Canonical position ``j`` of ``u(w)`` holds input position ``tau^-1(j)``, where
``tau: canonical(u(w)) -> u(w)`` is the arrow ``canonical_word`` returns.  The
pullback operad here and ``u°``, ``u_∘`` and restriction in :mod:`.bimodules`
all go through these functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from operator import getitem
from typing import Callable, Iterable, Optional

from .perms import (
    BudgetError,
    InputError,
    Perm,
    ValidationError,
    Word,
    YoungSet,
    block_offsets,
    block_perm,
    canonical_word,
    compose,
    enumerate_equivariant_maps,
    is_canonical,
    quotient,
    skey,
    ssorted,
    stab_gens,
    young_classes,
)
from .symseq import (
    Composite,
    Family,
    SymSeq,
    SymSeqMap,
    analytic_eval,
    compose_maps,
    compose_symseq,
    diag_images,
    first_map_difference,
    hcompose_maps,
    id_symseq,
    identity_map,
    labelwise,
    left_insert,
    map_equal,
    mu_from_raws,
    regroup_map,
    require_equal,
    restrict_map,
    right_insert,
)

DEFAULT_BUDGET = 2_000_000
ISO_SEARCH_BUDGET = 100_000   # candidate cell-map tuples per sort map in operad_iso


@dataclass
class Operad:
    """An operad: ``mu`` on ``carrier o carrier`` and ``eta`` from the identity, law-checked by :func:`make_operad`.

    ``memo`` holds the law-check fixtures built against this operad
    (:func:`held`): what :func:`action_laws` builds before it reads an
    action, and the ``(B o M) o A`` of :func:`.bimodules.bimodule_laws`.  It
    holds at most one fixture per distinct carrier content checked against
    the operad, per cap, window and side, and nothing else; no fixture
    holds the operad, so the memo is freed with it, by reference counting.
    """

    sorts: tuple
    carrier: SymSeq
    mu: SymSeqMap            # comp2.seq -> carrier
    eta: SymSeqMap           # Id -> carrier
    arity_bound: int
    reduced: bool
    comp2: Composite
    memo: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def eta_label(self, x):
        return self.eta.at((x,), x, ("id", x))

    def support(self):
        return self.carrier.support()

    def is_unit_operad(self) -> bool:
        return all(
            len(w) == 1 and cell.size == 1
            for (w, _x), cell in self.carrier.cells.items()
            if cell.size
        )


def make_operad(
    carrier: SymSeq,
    mu_fn: Callable,
    eta_labels: dict,
    arity_bound: int,
) -> Operad:
    """Assemble and law-check an operad.

    ``mu_fn(key, raw)`` gives the multiplication on composite class
    representatives; ``eta_labels`` maps each sort to its identity label.
    """
    sorts = carrier.dom
    if set(carrier.cod) != set(sorts):
        raise InputError("operad carrier must be an endo sequence")
    reduced = all(len(w) > 0 for (w, _x) in carrier.cells)
    ident = id_symseq(sorts)
    comp2 = compose_symseq(carrier, carrier, max_arity=arity_bound)
    mu = mu_from_raws(comp2, mu_fn, carrier)
    eta = SymSeqMap(
        ident,
        carrier,
        {((x,), x): {("id", x): eta_labels[x]} for x in sorts},
    )
    op = Operad(sorts, carrier, mu, eta, arity_bound, reduced, comp2)
    check_monad_laws(op)
    return op


def check_monad_laws(op: Operad) -> None:
    """The operad's left action on its own carrier, then the right unit law.

    ``mu`` and ``eta`` are validated first, so the laws read equivariant maps.
    """
    op.mu.validate()
    op.eta.validate()
    n = op.arity_bound
    action_laws(op, op.comp2, n, True, ("associativity", "left unit law"))(op.mu)
    _unit_law(op, op.comp2, n, False, "right unit law")(op.mu)


def held(op: Operad, key: tuple, build: Callable):
    """``build()`` once per ``key`` for as long as ``op`` lives, kept in ``op.memo``.

    ``key`` names everything ``build`` reads besides the operad, by content
    token where it reads a sequence, and ``build`` returns nothing that
    holds ``op``, so the memo holds no cycle.
    """
    value = op.memo.get(key)
    if value is None:
        value = op.memo[key] = build()
    return value


def _fixture_key(kind: str, om: Composite, w: int, left: bool) -> tuple:
    """What a fixture on ``om`` reads besides its operad: ``om`` by its factors' tokens and cap, the window and the side."""
    return (kind, om.outer.content(), om.inner.content(), om.cap, w, left)


def _in_order(left: bool, p, q) -> tuple:
    """``(p, q)`` for a left action and ``(q, p)`` for a right one: ``p`` is the operad's side."""
    return (p, q) if left else (q, p)


def action_laws(op: Operad, om: Composite, w: int, left: bool, laws: tuple) -> Callable[[SymSeqMap], None]:
    """The check of associativity and unit, named by ``laws``, of an action ``act: om.seq -> M``.

    ``om`` is ``op o M`` for a left action (``left``) and ``M o op`` for a
    right one.  Everything up to arity ``w`` that does not read ``act`` is a
    fixture, held by ``op`` (:func:`held`) and built once per carrier
    content, cap, window and side; the law names are not part of its key,
    so the monad-law fixture of ``op`` serves the left action of its
    identity bimodule.  Associativity compares ``act`` after two maps on
    every class of ``(op o op) o M`` or ``(M o op) o op``: the inner step
    there (``mu o id`` or ``act o id``), and the regroup step
    (:func:`.symseq.regroup_map`) whiskered by the other bracketing's inner
    step (``id o act`` or ``id o mu``), so that bracketing is never built.
    The regroup step is the whisker after the associator only for an
    equivariant ``act``, so ``act`` must pass ``validate`` first, as in
    :func:`check_monad_laws` and :func:`.bimodules.bimodule_laws`.  A failure
    names the law, the first differing cell and class, and both values.
    """
    fixed, by_act = held(op, _fixture_key("associativity", om, w, left), lambda: _associativity_fixture(op, om, w, left))
    unit_law = _unit_law(op, om, w, left, laws[1])

    def check(act: SymSeqMap) -> None:
        require_equal(laws[0], *(compose_maps(act, side) for side in _in_order(left, fixed, by_act(act))))
        unit_law(act)

    return check


def _associativity_fixture(op: Operad, om: Composite, w: int, left: bool) -> tuple:
    """``(fixed, by_act)``: the map of associativity that does not read ``act``, and the one that does, as a function of it."""
    m = om.inner if left else om.outer
    comp2 = compose_symseq(op.carrier, op.carrier, max_arity=w)
    mu = restrict_map(op.mu, comp2.seq)
    id_op = identity_map(op.carrier)
    if left:  # on (op o op) o M: mu o id against id o act after the regroup
        oo_m = compose_symseq(comp2.seq, m, max_arity=w)
        return hcompose_maps(mu, identity_map(m), oo_m, om), partial(regroup_map, comp2, oo_m, om, id_op, dst=om)
    # on (M o op) o op: act o id against id o mu after the regroup
    oo_m = compose_symseq(om.seq, op.carrier, max_arity=w)
    return regroup_map(om, oo_m, comp2, identity_map(m), mu, om), partial(hcompose_maps, alpha=id_op, src=oo_m, dst=om)


def _unit_law(op: Operad, om: Composite, w: int, left: bool, law: str) -> Callable[[SymSeqMap], None]:
    """The check that ``act`` sends the class of ``(eta; f)`` to ``f`` for every label ``f`` of ``M`` up to arity ``w``.

    ``(eta; f)`` is the raw of ``om`` (``op o M`` if ``left``, else ``M o
    op``) that puts ``f`` under the unit, or units under ``f``, with the
    identity arrow (:func:`.symseq.left_insert`, :func:`.symseq.right_insert`):
    one per class of ``Id o M`` or ``M o Id``, which is not built.  The map
    ``f -> (eta; f)`` is a fixture held by ``op``; every label is compared.
    """
    m, insert = (om.inner, left_insert) if left else (om.outer, right_insert)
    units = held(op, _fixture_key("unit", om, w, left), lambda: labelwise(m, insert(om, op.eta_label), om.seq, w))

    def check(act: SymSeqMap) -> None:
        for key, classes in units.comp.items():
            for f, cls in classes.items():
                value = act.at(*key, cls)
                if value != f:
                    raise ValidationError(f"{law} fails at cell {key}, label {f!r}: {value!r} != {f!r}")

    return check


def same_operad(p: Operad, q: Operad) -> bool:
    """One operad: ``p is q``, or equal cells and units and equal ``mu`` on every cell both hold."""
    if p is q:
        return True
    if p.carrier.cells != q.carrier.cells or p.eta.comp != q.eta.comp:
        return False
    return all(p.mu.comp[k] == q.mu.comp[k] for k in p.mu.comp.keys() & q.mu.comp.keys())


# ---------------------------------------------------------------------------
# builtin operads
# ---------------------------------------------------------------------------


def unit_operad(sorts: Iterable, arity_bound: int = 2) -> Operad:
    ident = id_symseq(ssorted(sorts))

    def mu_fn(key, raw):
        _w, x = key
        return ("id", x)

    return make_operad(ident, mu_fn, {x: ("id", x) for x in ssorted(sorts)}, arity_bound)


def com_operad(arity_bound: int) -> Operad:
    star = "*"
    cells = {}
    for k in range(1, arity_bound + 1):
        w = (star,) * k
        cells[(w, star)] = YoungSet.trivial(w, (0,))
    carrier = SymSeq((star,), (star,), cells)
    return make_operad(carrier, lambda key, raw: 0, {star: 0}, arity_bound)


def assoc_operad(arity_bound: int) -> Operad:
    star = "*"
    cells = {}
    for k in range(1, arity_bound + 1):
        w = (star,) * k
        labels = tuple(sorted(itertools.permutations(range(k))))
        gen_maps = {}
        for t in stab_gens(w):
            s = Perm.transposition(k, t)
            gen_maps[t] = {lab: tuple(s(e) for e in lab) for lab in labels}
        cells[(w, star)] = YoungSet(w, labels, gen_maps)
    carrier = SymSeq((star,), (star,), cells)

    def mu_fn(key, raw):
        mid, g, blocks, fs, sig = raw
        sigma = Perm(sig)
        offs = block_offsets([len(b) for b in blocks])
        out = []
        for a in g:
            for b in fs[a]:
                out.append(sigma(offs[a] + b))
        return tuple(out)

    return make_operad(carrier, mu_fn, {star: (0,)}, arity_bound)


def terminal_operad() -> Operad:
    carrier = SymSeq((), (), {})
    return make_operad(carrier, lambda key, raw: None, {}, 1)


# ---------------------------------------------------------------------------
# free and presented operads
# ---------------------------------------------------------------------------


def _ordered_partitions(positions: tuple, k: int):
    """All ways to split a position set into k ordered nonempty parts."""
    if k == 0:
        if not positions:
            yield ()
        return
    if len(positions) < k:
        return
    if k == 1:
        yield (positions,)
        return
    for size in range(1, len(positions) - k + 2):
        for part0 in itertools.combinations(positions, size):
            remaining = tuple(p for p in positions if p not in part0)
            for parts in _ordered_partitions(remaining, k - 1):
                yield (part0,) + parts


def _free_terms(w: Word, out, signature, cache):
    """All signature terms over the positions of ``w`` with output sort ``out``."""

    def terms(positions: tuple, sort):
        key = (positions, sort)
        if key in cache:
            return cache[key]
        found = []
        if len(positions) == 1 and w[positions[0]] == sort:
            found.append(("v", positions[0]))
        for (v, o), names in signature.items():
            if o != sort:
                continue
            k = len(v)
            for parts in _ordered_partitions(positions, k):
                child_choices = [terms(part, v[j]) for j, part in enumerate(parts)]
                if any(not c for c in child_choices):
                    continue
                for kids in itertools.product(*child_choices):
                    for name in names:
                        found.append(("g", name, kids))
        found.sort(key=skey)
        cache[key] = found
        return found

    # distributing positions into slots only needs position *sets*; but slots
    # are ordered, so we enumerate ordered tuples of disjoint subsets
    return terms(tuple(range(len(w))), out)


def _relabel_term(term, images):
    if term[0] == "v":
        return ("v", images[term[1]])
    return ("g", term[1], tuple(_relabel_term(t, images) for t in term[2]))


def _graft(raw, inner_terms):
    """Substitute inner terms into the leaves of the outer term of a raw."""
    mid, g, blocks, fs, sig = raw
    sigma = Perm(sig)
    offs = block_offsets([len(b) for b in blocks])

    def go(term):
        if term[0] == "v":
            a = term[1]
            images = {q: sigma(offs[a] + q) for q in range(len(blocks[a]))}
            return _relabel_term(inner_terms[a], images)
        return ("g", term[1], tuple(go(t) for t in term[2]))

    return go(g)


def _norm_signature(signature) -> dict:
    out = {}
    for (v, o), names in signature.items():
        v = tuple(v)
        if not is_canonical(v):
            raise InputError(f"signature word {v} is not canonical")
        if len(v) == 0:
            raise InputError("nullary generators are rejected: free cells would be infinite")
        if len(v) == 1:
            raise InputError("unary generators are rejected: free cells would be infinite")
        out[(v, o)] = tuple(names)
    return out


def _free_cells(sorts, signature, arity_bound):
    sorts = ssorted(sorts)
    cells = {}
    for n in range(1, arity_bound + 1):
        for combo in itertools.combinations_with_replacement(sorts, n):
            w = tuple(combo)
            cache: dict = {}
            for out in sorts:
                ts = _free_terms(w, out, signature, cache)
                if ts:
                    cells[(w, out)] = tuple(ts)
    return sorts, cells


def free_operad(sorts: Iterable, signature: dict, arity_bound: int) -> Operad:
    """Labelled-tree operad on a finite signature, truncated at the window."""
    signature = _norm_signature(signature)
    sorts, term_cells = _free_cells(sorts, signature, arity_bound)
    cells = {}
    for (w, out), terms in term_cells.items():
        gen_maps = {}
        for t in stab_gens(w):
            s = Perm.transposition(len(w), t)
            images = {p: s(p) for p in range(len(w))}
            gen_maps[t] = {term: _relabel_term(term, images) for term in terms}
        cells[(w, out)] = YoungSet(w, terms, gen_maps)
    carrier = SymSeq(sorts, sorts, cells)

    def mu_fn(key, raw):
        return _graft(raw, raw[3])

    return make_operad(carrier, mu_fn, {x: ("v", 0) for x in sorts}, arity_bound)


def _match(pattern, term, theta):
    if pattern[0] == "v":
        p = pattern[1]
        if p in theta:
            return theta[p] == term
        theta[p] = term
        return True
    if term[0] != "g" or term[1] != pattern[1] or len(term[2]) != len(pattern[2]):
        return False
    return all(_match(pk, tk, theta) for pk, tk in zip(pattern[2], term[2]))


def _substitute(pattern, theta):
    if pattern[0] == "v":
        return theta[pattern[1]]
    return ("g", pattern[1], tuple(_substitute(p, theta) for p in pattern[2]))


def _rewrites(term, rules):
    """All one-step rewrites of ``term`` at any subterm, both orientations."""
    results = []

    def at(t, rebuild):
        for lhs, rhs in rules:
            theta: dict = {}
            if _match(lhs, t, theta):
                results.append(rebuild(_substitute(rhs, theta)))
        if t[0] == "g":
            for i, child in enumerate(t[2]):
                def rb(new, i=i, t=t, rebuild=rebuild):
                    kids = t[2][:i] + (new,) + t[2][i + 1 :]
                    return rebuild(("g", t[1], kids))
                at(child, rb)

    at(term, lambda x: x)
    return results


def presented_operad(sorts: Iterable, signature: dict, relations: list, arity_bound: int) -> Operad:
    """Quotient of the free operad by substitution-closed relation instances."""
    signature = _norm_signature(signature)
    rules = []
    for lhs, rhs in relations:
        lv = _leaf_positions(lhs)
        rv = _leaf_positions(rhs)
        if lv != rv:
            raise InputError(f"relation sides use different position sets: {lv} vs {rv}")
        rules.append((lhs, rhs))
        rules.append((rhs, lhs))
    sorts, term_cells = _free_cells(sorts, signature, arity_bound)
    class_data = {}
    for (w, out), terms in term_cells.items():
        edges = []
        for term in terms:
            for other in _rewrites(term, rules):
                edges.append((term, other))
        q = quotient(terms, edges)
        class_data[(w, out)] = q
    cells = {}
    for (w, out), q in class_data.items():
        gen_maps = {}
        for t in stab_gens(w):
            s = Perm.transposition(len(w), t)
            images = {p: s(p) for p in range(len(w))}
            m = {}
            for idx in range(len(q.classes)):
                m[idx] = q.class_index[_relabel_term(q.representative[idx], images)]
            gen_maps[t] = m
        cells[(w, out)] = YoungSet(w, tuple(range(len(q.classes))), gen_maps)
    carrier = SymSeq(sorts, sorts, cells)

    def mu_fn(key, raw):
        mid, g, blocks, fs, sig = raw
        gterm = class_data[(mid, key[1])].representative[g]
        inner = tuple(
            class_data[(blocks[i], mid[i])].representative[fs[i]] for i in range(len(blocks))
        )
        grafted = _graft((mid, gterm, blocks, inner, sig), inner)
        return class_data[key].class_index[grafted]

    eta_labels = {x: class_data[((x,), x)].class_index[("v", 0)] for x in sorts}
    return make_operad(carrier, mu_fn, eta_labels, arity_bound)


def _leaf_positions(term):
    if term[0] == "v":
        return {term[1]}
    out = set()
    for t in term[2]:
        out |= _leaf_positions(t)
    return out


def magma_operad(arity_bound: int) -> Operad:
    return free_operad(("*",), {(("*", "*"), "*"): ("b",)}, arity_bound)


def builtin(name: str, arity_bound: int = 3, sorts: Iterable = ("*",)) -> Operad:
    if name == "unit":
        return unit_operad(sorts, arity_bound)
    if name == "com":
        return com_operad(arity_bound)
    if name == "assoc":
        return assoc_operad(arity_bound)
    if name == "terminal":
        return terminal_operad()
    if name == "magma":
        return magma_operad(arity_bound)
    raise InputError(f"unknown builtin operad {name!r}")


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------


@dataclass
class Algebra:
    operad: Operad
    family: Family
    act: dict  # (w, x) -> {(label, tvec): value}


def _family_transport(tvec: tuple, p: Perm) -> tuple:
    return tuple(tvec[p(i)] for i in range(len(tvec)))


def check_algebra_laws(alg: Algebra, partial: bool = False) -> None:
    op = alg.operad
    t = alg.family
    n = op.arity_bound
    for (w, x), cell in op.carrier.cells.items():
        if len(w) > n or cell.size == 0:
            continue
        table = alg.act.get((w, x))
        if table is None:
            if partial:
                continue
            raise ValidationError(f"action missing on cell {(w, x)}")
        for lab in cell.labels:
            for tvec in t.power(w):
                if (lab, tvec) not in table:
                    if partial:
                        continue
                    raise ValidationError(f"action undefined at {(w, x)}, {lab!r}, {tvec}")
                val = table[(lab, tvec)]
                if val not in t.sets[x]:
                    raise ValidationError(f"action value {val!r} outside carrier at {(w, x)}")
        for i in stab_gens(w):
            s = Perm.transposition(len(w), i)
            for lab in cell.labels:
                for tvec in t.power(w):
                    a = table.get((cell.gen_maps[i][lab], tvec))
                    b = table.get((lab, _family_transport(tvec, s)))
                    if a is None or b is None:
                        continue
                    if a != b:
                        raise ValidationError(
                            f"equivariance fails at {(w, x)}, gen {i}, {lab!r}, {tvec}"
                        )
    for x in op.sorts:
        key = ((x,), x)
        table = alg.act.get(key)
        if table is None:
            continue
        e = op.eta_label(x)
        for v in t.sets[x]:
            got = table.get((e, (v,)))
            if got is not None and got != v:
                raise ValidationError(f"unit law fails at sort {x!r}: {v!r} -> {got!r}")
    for key, reps in op.comp2.reps.items():
        w, x = key
        if len(w) > n:
            continue
        for idx, raw in enumerate(reps):
            mid, g, blocks, fs, sig = raw
            sigma = Perm(sig)
            offs = block_offsets([len(b) for b in blocks])
            target = op.mu.at(w, x, idx)
            for tvec in t.power(w):
                lhs_entry = alg.act.get((w, x), {}).get((target, tvec))
                concat = tuple(tvec[sigma(p)] for p in range(len(w)))
                inner_vals = []
                ok = True
                for i, b in enumerate(blocks):
                    tv_i = concat[offs[i] : offs[i + 1]]
                    v = alg.act.get((b, mid[i]), {}).get((fs[i], tv_i))
                    if v is None:
                        ok = False
                        break
                    inner_vals.append(v)
                if not ok:
                    continue
                rhs_entry = alg.act.get((mid, x), {}).get((g, tuple(inner_vals)))
                if lhs_entry is None or rhs_entry is None:
                    if partial:
                        continue
                    raise ValidationError(f"action undefined in associativity instance at {key}")
                if lhs_entry != rhs_entry:
                    raise ValidationError(
                        f"associativity fails at {key}, class {idx}, inputs {tvec}: "
                        f"{lhs_entry!r} != {rhs_entry!r}"
                    )


def make_algebra(op: Operad, family: Family, act: dict) -> Algebra:
    if set(family.sorts) != set(op.sorts):
        raise InputError("algebra carrier sorts do not match the operad")
    alg = Algebra(op, family, act)
    check_algebra_laws(alg)
    return alg


def free_algebra(op: Operad, t: Family) -> Algebra:
    """Free algebra on a family: evaluate the carrier, act through ``mu``."""
    ev = analytic_eval(op.carrier, t, max_arity=op.arity_bound)
    act: dict = {}
    for (w, x), cell in op.carrier.cells.items():
        if len(w) > op.arity_bound or cell.size == 0:
            continue
        table = {}
        for lab in cell.labels:
            for mvec in itertools.product(*(ev.value.sets[s] for s in w)):
                raws = [ev.reps[s][m] for s, m in zip(w, mvec)]
                blocks = tuple(r[0] for r in raws)
                fs = tuple(r[1] for r in raws)
                concat_tv = tuple(v for r in raws for v in r[2])
                concat = tuple(s for b in blocks for s in b)
                if len(concat) > op.arity_bound:
                    continue  # outside the window
                e, kappa = canonical_word(concat)
                raw2 = (w, lab, blocks, fs, kappa.images)
                mu_lab = op.mu.at(e, x, op.comp2.class_of(e, x, raw2))
                # kappa: e -> concat, so s[q] = concat_tv[kappa^{-1}(q)]
                kinv = kappa.inverse()
                s_tv = tuple(concat_tv[kinv(q)] for q in range(len(e)))
                table[(lab, mvec)] = ev.class_of(x, e, mu_lab, s_tv)
        act[(w, x)] = table
    alg = Algebra(op, ev.value, act)
    check_algebra_laws(alg, partial=True)
    return alg


def _cell_action_classes(op: Operad, cell_key, t: Family):
    """Orbits of (label, input tuple) pairs under the diagonal stabilizer action."""
    w, x = cell_key
    cell = op.carrier.cells[cell_key]
    pairs = [(lab, tvec) for lab in cell.labels for tvec in t.power(w)]
    edges = []
    for (lab, tvec) in pairs:
        for i in stab_gens(w):
            s = Perm.transposition(len(w), i)
            edges.append(((cell.gen_maps[i][lab], tvec), (lab, _family_transport(tvec, s))))
    return quotient(pairs, edges)


def _cell_orbit_count(cell: YoungSet, sizes: dict) -> int:
    """Number of orbits ``_cell_action_classes`` finds, counted by Burnside.

    ``(1/|G|) sum_classes |class| * #fixed labels * #fixed input tuples``: a
    tuple is fixed by a class representative iff it is constant on each cycle,
    so the representative fixes ``prod_cycles |T_sort|`` tuples.  Nothing is
    enumerated, so the count is cheap at any carrier size.
    """
    w = cell.word
    order = fixed = 0
    for rep, size in young_classes(w):
        order += size
        labels = cell.fixed_count(rep)
        if not labels:
            continue
        tuples = 1
        seen = [False] * len(w)
        for i in range(len(w)):
            if not seen[i]:
                tuples *= sizes[w[i]]
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = rep(j)
        fixed += size * labels * tuples
    if fixed % order:
        raise ValidationError(f"cell at {w}: fixed points {fixed} not divisible by |G| = {order}")
    return fixed // order


# estimates longer than this many bits are written as a power, not in full
_ESTIMATE_BITS = 4096


def enumerate_algebras(
    op: Operad,
    sizes,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Exhaustively count algebra structures on carriers of the given sizes.

    Equivariance is built in by assigning one value per orbit of
    (operation, input tuple) pairs, cell by cell in order of arity.  Before
    branching on a cell, every value a law forces is filled in: the unit law
    fixes the identity's orbits, and an associativity instance whose outer
    and block cells are already set fixes the composite's value at each input
    tuple.  Only the remaining orbits are branched on, and a conflict between
    forced values prunes the branch.  Every table tried is still checked
    against every associativity instance as soon as every cell it mentions is
    set, so the count is exact.  The estimate ``prod_cells |T_out| ** orbits``
    is priced by Burnside counts before any orbit table is built, so an
    over-budget call refuses without enumerating; it prices the unpruned
    space, so it is an upper bound on the tables tried.
    """
    if isinstance(sizes, int):
        sizes = {x: sizes for x in op.sorts}
    sizes = {x: max(0, sizes.get(x, 0)) for x in op.sorts}
    keys = [k for k in op.support() if len(k[0]) <= op.arity_bound and op.carrier.cells[k].size]
    keys.sort(key=lambda k: (len(k[0]), skey(k)))
    orbit_counts = {}
    total = 1
    for k in keys:
        count = orbit_counts[k] = _cell_orbit_count(op.carrier.cells[k], sizes)
        base = max(1, sizes[k[1]])
        if count * (base.bit_length() - 1) > max(budget.bit_length(), _ESTIMATE_BITS):
            # base ** count alone is past the budget and too long to write out
            factor = "" if total == 1 else f"{total}*"
            raise BudgetError(
                f"algebra enumeration needs ~{factor}{base}**{count} tables, budget is {budget}"
            )
        total *= base**count
        if total > budget:
            raise BudgetError(
                f"algebra enumeration needs ~{total} tables, budget is {budget}"
            )

    t = Family(op.sorts, {x: tuple(range(sizes[x])) for x in op.sorts})
    orbit_data = {}
    for k in keys:
        q = orbit_data[k] = _cell_action_classes(op, k, t)
        if len(q.classes) != orbit_counts[k]:
            raise ValidationError(
                f"cell {k}: Burnside count {orbit_counts[k]} != {len(q.classes)} enumerated orbits"
            )

    # Associativity instances ``(key, outer, g, cells, rows)``.  Each row
    # ``(pair, args)`` is the equation act[key][pair] == act[outer][(g, vals)]
    # at one input tuple, with vals[j] = act[cells[j]][args[j]]: the block
    # arguments are read off the arrow-permuted tuple once, here.  An
    # instance is checked at the stage of the last-assigned cell it touches,
    # and forces values of its composite cell when that cell comes after all
    # the others.
    key_index = {k: i for i, k in enumerate(keys)}
    by_stage: dict = {}
    forcing: dict = {}
    for key, reps in op.comp2.reps.items():
        if key not in key_index:
            continue
        w, x = key
        for idx, (mid, g, blocks, fs, sig) in enumerate(reps):
            outer = (mid, x)
            cells = tuple((b, y) for b, y in zip(blocks, mid))
            if any(k not in key_index for k in (outer, *cells)):
                continue
            sigma = Perm(sig)
            offs = block_offsets([len(b) for b in blocks])
            target = op.mu.at(w, x, idx)
            rows = []
            for tvec in t.power(w):
                concat = tuple(tvec[sigma(p)] for p in range(len(w)))
                args = tuple((f, concat[lo:hi]) for f, lo, hi in zip(fs, offs, offs[1:]))
                rows.append(((target, tvec), args))
            inst = (key, outer, g, cells, rows)
            earlier = max(key_index[k] for k in (outer, *cells))
            by_stage.setdefault(max(earlier, key_index[key]), []).append(inst)
            if earlier < key_index[key]:
                forcing.setdefault(key_index[key], []).append(inst)

    eta_of = {x: op.eta_label(x) for x in op.sorts}

    def composite_values(inst, act):
        """``(pair, value)``: the value the outer side gives the composite at each row."""
        _key, outer, g, cells, rows = inst
        outer_table = act[outer]
        tables = [act[c] for c in cells]
        for pair, args in rows:
            yield pair, outer_table[(g, tuple(map(getitem, tables, args)))]

    def check_stage(stage, act):
        for inst in by_stage.get(stage, ()):
            table = act[inst[0]]
            for pair, value in composite_values(inst, act):
                if table[pair] != value:
                    return False
        return True

    def assign(i, act) -> int:
        if i == len(keys):
            return 1
        key = keys[i]
        w, x = key
        q = orbit_data[key]
        forced: dict = {}
        if len(w) == 1 and w[0] == x:
            for ci, (lab, tvec) in enumerate(q.representative):
                if lab == eta_of[x]:
                    forced[ci] = tvec[0]
        for inst in forcing.get(i, ()):
            for pair, value in composite_values(inst, act):
                if forced.setdefault(q.class_index[pair], value) != value:
                    return 0
        choice_space = [
            (forced[ci],) if ci in forced else t.sets[x] for ci in range(len(q.classes))
        ]
        found = 0
        for values in itertools.product(*choice_space):
            act[key] = {pair: values[ci] for pair, ci in q.class_index.items()}
            if check_stage(i, act):
                found += assign(i + 1, act)
        act.pop(key, None)
        return found

    return assign(0, {})


def enumerate_algebra_maps(src: Algebra, dst: Algebra, budget: int = DEFAULT_BUDGET):
    """All algebra maps ``src -> dst``: sorted functions commuting with the actions."""
    op = src.operad
    total = 1
    for x in op.sorts:
        total *= max(1, len(dst.family.sets[x])) ** len(src.family.sets[x])
        if total > budget:
            raise BudgetError("algebra map enumeration exceeded its budget")
    spaces = []
    for x in op.sorts:
        elems = src.family.sets[x]
        choices = [dst.family.sets[x]] * len(elems)
        spaces.append((x, elems, choices))
    found = 0
    keys = [k for k in op.support() if len(k[0]) <= op.arity_bound]

    def ok(fmap):
        for (w, x) in keys:
            table = src.act.get((w, x), {})
            dtable = dst.act.get((w, x), {})
            for (lab, tvec), val in table.items():
                mapped = tuple(fmap[s][v] for s, v in zip(w, tvec))
                if (lab, mapped) not in dtable:
                    return False
                if dtable[(lab, mapped)] != fmap[x][val]:
                    return False
        return True

    per_sort = []
    for x, elems, choices in spaces:
        per_sort.append([dict(zip(elems, combo)) for combo in itertools.product(*choices)])
    for combo in itertools.product(*per_sort):
        fmap = {x: combo[i] for i, (x, _e, _c) in enumerate(spaces)}
        if ok(fmap):
            found += 1
    return found


def compose_morphisms(second: "OperadMorphism", first: "OperadMorphism") -> "OperadMorphism":
    """Composite operad morphism, with its monad-map square re-validated."""
    if second.src is not first.dst:
        raise InputError("morphisms are not composable")
    u = {x: second.u[first.u[x]] for x in first.src.sorts}
    xi_cells = {}
    for (w, x), cell in first.src.carrier.cells.items():
        cw_mid, _tau = canonical_word(_u_word(first.u, w))
        xi_cells[(w, x)] = {
            lab: second.xi.at(cw_mid, first.u[x], first.xi.at(w, x, lab))
            for lab in cell.labels
        }
    return operad_morphism(first.src, second.dst, u, xi_cells)


# ---------------------------------------------------------------------------
# operad morphisms and the pullback operad
# ---------------------------------------------------------------------------


def _u_word(u: dict, w: Word) -> Word:
    return tuple(u[s] for s in w)


def _sorted_image(u: Optional[dict], w: Word) -> tuple[Word, Perm]:
    """``canonical_word(u(w))``; the sort map ``None`` is the identity."""
    return canonical_word(w if u is None else _u_word(u, w))


def pulled_back_cells(seq: SymSeq, u: dict, sorts_x: tuple, max_arity: Optional[int] = None) -> dict:
    """The cells ``(w, y) -> seq[u(w); y]`` over canonical words ``w`` in ``sorts_x``.

    A label keeps its place in the cell at the canonical word of ``u(w)``.
    With ``tau: canonical(u(w)) -> u(w)``, position ``i`` of ``w`` is
    position ``tau(i)`` there, so the generator ``s_i`` of the stabilizer of
    ``w`` acts as ``h = tau o s_i o tau^-1``.  Only cells with words of length
    at most ``max_arity`` (``None``: all) are pulled back.
    """
    by_target: dict = {}
    for x in sorts_x:
        by_target.setdefault(u[x], []).append(x)
    cells = {}
    for (v, y), cell in seq.cells.items():
        if cell.size == 0 or (max_arity is not None and len(v) > max_arity):
            continue
        for combo in itertools.product(*(by_target.get(s, ()) for s in v)):
            w, _t = canonical_word(combo)
            if (w, y) in cells:
                continue
            _cw, tau = _sorted_image(u, w)
            tinv = tau.inverse()
            gen_maps = {}
            for i in stab_gens(w):
                h = compose(compose(tau, Perm.transposition(len(w), i)), tinv)
                gen_maps[i] = {lab: cell.act(lab, h) for lab in cell.labels}
            cells[(w, y)] = YoungSet(w, cell.labels, gen_maps)
    return cells


def pulled_back_outputs(cells: dict, u: dict, sorts_x: tuple) -> dict:
    """The non-empty cells ``(v, x) -> cells[(v, u(x))]``: only the output sort changes."""
    out = {}
    for (v, y), cell in cells.items():
        for x in sorts_x:
            if u[x] == y and cell.size:
                out[(v, x)] = cell
    return out


def reindex_raw(raw, w: Word, u_mid: Optional[dict], u_blocks: Optional[dict]):
    """Change of base of a composite raw along sort maps: the raw it names over the target sorts.

    ``raw = (mid, g, blocks, fs, sigma)`` has result word ``w``.  ``u_mid``
    maps the sorts of ``mid`` and ``u_blocks`` those of the blocks and of
    ``w``; ``None`` is the identity, for a side already over the target
    sorts.  ``g`` and every ``fs[i]`` must already be labels of the target
    cells at the canonical words of ``u_mid(mid)`` and ``u_blocks(blocks[i])``
    (a caller pushes labels through ``xi`` first).

    The convention is the one of :func:`pulled_back_cells`: with
    ``tau: canonical(u(v)) -> u(v)`` from ``canonical_word``, canonical
    position ``j`` holds input position ``tau^-1(j)``.  So block ``j`` of the
    result is ``blocks[tau_mid^-1(j)]``, each block is sorted by its own
    ``tau^-1``, and the result word by its ``tau``.  Returns
    ``(canonical(u_blocks(w)), raw over the target sorts)``.
    """
    mid, g, blocks, fs, sig = raw
    mid_y, tau_mid = _sorted_image(u_mid, mid)
    back = tau_mid.inverse()
    canons = [_sorted_image(u_blocks, blocks[back(j)]) for j in range(len(blocks))]
    cw, tau_w = _sorted_image(u_blocks, w)
    move = block_perm([len(b) for b in blocks], back)
    sort_blocks = Perm(diag_images([t.inverse().images for _c, t in canons]))
    sig_y = compose(compose(compose(tau_w, Perm(sig)), move), sort_blocks)
    raw_y = (
        mid_y,
        g,
        tuple(c for c, _t in canons),
        tuple(fs[back(j)] for j in range(len(blocks))),
        sig_y.images,
    )
    return cw, raw_y


def pullback_operad(op: Operad, u: dict, sorts_x: Iterable, arity_bound: int) -> Operad:
    """The operad on the source sorts whose cells are ``B[u(w); u(x)]``."""
    sorts_x = ssorted(sorts_x)
    cells = pulled_back_cells(op.carrier, u, sorts_x, arity_bound)
    carrier = SymSeq(sorts_x, sorts_x, pulled_back_outputs(cells, u, sorts_x))

    def mu_fn(key, raw):
        w, x = key
        cw, raw_y = reindex_raw(raw, w, u, u)
        return op.mu.at(cw, u[x], op.comp2.class_of(cw, u[x], raw_y))

    eta_labels = {x: op.eta_label(u[x]) for x in sorts_x}
    return make_operad(carrier, mu_fn, eta_labels, arity_bound)


@dataclass
class OperadMorphism:
    src: Operad
    dst: Operad
    u: dict            # sort map
    xi: SymSeqMap      # src.carrier -> pullback carrier
    pullback: Operad   # dst pulled back along u

    def validate(self) -> None:
        a, bp = self.src, self.pullback
        self.xi.validate()
        # multiplication square
        xibis = hcompose_maps(self.xi, self.xi, a.comp2, _pull_comp2(a, bp))
        lhs = compose_maps(self.xi, a.mu)
        rhs = compose_maps(bp.mu, xibis)
        if not map_equal(lhs, rhs):
            key, lab, va, vb = first_map_difference(lhs, rhs)
            raise ValidationError(f"morphism multiplication square fails at {key}, {lab!r}")
        # unit triangle
        lhs_u = compose_maps(self.xi, a.eta)
        if not map_equal(lhs_u, bp.eta):
            raise ValidationError("morphism unit triangle fails")


def _pull_comp2(a: Operad, bp: Operad) -> Composite:
    # composite of the pullback carrier with itself, on the window of `a`
    if bp.arity_bound >= a.arity_bound:
        return bp.comp2
    return compose_symseq(bp.carrier, bp.carrier, max_arity=a.arity_bound)


def operad_morphism(src: Operad, dst: Operad, u: dict, xi_cells: dict) -> OperadMorphism:
    """Assemble and validate an operad morphism given per-cell label maps."""
    pb = pullback_operad(dst, u, src.sorts, src.arity_bound)
    xi = SymSeqMap(src.carrier, pb.carrier, xi_cells)
    phi = OperadMorphism(src, dst, u, xi, pb)
    phi.validate()
    return phi


def identity_morphism(op: Operad) -> OperadMorphism:
    u = {x: x for x in op.sorts}
    pb = pullback_operad(op, u, op.sorts, op.arity_bound)
    xi_cells = {}
    for key, cell in op.carrier.cells.items():
        xi_cells[key] = {lab: lab for lab in cell.labels}
    xi = SymSeqMap(op.carrier, pb.carrier, xi_cells)
    phi = OperadMorphism(op, op, u, xi, pb)
    phi.validate()
    return phi


def restrict_algebra(phi: OperadMorphism, alg: Algebra) -> Algebra:
    """Pull a dst-algebra back to a src-algebra along the morphism."""
    a, b, u = phi.src, phi.dst, phi.u
    fam = Family(a.sorts, {x: alg.family.sets[u[x]] for x in a.sorts})
    act: dict = {}
    for (w, x), cell in a.carrier.cells.items():
        if len(w) > a.arity_bound or cell.size == 0:
            continue
        cw_y, tau = canonical_word(_u_word(u, w))
        table = {}
        tinv = tau.inverse()
        for lab in cell.labels:
            blab = phi.xi.at(w, x, lab)
            for tvec in fam.power(w):
                s_tv = tuple(tvec[tinv(q)] for q in range(len(w)))
                table[(lab, tvec)] = alg.act[(cw_y, u[x])][(blab, s_tv)]
        act[(w, x)] = table
    out = Algebra(a, fam, act)
    check_algebra_laws(out)
    return out


# ---------------------------------------------------------------------------
# operad isomorphism certificates
# ---------------------------------------------------------------------------


def operad_iso(p: Operad, q: Operad, sort_map: Optional[dict] = None):
    """Search for an isomorphism of operads, returned as (sort map, cell maps)."""
    if len(p.sorts) != len(q.sorts):
        return None
    candidates = [sort_map] if sort_map else [
        dict(zip(p.sorts, perm)) for perm in itertools.permutations(q.sorts)
    ]
    for u in candidates:
        try:
            pb = pullback_operad(q, u, p.sorts, p.arity_bound)
        except (KeyError, InputError):
            # a pullback along a bijection of sorts is lawful, so a
            # ValidationError here is a fault and goes up
            continue
        keys = [k for k, c in p.carrier.cells.items() if c.size]
        if set(keys) != set(k for k, c in pb.carrier.cells.items() if c.size):
            continue
        per_cell = []
        count = 1
        ok = True
        for k in keys:
            isos = [
                m
                for m in enumerate_equivariant_maps(p.carrier.cells[k], pb.carrier.cells[k])
                if len(set(m.values())) == len(m)
            ]
            if not isos:
                ok = False
                break
            per_cell.append(isos)
            count *= len(isos)
            if count > ISO_SEARCH_BUDGET:
                raise BudgetError("operad isomorphism search exceeded its budget")
        if not ok:
            continue
        for combo in itertools.product(*per_cell):
            cells = dict(zip(keys, combo))
            cand = SymSeqMap(p.carrier, pb.carrier, cells)
            if not map_equal(compose_maps(cand, p.eta), pb.eta):
                continue
            xibis = hcompose_maps(cand, cand, p.comp2, _pull_comp2(p, pb))
            if map_equal(compose_maps(cand, p.mu), compose_maps(pb.mu, xibis)):
                return u, cand
    return None
