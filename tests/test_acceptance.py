"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every expected value is either enumerated independently inside this module or
is a definitional fact (singleton cells, identity rows).  Runtime bounds are
asserted with the wall clock.
"""

import itertools
import json
import random
import time

import pytest

from opdbim.perms import Perm, YoungSet, canonical_word
from opdbim.symseq import (
    Family,
    SymSeq,
    SymSeqMap,
    associator,
    coequalize_maps,
    compose_maps,
    compose_symseq,
    hcompose_maps,
    id_symseq,
    identity_map,
    map_equal,
)
from opdbim.operads import (
    assoc_operad,
    com_operad,
    enumerate_algebras,
    magma_operad,
    operad_iso,
    operad_morphism,
    terminal_operad,
    unit_operad,
)
from opdbim.bimodules import (
    adjunction_from_operad,
    enumerate_bimodule_maps,
    enumerate_bimodules,
    extension,
    free_left_module,
    identity_bimodule,
    rel_associator,
    rel_hcompose,
    rel_left_unitor,
    rel_right_unitor,
    relative_compose,
    restriction,
)
from opdbim.catsym import exponential_operad, product_operad
from opdbim.samples import (
    rand_bimodule,
    rand_operad,
    rand_small_symseq,
    rand_symseq,
    reflexive_pair,
)
from oracles import analytic_compose_iso, iso_symseq, left_unitor, right_unitor

STAR = "*"


def report(number, description, elapsed, limit):
    print(f"criterion {number:2d} ({description}): PASS  [{elapsed:.1f}s < {limit}s]")
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"


def test_criterion_01_coherence_suite():
    t0 = time.monotonic()
    rng = random.Random(20260808)
    cap = 3
    for trial in range(50):
        f, g, h, k = [rand_small_symseq(rng) for _ in range(4)]
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
        m1 = hcompose_maps(
            associator(kh, kh_g, hg, k_hg), identity_map(f), khg_f, k_hg_f
        )
        m2 = associator(k_hg, k_hg_f, hg_f, k__hg_f)
        m3 = hcompose_maps(
            identity_map(k), associator(hg, hg_f, gf, h_gf), k__hg_f, k__h_gf
        )
        path1 = compose_maps(m3, compose_maps(m2, m1))
        path2 = compose_maps(
            associator(kh, kh__gf, h_gf, k__h_gf),
            associator(kh_g, khg_f, gf, kh__gf),
        )
        assert map_equal(path1, path2), f"pentagon failed on sample {trial}"
        idx = id_symseq((STAR,))
        fid = compose_symseq(f, idx, cap)
        idg = compose_symseq(idx, g, cap)
        fid_g = compose_symseq(fid.seq, g, cap)
        f_idg = compose_symseq(f, idg.seq, cap)
        fg = compose_symseq(f, g, cap)
        tri = associator(fid, fid_g, idg, f_idg)
        lhs = hcompose_maps(right_unitor(fid), identity_map(g), fid_g, fg)
        rhs = compose_maps(
            hcompose_maps(identity_map(f), left_unitor(idg), f_idg, fg), tri
        )
        assert map_equal(lhs, rhs), f"triangle failed on sample {trial}"
    report(1, "pentagon and triangle on 50 random sequences", time.monotonic() - t0, 30)


def test_criterion_02_monad_law_suite():
    t0 = time.monotonic()
    unit_operad(("a", "b"), 4)   # construction runs the monad law suite
    com_operad(4)
    assoc_operad(4)
    magma_operad(4)
    report(2, "monad laws for unit, com(4), assoc(4), magma(4)", time.monotonic() - t0, 30)


def _independent_f_value(carrier):
    """Structures of the analytic functor with one unary and one binary slot."""
    out = set()
    for v in carrier:
        out.add(("u", v))
    for pair in itertools.combinations_with_replacement(sorted(carrier, key=repr), 2):
        out.add(("m", pair))
    return out


def test_criterion_03_analytic_composition():
    t0 = time.monotonic()
    cells = {
        ((STAR,), STAR): YoungSet.trivial((STAR,), ("a",)),
        ((STAR, STAR), STAR): YoungSet.trivial((STAR, STAR), ("b",)),
    }
    f = SymSeq((STAR,), (STAR,), cells)
    ff = compose_symseq(f, f)
    assert [ff.seq.size((STAR,) * n, STAR) for n in (1, 2, 3, 4)] == [1, 2, 3, 3]
    # independent check of the composite's arity table: set partitions of [n]
    # into at most two blocks, each of size at most two
    for n, expected in ((1, 1), (2, 2), (3, 3), (4, 3)):
        count = 0
        for blocks in _set_partitions(tuple(range(n))):
            if len(blocks) <= 2 and all(len(b) <= 2 for b in blocks):
                count += 1
        assert count == expected
    for size, expected in ((1, 5), (2, 20)):
        t = Family((STAR,), {STAR: tuple(range(size))})
        mapping, ev_comp, _ev_in, ev_out = analytic_compose_iso(ff, t)
        assert ev_comp.value.total() == expected
        assert ev_out.value.total() == expected
        # independent direct enumeration of both sides via structure sets
        inner = _independent_f_value(tuple(range(size)))
        outer = _independent_f_value(inner)
        assert len(outer) == expected
    report(3, "analytic composition |(FoF)(T)| = |F(F(T))| = 5, 20", time.monotonic() - t0, 10)


def _set_partitions(elements):
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for blocks in _set_partitions(rest):
        for i in range(len(blocks)):
            yield blocks[:i] + [blocks[i] + (first,)] + blocks[i + 1 :]
        yield blocks + [(first,)]


def test_criterion_04_partitions_identity():
    t0 = time.monotonic()
    com = com_operad(3)
    cc = compose_symseq(com.carrier, com.carrier, max_arity=3)
    partitions = sum(1 for _ in _set_partitions((0, 1, 2)))
    assert partitions == 5
    assert cc.seq.size((STAR,) * 3, STAR) == 5
    report(4, "|(Com o Com)[3]| = 5 = set partitions of a 3-set", time.monotonic() - t0, 5)


def _binary_tables():
    for values in itertools.product((0, 1), repeat=4):
        yield dict(zip(itertools.product((0, 1), repeat=2), values))


def test_criterion_05_algebra_counts():
    t0 = time.monotonic()
    associative = [
        t
        for t in _binary_tables()
        if all(
            t[(t[(a, b)], c)] == t[(a, t[(b, c)])]
            for a in (0, 1)
            for b in (0, 1)
            for c in (0, 1)
        )
    ]
    commutative_associative = [
        t for t in associative if all(t[(a, b)] == t[(b, a)] for a in (0, 1) for b in (0, 1))
    ]
    assert len(associative) == 8 and len(commutative_associative) == 6
    assert enumerate_algebras(assoc_operad(3), 2) == 8
    assert enumerate_algebras(com_operad(3), 2) == 6
    report(5, "algebra counts assoc(3)->8, com(3)->6 vs brute force", time.monotonic() - t0, 10)


def test_criterion_06_product_operad():
    t0 = time.monotonic()
    com = com_operad(3)
    prod = product_operad(com, com)
    n = enumerate_algebras(prod, {s: 2 for s in prod.sorts})
    assert n == 36 == enumerate_algebras(com, 2) ** 2
    report(6, "|Alg(com x com)| on (2,2) = 36", time.monotonic() - t0, 60)


def test_criterion_07_bim_laws():
    t0 = time.monotonic()
    rng = random.Random(77)
    window = 2
    for trial in range(20):
        ops = [rand_operad(rng, window) for _ in range(5)]
        l = rand_bimodule(rng, ops[1], ops[0], window)
        m = rand_bimodule(rng, ops[2], ops[1], window)
        n = rand_bimodule(rng, ops[3], ops[2], window)
        p = rand_bimodule(rng, ops[4], ops[3], window)
        lu, _ = rel_left_unitor(m)
        assert lu.is_bijective(), f"left unitor not bijective on sample {trial}"
        ru, _ = rel_right_unitor(m)
        assert ru.is_bijective(), f"right unitor not bijective on sample {trial}"
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
        m1 = rel_hcompose(
            rel_associator(pn, pn_m, nm, p_nm), identity_map(l.carrier), pnm_l, p_nm_l
        )
        m2 = rel_associator(p_nm, p_nm_l, nm_l, p__nm_l)
        m3 = rel_hcompose(
            identity_map(p.carrier), rel_associator(nm, nm_l, ml, n_ml), p__nm_l, p__n_ml
        )
        path1 = compose_maps(m3, compose_maps(m2, m1))
        path2 = compose_maps(
            rel_associator(pn, pn__ml, n_ml, p__n_ml),
            rel_associator(pn_m, pnm_l, ml, pn__ml),
        )
        assert map_equal(path1, path2), f"Bim pentagon failed on sample {trial}"
    adjunction_from_operad(com_operad(3))
    adjunction_from_operad(assoc_operad(3))
    report(7, "Bim unitors/pentagon on 20 samples; monadic adjunctions", time.monotonic() - t0, 60)


def test_criterion_08_restriction_extension_adjunction():
    t0 = time.monotonic()
    rng = random.Random(88)
    a = unit_operad(("a", "b"), 2)
    b = com_operad(2)
    u = {"a": STAR, "b": STAR}
    xi = {key: {lab: 0 for lab in cell.labels} for key, cell in a.carrier.cells.items()}
    phi = operad_morphism(a, b, u, xi)
    phi_id = operad_morphism(
        unit_operad((STAR,), 2),
        b,
        {STAR: STAR},
        {key: {lab: 0 for lab in cell.labels}
         for key, cell in unit_operad((STAR,), 2).carrier.cells.items()},
    )
    k = ("k",)
    checked = 0
    for trial in range(10):
        morphism = phi if trial % 2 == 0 else phi_id
        src, dst = morphism.src, morphism.dst
        m_sort = src.sorts[rng.randrange(len(src.sorts))]
        m_labels = tuple(range(rng.randint(1, 2)))
        n_arity = rng.randint(1, 2)
        vm = SymSeq(k, src.sorts, {(("k",), m_sort): YoungSet.trivial(("k",), m_labels)})
        vn = SymSeq(
            k,
            dst.sorts,
            {(("k",) * n_arity, STAR): YoungSet.trivial(("k",) * n_arity, (0,))},
        )
        m = free_left_module(src, k, vm, window=2)
        n = free_left_module(dst, k, vn, window=2)
        um = extension(morphism, m)
        rn = restriction(morphism, n)
        lhs = enumerate_bimodule_maps(um.bimodule, n)
        rhs = enumerate_bimodule_maps(m, rn)
        assert lhs == rhs, f"adjunction count mismatch on sample {trial}: {lhs} vs {rhs}"
        checked += 1
    assert checked == 10
    report(8, "|Hom(u_! M, N)| = |Hom(M, u* N)| on 10 samples", time.monotonic() - t0, 60)


def test_criterion_09_exponential_correctness():
    t0 = time.monotonic()
    a = unit_operad(("x",), 2)
    b = unit_operad(("y",), 2)
    exp = exponential_operad(a, b, length_bound=2, arity_bound=2)
    sizes = {s: {0: 1, 1: 1, 2: 2}[len(s[0])] for s in exp.sorts}
    algebra_count = enumerate_algebras(exp, sizes)
    cells = {
        ((), "y"): 1,
        (("x",), "y"): 1,
        (("x", "x"), "y"): 2,
    }
    bimodule_count = enumerate_bimodules(a, b, cells)
    # independent oracle: actions of the symmetric group on two points
    actions = 0
    for image in itertools.permutations((0, 1)):
        swap = dict(zip((0, 1), image))
        if all(swap[swap[v]] == v for v in (0, 1)):
            actions += 1
    assert actions == 2
    assert algebra_count == bimodule_count == 2
    bt = exponential_operad(terminal_operad(), com_operad(2), 2, 2)
    assert operad_iso(bt, com_operad(2)) is not None
    ta = exponential_operad(a, terminal_operad(), 2, 2)
    assert operad_iso(ta, terminal_operad()) is not None
    report(9, "|Alg(B^A)| = |Bim(A,B)| = 2; B^T ~ B; T^A ~ T", time.monotonic() - t0, 120)


def test_criterion_10_tameness_probe():
    t0 = time.monotonic()
    rng = random.Random(1010)
    cap = 3
    for trial in range(10):
        f1 = rand_symseq(rng, max_arity=2, max_labels=2, n_cells=2)
        f0, alpha, beta, section = reflexive_pair(rng, f1)
        assert map_equal(compose_maps(alpha, section), identity_map(f1))
        assert map_equal(compose_maps(beta, section), identity_map(f1))
        h = rand_symseq(rng, max_arity=2, max_labels=2, n_cells=1)
        q1, _ = coequalize_maps(alpha, beta)
        h_f0 = compose_symseq(h, f0, cap)
        h_f1 = compose_symseq(h, f1, cap)
        q2, _ = coequalize_maps(
            hcompose_maps(identity_map(h), alpha, h_f0, h_f1),
            hcompose_maps(identity_map(h), beta, h_f0, h_f1),
        )
        hq = compose_symseq(h, q1, cap)
        assert iso_symseq(q2, hq.seq) is not None, f"tameness failed on sample {trial}"
    report(10, "compose/coequalize interchange on 10 reflexive pairs", time.monotonic() - t0, 30)


def test_criterion_11_cli_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    from opdbim.cli import main

    base = {
        "version": "1",
        "windows": {"arity_bound": 3, "length_bound": 2},
        "symseqs": {
            "F": {
                "dom": [STAR],
                "cod": [STAR],
                "cells": [
                    {"word": [STAR], "out": STAR, "labels": ["a"], "action": {}},
                    {
                        "word": [STAR, STAR],
                        "out": STAR,
                        "labels": ["b"],
                        "action": {"0": [["b", "b"]]},
                    },
                ],
            }
        },
        "operads": {
            "C": {"builtin": "com", "arity_bound": 3},
            "A": {"builtin": "assoc", "arity_bound": 3},
            "U1": {"builtin": "unit", "sorts": ["x"], "arity_bound": 2},
            "U2": {"builtin": "unit", "sorts": ["y"], "arity_bound": 2},
        },
        "families": {"T": {STAR: ["t0", "t1"]}},
    }

    def permuted(data):
        if isinstance(data, dict):
            return {k: permuted(data[k]) for k in reversed(list(data))}
        if isinstance(data, list):
            return [permuted(v) for v in data]
        return data

    p1 = tmp_path / "a.json"
    p1.write_text(json.dumps(base))
    p2 = tmp_path / "b.json"
    p2.write_text(json.dumps(permuted(base)))
    commands = [
        ["check", "{}"],
        ["series", "{}", "F", "3"],
        ["compose", "{}", "F", "F", "--arity-bound", "3"],
        ["eval", "{}", "F", "T"],
        ["count", "{}", "algebras", "C", "2"],
        ["count", "{}", "bimodules", "U1", "U2", "--cells",
         '[{"word": ["x", "x"], "out": "y", "size": 2}]'],
        ["product", "{}", "C", "C"],
        ["exponential", "{}", "U1", "U2", "--length-bound", "2", "--arity-bound", "2"],
    ]
    for argv in commands:
        outputs = []
        for path in (p1, p1, p2):
            code = main([a.format(str(path)) if a == "{}" else a for a in argv])
            out = capsys.readouterr().out
            assert code == 0
            outputs.append(out.encode("utf-8"))
        assert outputs[0] == outputs[1], f"rerun differs for {argv[0]}"
        assert outputs[0] == outputs[2], f"declaration order changes {argv[0]}"
    report(11, "CLI byte-determinism across reruns and permuted input", time.monotonic() - t0, 120)
