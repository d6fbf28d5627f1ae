import itertools
import math
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from opdbim.perms import (
    FinGroupoid,
    InputError,
    ValidationError,
    Perm,
    YoungSet,
    act_word,
    canonical_word,
    compose,
    coset_least,
    disjoint_union,
    enumerate_equivariant_maps,
    equivariant_iso_search,
    index_quotient,
    quotient,
    sims_table,
    stab_decompose,
    stab_gens,
    young_classes,
)

from oracles import word_arrows


perms = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.permutations(list(range(n))).map(lambda xs: Perm(tuple(xs)))
)

words = st.lists(st.sampled_from("abc"), min_size=0, max_size=6).map(tuple)


def same_degree_triples(n):
    base = st.permutations(list(range(n))).map(lambda xs: Perm(tuple(xs)))
    return st.tuples(base, base, base)


@given(st.integers(min_value=0, max_value=5).flatmap(same_degree_triples))
def test_compose_associative(triple):
    p, q, r = triple
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(perms)
def test_compose_identity(p):
    e = Perm.identity(p.degree)
    assert compose(p, e) == p
    assert compose(e, p) == p
    assert compose(p, p.inverse()).is_identity()


def test_canonical_examples():
    cw, t = canonical_word(("b", "a", "b"))
    assert cw == ("a", "b", "b")
    # stability: order preserved inside the b-run
    assert [("b", "a", "b")[i] for i in range(3)] == [cw[t(i)] for i in range(3)]
    assert t(1) == 0 and t(0) == 1 and t(2) == 2
    assert canonical_word(("a",)) == (("a",), Perm.identity(1))
    assert canonical_word(("a", "a", "a")) == (("a",) * 3, Perm.identity(3))


@given(words)
def test_canonical_idempotent(w):
    cw, t = canonical_word(w)
    assert all(w[i] == cw[t(i)] for i in range(len(w)))
    cw2, t2 = canonical_word(cw)
    assert cw2 == cw and t2.is_identity()


@given(words)
def test_word_arrows_characterization(w):
    cw, t = canonical_word(w)
    arrows = word_arrows(cw, w)
    assert t in arrows
    for p in arrows:
        assert act_word(cw, p) == w


def test_quotient_examples():
    q = quotient((1, 2, 3), [(1, 2)])
    assert q.classes == ((1, 2), (3,))
    q = quotient((1, 2, 3), [])
    assert q.classes == ((1,), (2,), (3,))
    q = quotient((1, 2, 3, 4), [(1, 2), (2, 3)])
    assert q.classes == ((1, 2, 3), (4,))
    assert q.rep_of(3) == 1


def test_quotient_unknown_element():
    with pytest.raises(InputError):
        quotient((1, 2), [(1, 5)])


@given(
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=12),
    st.randoms(use_true_random=False),
)
def test_quotient_order_independent(pairs, rng):
    elements = tuple(range(8))
    base = quotient(elements, pairs)
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    other = quotient(elements, shuffled)
    assert base.classes == other.classes


@given(words, st.randoms(use_true_random=False))
def test_stab_decompose(w, rng):
    cw, _ = canonical_word(w)
    gens = stab_gens(cw)
    p = Perm.identity(len(cw))
    for _ in range(rng.randint(0, 6)):
        if not gens:
            break
        p = compose(p, Perm.transposition(len(cw), rng.choice(gens)))
    word = stab_decompose(cw, p)
    rebuilt = Perm.identity(len(cw))
    for t in word:
        rebuilt = compose(rebuilt, Perm.transposition(len(cw), t))
    assert rebuilt == p


def test_young_act_composition_law():
    w = ("a", "a", "a")
    labels = (0, 1, 2, 3, 4, 5)
    # the regular action of S_3 on itself, written through position relabeling
    import itertools

    perms3 = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms3)}
    gen_maps = {}
    for t in (0, 1):
        s = Perm.transposition(3, t)
        gen_maps[t] = {idx[p]: idx[tuple(s(x) for x in p)] for p in perms3}
    ys = YoungSet(w, labels, gen_maps)
    ys.validate()
    g = compose(Perm.transposition(3, 0), Perm.transposition(3, 1))
    h = Perm.transposition(3, 0)
    for lab in labels:
        assert ys.act(ys.act(lab, g), h) == ys.act(lab, compose(h, g))


def test_equivariant_iso_search():
    w = ("a", "a")
    trivial = YoungSet.trivial(w, ("p", "q"))
    assert equivariant_iso_search(trivial, trivial) == {"p": "p", "q": "q"}
    swap = YoungSet(w, ("p", "q"), {0: {"p": "q", "q": "p"}})
    assert equivariant_iso_search(trivial, swap) is None
    assert equivariant_iso_search(swap, trivial) is None
    bigger = YoungSet.trivial(w, ("p", "q", "r"))
    assert equivariant_iso_search(trivial, bigger) is None
    # found bijections are equivariant
    found = equivariant_iso_search(swap, swap)
    for lab in ("p", "q"):
        assert found[swap.gen_maps[0][lab]] == swap.gen_maps[0][found[lab]]


def _young_structures(word, n):
    """Every action of the Young stabilizer of ``word`` on the labels ``0..n-1``."""
    gens = stab_gens(word)
    out = []
    for images in itertools.product(itertools.permutations(range(n)), repeat=len(gens)):
        ys = YoungSet(word, tuple(range(n)), {i: dict(enumerate(im)) for i, im in zip(gens, images)})
        try:
            ys.validate()
        except ValidationError:
            continue
        out.append(ys)
    return out


def test_equivariant_map_searches_match_brute_force():
    # every Young structure of words up to length 3 with up to 3 labels
    pairs = 0
    for word in [(), ("a",), ("a", "b"), ("a", "a"), ("a", "b", "c"), ("a", "a", "b"), ("a", "b", "b"), ("a", "a", "a")]:
        structures = [ys for n in range(4) for ys in _young_structures(word, n)]
        for a in structures:
            for b in structures:
                brute = [
                    dict(zip(a.labels, images))
                    for images in itertools.product(b.labels, repeat=a.size)
                    if all(
                        images[a.gen_maps[i][x]] == b.gen_maps[i][images[x]]
                        for i in stab_gens(word) for x in a.labels
                    )
                ]
                maps = enumerate_equivariant_maps(a, b)
                assert sorted(map(sorted, map(dict.items, maps))) == sorted(map(sorted, map(dict.items, brute)))
                assert len({tuple(sorted(m.items())) for m in maps}) == len(maps)
                bijections = [m for m in maps if a.size == b.size and len(set(m.values())) == a.size]
                assert equivariant_iso_search(a, b) == next(iter(bijections), None)
                pairs += 1
    # 4, 8 and 14 structures on words whose stabilizer is trivial, S_2 and S_3
    assert pairs == 4 * 4**2 + 3 * 8**2 + 14**2
    with pytest.raises(InputError, match="word mismatch"):
        enumerate_equivariant_maps(YoungSet.trivial(("a",), (0,)), YoungSet.trivial(("b",), (0,)))
    with pytest.raises(InputError, match="word mismatch"):
        equivariant_iso_search(YoungSet.trivial(("a",), (0,)), YoungSet.trivial(("b",), (1, 2)))


def test_young_validation_rejects_non_action():
    w = ("a", "a", "a")
    labels = (0, 1)
    bad = {0: {0: 1, 1: 0}, 1: {0: 1, 1: 1}}
    with pytest.raises(Exception):
        YoungSet(w, labels, bad).validate()


def test_fingroupoid_discrete_and_union():
    x = FinGroupoid.discrete(("a", "b"))
    x.validate()
    y = FinGroupoid.discrete(("c",))
    u = disjoint_union(x, y)
    u.validate()
    assert set(u.objects) == {("l", "a"), ("l", "b"), ("r", "c")}
    assert u.arrows(("l", "a"), ("r", "c")) == ()


def test_fingroupoid_two_object_iso():
    # two objects with a single isomorphism between them
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
    g = FinGroupoid(objects, hom, comp, {"p": "ip", "q": "iq"}, {"ip": "ip", "iq": "iq", "f": "g", "g": "f"})
    g.validate()
    assert g.compose("g", "f") == "ip"


def cycle_type(w, p):
    """Sorted (sort, length) pairs of the cycles of ``p``."""
    seen, out = set(), []
    for i in range(len(w)):
        if i not in seen:
            j, k = i, 0
            while j not in seen:
                seen.add(j)
                j, k = p(j), k + 1
            out.append((w[i], k))
    return tuple(sorted(out))


@given(words.map(lambda w: tuple(sorted(w))))
def test_young_classes_partition_the_stabilizer(w):
    classes = young_classes(w)
    # brute force: group every stabilizer element by its cycle type per sort
    counts = {}
    for p in word_arrows(w, w):
        counts[cycle_type(w, p)] = counts.get(cycle_type(w, p), 0) + 1
    assert {cycle_type(w, rep): size for rep, size in classes} == counts
    assert len(classes) == len(counts)
    assert all(act_word(w, rep) == w for rep, _size in classes)



@given(
    st.integers(min_value=0, max_value=12).flatmap(
        lambda n: st.tuples(
            st.permutations([f"e{i}" for i in range(n)]),
            st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
                     max_size=0 if n == 0 else 20),
        )
    )
)
def test_index_quotient_matches_the_element_quotient(case):
    elements, pairs = tuple(case[0]), case[1]
    label, roots = index_quotient(len(elements), pairs)
    q = quotient(elements, [(elements[a], elements[b]) for a, b in pairs])
    assert q.class_index == {e: label[i] for i, e in enumerate(elements)}
    assert q.representative == tuple(elements[r] for r in roots)
    assert q.classes == tuple(
        tuple(e for i, e in enumerate(elements) if label[i] == k) for k in range(len(roots))
    )
    # roots are the minimal index of their class and number the classes in order
    assert list(roots) == sorted(roots) and all(label[r] == k for k, r in enumerate(roots))
    assert all(roots[label[i]] <= i for i in range(len(elements)))


def test_quotient_rejects_duplicate_elements():
    with pytest.raises(InputError, match="duplicate"):
        quotient((1, 2, 1), [])


def _closure(gens, n):
    """Every element of the group ``gens`` generate, by breadth-first products."""
    elements = {tuple(range(n))}
    frontier = list(elements)
    while frontier:
        frontier = [
            p for e in frontier for g in gens for p in [tuple(e[i] for i in g)] if p not in elements
        ]
        elements.update(frontier)
    return elements


def test_sims_table_and_coset_least_against_the_whole_group():
    rng = random.Random(3)
    for _ in range(400):
        n = rng.randint(0, 6)
        gens = []
        for _ in range(rng.randint(0, 3)):
            p = list(range(n))
            if n and rng.random() < 0.5:
                i, j = rng.randrange(n), rng.randrange(n)
                p[i], p[j] = p[j], p[i]
            else:
                rng.shuffle(p)
            gens.append(tuple(p))
        group = _closure(gens, n)
        table = sims_table(tuple(gens), n)
        assert math.prod(len(level) for level in table) == len(group)
        for i, level in enumerate(table):
            fixing = [p for p in group if p[:i] == tuple(range(i))]
            assert [x for x, _u in level] == sorted({p[i] for p in fixing})
            assert all(u in group and u[:i] == tuple(range(i)) and u[i] == x for x, u in level)
        seq = list(range(n))
        rng.shuffle(seq)
        assert coset_least(tuple(seq), table) == min(tuple(seq[i] for i in p) for p in group)
