import functools
import itertools
import random
import time

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from opdbim.catsym import product_operad
from opdbim.perms import InputError, ValidationError, YoungSet
from opdbim.samples import rand_operad
from opdbim.symseq import Family, SymSeq, compose_symseq
from opdbim.operads import (
    Algebra,
    assoc_operad,
    builtin,
    com_operad,
    compose_morphisms,
    enumerate_algebra_maps,
    enumerate_algebras,
    free_algebra,
    free_operad,
    identity_morphism,
    magma_operad,
    make_algebra,
    make_operad,
    operad_iso,
    operad_morphism,
    presented_operad,
    pullback_operad,
    restrict_algebra,
    terminal_operad,
    unit_operad,
)
from oracles import iso_symseq, relabelled


@pytest.fixture(scope="module", autouse=True)
def _free_the_cached_operads():
    """Clear the operad caches of this module once its tests are done.

    A cached operad holds its fixtures, and composites are shared by content,
    so it would keep alive what a later module expects reference counting to free.
    """
    yield
    oracle_operad.cache_clear()
    burnside_operad.cache_clear()

STAR = "*"
ASSOC_REL = (
    ("g", "b", (("g", "b", (("v", 0), ("v", 1))), ("v", 2))),
    ("g", "b", (("v", 0), ("g", "b", (("v", 1), ("v", 2))))),
)


def test_builtins_pass_monad_laws():
    # construction itself runs the monad-law suite
    unit_operad(("a", "b"), 3)
    com_operad(4)
    assoc_operad(3)
    magma_operad(3)
    t = terminal_operad()
    assert t.sorts == () and not t.carrier.cells


def test_builtin_dispatch():
    assert builtin("com", 2).carrier.size((STAR, STAR), STAR) == 1
    assert builtin("assoc", 3).carrier.size((STAR,) * 3, STAR) == 6
    assert builtin("magma", 3).carrier.size((STAR,) * 3, STAR) == 12
    with pytest.raises(InputError):
        builtin("nope")


def test_perturbed_mu_fails_with_witness():
    # break associativity of assoc(2) by twisting the multiplication once
    base = assoc_operad(2)

    def bad_mu(key, raw):
        good = None
        mid, g, blocks, fs, sig = raw
        from opdbim.operads import assoc_operad as _a

        # recompute the correct product, then twist binary outputs
        from opdbim.perms import Perm, block_offsets

        sigma = Perm(sig)
        offs = block_offsets([len(b) for b in blocks])
        out = []
        for a in g:
            for b in fs[a]:
                out.append(sigma(offs[a] + b))
        res = tuple(out)
        if len(res) == 2:
            res = (res[1], res[0])
        return res

    with pytest.raises(ValidationError) as err:
        make_operad(base.carrier, bad_mu, {STAR: (0,)}, 2)
    assert "fails at cell" in str(err.value)


def test_free_on_binary_generator_is_magma():
    free = free_operad((STAR,), {((STAR, STAR), STAR): ("b",)}, 3)
    magma = magma_operad(3)
    assert iso_symseq(free.carrier, magma.carrier) is not None


def test_free_operad_rejects_small_arities():
    with pytest.raises(InputError):
        free_operad((STAR,), {((), STAR): ("c",)}, 2)
    with pytest.raises(InputError):
        free_operad((STAR,), {((STAR,), STAR): ("u",)}, 2)


def test_free_on_empty_signature_is_unit():
    free = free_operad(("a", "b"), {}, 3)
    unit = unit_operad(("a", "b"), 3)
    assert operad_iso(free, unit, sort_map={"a": "a", "b": "b"}) is not None


def test_presented_magma_by_associativity_is_assoc():
    pm = presented_operad((STAR,), {((STAR, STAR), STAR): ("b",)}, [ASSOC_REL], 4)
    assert [pm.carrier.size((STAR,) * n, STAR) for n in (1, 2, 3, 4)] == [1, 2, 6, 24]
    assert operad_iso(pm, assoc_operad(4)) is not None


def test_algebra_validation():
    unit = unit_operad(("a",), 2)
    fam = Family(("a",), {"a": (0, 1, 2)})
    act = {(("a",), "a"): {(("id", "a"), (v,)): v for v in (0, 1, 2)}}
    make_algebra(unit, fam, act)

    com = com_operad(3)
    fam2 = Family((STAR,), {STAR: (0, 1)})

    def com_act(fn):
        act = {}
        for n in range(1, 4):
            w = (STAR,) * n
            table = {}
            for tvec in itertools.product((0, 1), repeat=n):
                table[(0, tvec)] = fn(tvec)
            act[(w, STAR)] = table
        return act

    make_algebra(com, fam2, com_act(min))  # min is commutative and associative
    with pytest.raises(ValidationError):
        make_algebra(com, fam2, com_act(lambda tv: tv[0]))  # left projection


def test_free_algebra_counts():
    unit = unit_operad(("a", "b"), 2)
    t = Family(("a", "b"), {"a": ("u", "v"), "b": ("w",)})
    fa = free_algebra(unit, t)
    assert fa.family.size("a") == 2 and fa.family.size("b") == 1
    com = com_operad(3)
    t2 = Family((STAR,), {STAR: ("p", "q")})
    assert free_algebra(com, t2).family.total() == 9
    empty = Family((STAR,), {STAR: ()})
    assert free_algebra(com, empty).family.total() == 0


def brute_force_binary(filter_fn):
    ops = []
    for values in itertools.product((0, 1), repeat=4):
        table = dict(zip(itertools.product((0, 1), repeat=2), values))
        if filter_fn(table):
            ops.append(table)
    return ops


def is_associative(table):
    return all(
        table[(table[(a, b)], c)] == table[(a, table[(b, c)])]
        for a in (0, 1)
        for b in (0, 1)
        for c in (0, 1)
    )


def is_commutative(table):
    return all(table[(a, b)] == table[(b, a)] for a in (0, 1) for b in (0, 1))


def test_enumerate_algebras_counts_with_oracles():
    assert len(brute_force_binary(is_associative)) == 8
    assert enumerate_algebras(assoc_operad(3), 2) == 8
    assert len(brute_force_binary(lambda t: is_associative(t) and is_commutative(t))) == 6
    assert enumerate_algebras(com_operad(3), 2) == 6
    assert enumerate_algebras(unit_operad(("a",), 2), 5) == 1


def test_enumerate_algebras_relabeling_invariance():
    com = com_operad(3)
    assert enumerate_algebras(com, 2) == enumerate_algebras(com, {STAR: 2})
    relab = make_operad(
        relabelled(com.carrier, order_key=lambda v: -v if isinstance(v, int) else v),
        lambda key, raw: 0,
        {STAR: 0},
        3,
    )
    assert enumerate_algebras(relab, 2) == 6


def test_enumerate_algebras_budget():
    from opdbim.perms import BudgetError

    with pytest.raises(BudgetError):
        enumerate_algebras(com_operad(3), 30, budget=10)


def test_budget_refuses_before_enumerating():
    from opdbim.perms import BudgetError

    # 40 ** 40 tables: priced by Burnside counts, refused before any orbit table
    t0 = time.perf_counter()
    with pytest.raises(BudgetError, match=rf"needs ~{40**40} tables, budget is 5$"):
        enumerate_algebras(assoc_operad(3), 40, budget=5)
    assert time.perf_counter() - t0 < 0.5


def test_budget_refuses_huge_carrier():
    from opdbim.perms import BudgetError

    # listing the input pairs alone would need 10 ** 18 tuples
    t0 = time.perf_counter()
    with pytest.raises(BudgetError, match=r"needs ~1000000\*\*1000000 tables, budget is 5$"):
        enumerate_algebras(com_operad(3), 10**6, budget=5)
    assert time.perf_counter() - t0 < 0.5


def test_burnside_mismatch_is_a_validation_error(monkeypatch):
    import opdbim.operads as operads

    real = operads._cell_orbit_count
    monkeypatch.setattr(operads, "_cell_orbit_count", lambda cell, sizes: real(cell, sizes) + 1)
    with pytest.raises(ValidationError, match="Burnside count"):
        enumerate_algebras(com_operad(2), 2)


def unpruned_algebra_count(op, sizes):
    """The search ``enumerate_algebras`` ran before it filled forced values.

    It branches on every orbit of every cell except the identity's and only
    then checks associativity, so it shares no forcing code with the kernel.
    """
    from opdbim.operads import _cell_action_classes
    from opdbim.perms import Perm, block_offsets, skey

    if isinstance(sizes, int):
        sizes = {x: sizes for x in op.sorts}
    sizes = {x: max(0, sizes.get(x, 0)) for x in op.sorts}
    keys = [k for k in op.support() if len(k[0]) <= op.arity_bound and op.carrier.cells[k].size]
    keys.sort(key=lambda k: (len(k[0]), skey(k)))
    t = Family(op.sorts, {x: tuple(range(sizes[x])) for x in op.sorts})
    orbit_data = {k: _cell_action_classes(op, k, t) for k in keys}
    key_index = {k: i for i, k in enumerate(keys)}
    by_stage = {}
    for key, reps in op.comp2.reps.items():
        w, x = key
        if len(w) > op.arity_bound or key not in key_index:
            continue
        for idx, raw in enumerate(reps):
            mid, g, blocks, fs, sig = raw
            involved = [key, (mid, x)] + [(b, y) for b, y in zip(blocks, mid)]
            if any(k not in key_index for k in involved):
                continue
            stage = max(key_index[k] for k in involved)
            by_stage.setdefault(stage, []).append((key, idx, raw))
    eta_of = {x: op.eta_label(x) for x in op.sorts}

    def check_stage(stage, act):
        for key, idx, raw in by_stage.get(stage, ()):
            w, x = key
            mid, g, blocks, fs, sig = raw
            sigma = Perm(sig)
            offs = block_offsets([len(b) for b in blocks])
            target = op.mu.at(w, x, idx)
            for tvec in t.power(w):
                concat = tuple(tvec[sigma(p)] for p in range(len(w)))
                vals = []
                for i, b in enumerate(blocks):
                    vals.append(act[(b, mid[i])][(fs[i], concat[offs[i] : offs[i + 1]])])
                if act[(w, x)][(target, tvec)] != act[(mid, x)][(g, tuple(vals))]:
                    return False
        return True

    def assign(i, act):
        if i == len(keys):
            return 1
        key = keys[i]
        w, x = key
        q = orbit_data[key]
        forced = {}
        if len(w) == 1 and w[0] == x:
            for ci in range(len(q.classes)):
                lab, tvec = q.representative[ci]
                if lab == eta_of[x]:
                    forced[ci] = tvec[0]
        choice_space = [
            (forced[ci],) if ci in forced else t.sets[x] for ci in range(len(q.classes))
        ]
        found = 0
        for values in itertools.product(*choice_space):
            act[key] = {pair: values[q.class_index[pair]] for pair in q.elements}
            if check_stage(i, act):
                found += assign(i + 1, act)
        act.pop(key, None)
        return found

    return assign(0, {})


BUILTINS = {"assoc": assoc_operad, "com": com_operad, "magma": magma_operad}


def _oracle_inputs():
    for name in BUILTINS:
        for size in (1, 2, 3):
            yield f"{name}2-{size}", (name, 2), size
        for size in (1, 2):
            if (name, size) != ("magma", 2):  # the unpruned search runs for minutes
                yield f"{name}3-{size}", (name, 3), size
    for sizes in ({"x": 1, "y": 2}, {"x": 2, "y": 3}, {"x": 0, "y": 2}):
        yield f"unit_xy2-{sizes['x']}{sizes['y']}", ("unit_xy", 2), sizes
    for a, b in itertools.combinations_with_replacement(BUILTINS, 2):
        yield f"{a}2x{b}2-2", ("product", a, b), 2
    yield "com2xcom2-1", ("product", "com", "com"), 1
    for window, sizes in ((2, (2, 3)), (3, (1, 2))):
        for seed in range(3):
            yield f"rand{window}-{seed}", ("rand", window, seed), sizes[seed % 2]


@functools.lru_cache(maxsize=None)
def oracle_operad(spec):
    if spec[0] in BUILTINS:
        return BUILTINS[spec[0]](spec[1])
    if spec[0] == "unit_xy":
        return unit_operad(("x", "y"), spec[1])
    if spec[0] == "product":
        return product_operad(BUILTINS[spec[1]](2), BUILTINS[spec[2]](2))
    return rand_operad(random.Random(spec[2]), spec[1])


@pytest.mark.parametrize(
    "spec, sizes",
    [pytest.param(spec, sizes, id=name) for name, spec, sizes in _oracle_inputs()],
)
def test_forced_values_keep_the_count_of_the_unpruned_search(spec, sizes):
    op = oracle_operad(spec)
    if isinstance(sizes, int):
        sizes = {x: sizes for x in op.sorts}
    assert enumerate_algebras(op, sizes, budget=10**7) == unpruned_algebra_count(op, sizes)


@pytest.mark.parametrize("arity", [2, 3])
def test_product_algebras_are_pairs_of_algebras(arity):
    counts = {}
    for a, b in itertools.combinations_with_replacement(BUILTINS, 2):
        prod = product_operad(BUILTINS[a](arity), BUILTINS[b](arity))
        counts[a, b] = enumerate_algebras(prod, 2, budget=10**14)
        alone = [enumerate_algebras(BUILTINS[n](arity), 2, budget=10**7) for n in (a, b)]
        assert counts[a, b] == alone[0] * alone[1], (a, b)
    if arity == 3:
        assert counts["assoc", "com"] == 48 == 8 * 6
        assert counts["com", "com"] == 36 == 6 * 6


def test_ternary_magma_operations_are_all_composites():
    # every ternary operation of a magma is a composite of binary ones, so
    # associativity forces the whole ternary cell: the count is the 16 binary
    # tables on a 2-set
    t0 = time.perf_counter()
    assert enumerate_algebras(magma_operad(3), 2, budget=10**7) == 16
    free = free_operad((STAR,), {((STAR, STAR), STAR): ("b",)}, 3)
    assert enumerate_algebras(free, 2, budget=10**7) == 16
    assert time.perf_counter() - t0 < 5


@functools.lru_cache(maxsize=None)
def burnside_operad(name):
    from opdbim.catsym import exponential_operad, product_operad

    return {
        "com": lambda: com_operad(4),
        "assoc": lambda: assoc_operad(4),
        "magma": lambda: magma_operad(4),
        "unit": lambda: unit_operad(("a", "b"), 3),
        "exponential": lambda: exponential_operad(
            unit_operad(("x",), 2), com_operad(2), length_bound=1, arity_bound=2
        ),
        "product": lambda: product_operad(assoc_operad(3), com_operad(3)),
    }[name]()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["com", "assoc", "magma", "unit", "exponential", "product"]),
    st.data(),
)
def test_burnside_count_matches_enumerated_orbits(name, data):
    from opdbim.operads import _cell_action_classes, _cell_orbit_count

    op = burnside_operad(name)
    sizes = {x: data.draw(st.integers(min_value=0, max_value=3)) for x in op.sorts}
    t = Family(op.sorts, {x: tuple(range(n)) for x, n in sizes.items()})
    for key, cell in op.carrier.cells.items():
        assert _cell_orbit_count(cell, sizes) == len(_cell_action_classes(op, key, t).classes)


def test_free_forgetful_adjunction_counts():
    unit = unit_operad(("a",), 2)
    t = Family(("a",), {"a": ("u",)})
    free = free_algebra(unit, t)
    target_act = {(("a",), "a"): {(("id", "a"), (v,)): v for v in (0, 1)}}
    target = make_algebra(unit, Family(("a",), {"a": (0, 1)}), target_act)
    assert enumerate_algebra_maps(free, target) == 2  # = |T -> carrier|

    com = com_operad(2)
    t2 = Family((STAR,), {STAR: ("u",)})
    free2 = free_algebra(com, t2)
    min_act = {}
    for n in (1, 2):
        w = (STAR,) * n
        min_act[(w, STAR)] = {
            (0, tv): min(tv) for tv in itertools.product((0, 1), repeat=n)
        }
    target2 = make_algebra(com, Family((STAR,), {STAR: (0, 1)}), min_act)
    assert enumerate_algebra_maps(free2, target2) == 2


def test_identity_morphism_and_restriction():
    com = com_operad(2)
    phi = identity_morphism(com)
    fam = Family((STAR,), {STAR: (0, 1)})
    min_act = {}
    for n in (1, 2):
        w = (STAR,) * n
        min_act[(w, STAR)] = {(0, tv): min(tv) for tv in itertools.product((0, 1), repeat=n)}
    alg = make_algebra(com, fam, min_act)
    back = restrict_algebra(phi, alg)
    assert back.family.sets == alg.family.sets
    assert back.act == alg.act


def test_restriction_of_algebra_along_sort_collapse():
    # restrict a one-sorted algebra to a two-sorted unit operad: fibers agree
    a = unit_operad(("a", "b"), 2)
    b = com_operad(2)
    u = {"a": STAR, "b": STAR}
    xi_cells = {key: {lab: 0 for lab in cell.labels} for key, cell in a.carrier.cells.items()}
    phi = operad_morphism(a, b, u, xi_cells)
    fam = Family((STAR,), {STAR: (0, 1)})
    min_act = {}
    for n in (1, 2):
        w = (STAR,) * n
        min_act[(w, STAR)] = {(0, tv): min(tv) for tv in itertools.product((0, 1), repeat=n)}
    alg = make_algebra(b, fam, min_act)
    restricted = restrict_algebra(phi, alg)
    assert restricted.family.sets["a"] == (0, 1)
    assert restricted.family.sets["b"] == (0, 1)


def test_morphism_composition():
    a = unit_operad(("a", "b"), 2)
    b = com_operad(2)
    u = {"a": STAR, "b": STAR}
    xi_cells = {key: {lab: 0 for lab in cell.labels} for key, cell in a.carrier.cells.items()}
    phi = operad_morphism(a, b, u, xi_cells)
    psi = identity_morphism(b)
    comp = compose_morphisms(psi, phi)
    assert comp.u == u
    for key, cell in a.carrier.cells.items():
        for lab in cell.labels:
            assert comp.xi.at(*key, lab) == phi.xi.at(*key, lab)


def test_pullback_operad_shape():
    b = com_operad(2)
    pb = pullback_operad(b, {"a": STAR, "b": STAR}, ("a", "b"), 2)
    assert pb.carrier.size(("a", "b"), "a") == 1
    assert pb.carrier.size(("a",), "b") == 1


def test_operad_iso_certificates():
    assert operad_iso(com_operad(2), com_operad(2)) is not None
    assert operad_iso(com_operad(2), assoc_operad(2)) is None


def test_operad_iso_lets_a_pullback_law_failure_through(monkeypatch):
    # a pullback along a bijection of sorts is lawful, so a law failure there
    # is a fault of the kernel, never "no isomorphism"
    import opdbim.operads as operads

    def faulty(*args, **kwargs):
        raise ValidationError("pullback fault")

    monkeypatch.setattr(operads, "pullback_operad", faulty)
    with pytest.raises(ValidationError, match="pullback fault"):
        operad_iso(com_operad(2), com_operad(2))
