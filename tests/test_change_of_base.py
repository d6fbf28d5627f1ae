"""Change of base along a sort map that does not preserve the order of sorts.

``u = {a: q, b: p}`` reverses the order, so the sorting arrow of ``u(w)`` is
not the identity for a word such as ``(a, a, b)``.  The pullback operad, the
bimodules ``u°`` and ``u_∘`` and restriction all reindex composite raws along
it; their law checks at construction see a wrong block order, block sort or
result-word sort as a failed law.
"""

from opdbim.perms import YoungSet, canonical_word
from opdbim.symseq import SymSeq
from opdbim.operads import (
    free_operad,
    operad_iso,
    operad_morphism,
    pullback_operad,
    unit_operad,
)
from opdbim.bimodules import (
    check_bimodule_laws,
    extension,
    free_left_module,
    identity_bimodule,
    restriction,
    u_circ,
    u_lower_circ,
)

U = {"a": "q", "b": "p"}


def two_sorted(swap: bool):
    """``f: (p, q) -> p`` and ``g: (p, p) -> q``, or the same with ``p`` and ``q`` swapped."""
    if swap:
        signature = {(("p", "q"), "q"): ("f",), (("q", "q"), "p"): ("g",)}
    else:
        signature = {(("p", "q"), "p"): ("f",), (("p", "p"), "q"): ("g",)}
    return free_operad(("p", "q"), signature, 3)


def left_module_over(op):
    """The free left module on one operation ``z -> p`` and one ``z -> q``."""
    v = SymSeq(("z",), op.sorts, {
        (("z",), "p"): YoungSet.trivial(("z",), ("vp",)),
        (("z",), "q"): YoungSet.trivial(("z",), ("vq",)),
    })
    return free_left_module(op, ("z",), v, window=3)


def test_pullback_along_an_order_reversing_sort_map():
    b = two_sorted(False)
    pb = pullback_operad(b, U, ("a", "b"), 3)  # law-checked when built
    for (w, x), cell in pb.carrier.cells.items():
        cw, _tau = canonical_word(tuple(U[s] for s in w))
        assert cell.labels == b.carrier.cells[(cw, U[x])].labels
    assert len(pb.carrier.cells) == len(b.carrier.cells)
    # renaming a -> p, b -> q turns the pullback into the swapped signature
    assert operad_iso(pb, two_sorted(True), {"a": "p", "b": "q"}) is not None


def test_modules_along_an_order_reversing_morphism():
    b = two_sorted(False)
    a = unit_operad(("a", "b"), 3)
    xi = {((x,), x): {("id", x): ("v", 0)} for x in ("a", "b")}
    phi = operad_morphism(a, b, U, xi)
    uc = u_circ(phi)
    ul = u_lower_circ(phi)
    res = restriction(phi, left_module_over(b))
    for m in (uc, ul, res):
        check_bimodule_laws(m)
    assert (("a", "a", "b"), "p") in uc.carrier.cells
    check_bimodule_laws(extension(phi, identity_bimodule(a)).bimodule)


def test_isomorphism_along_a_swap_of_sorts():
    b, c = two_sorted(False), two_sorted(True)
    found = operad_iso(b, c)
    assert found is not None
    u, cells = found
    assert u == {"p": "q", "q": "p"}
    # along the isomorphism the middle words of the source are reordered too
    phi = operad_morphism(b, c, u, cells.comp)
    for m in (u_circ(phi), u_lower_circ(phi), restriction(phi, left_module_over(c))):
        check_bimodule_laws(m)
