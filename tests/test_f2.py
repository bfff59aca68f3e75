import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtc.errors import TypeMismatch
from wtc.f2 import F2Map, F2Space, add, coset_min, in_span


def test_space_basics():
    s = F2Space(("a", "b"))
    assert s.dim == 2
    assert s.vector_from_labels(["a"]) == (1, 0)
    assert s.vector_from_labels(["a", "b", "a"]) == (0, 1)
    assert s.describe((1, 1)) == "a*b"
    assert s.describe((0, 0)) == "1"
    with pytest.raises(TypeMismatch):
        s.vector_from_labels(["zzz"])


def test_map_solve_kernel_image_exhaustive():
    src = F2Space(("x", "y", "z"))
    tgt = F2Space(("p", "q"))
    cols = [(1, 0), (1, 1), (0, 1)]
    f = F2Map(src, tgt, cols)
    kernel = set(f.kernel_basis())
    assert kernel == {(1, 1, 1)}
    for b in tgt.vectors():
        x = f.solve(b)
        brute = [v for v in src.vectors() if f.apply(v) == b]
        if brute:
            assert x in brute
        else:
            assert x is None
    assert f.is_surjective()
    assert not f.is_injective()
    assert f.cokernel_witness() is None


def test_cokernel_witness():
    src = F2Space(("x",))
    tgt = F2Space(("p", "q"))
    f = F2Map(src, tgt, [(1, 0)])
    w = f.cokernel_witness()
    assert w is not None and not in_span(f.image_basis(), w)


def test_compose_and_stack():
    a = F2Space(("a",))
    b = F2Space(("b1", "b2"))
    c = F2Space(("c",))
    f = F2Map(a, b, [(1, 1)])
    g = F2Map(b, c, [(1,), (1,)])
    assert g.compose(f).apply((1,)) == (0,)
    st = f.stack(f)
    assert st.apply((1,)) == (1, 1, 1, 1)


def brute_coset_min(v, kernel_vectors):
    """Oracle: the least of all 2^len(kernel_vectors) sums v + combination."""
    best = tuple(v)
    for combo in itertools.product((0, 1), repeat=len(kernel_vectors)):
        cand = tuple(v)
        for c, k in zip(combo, kernel_vectors):
            if c:
                cand = add(cand, k)
        if cand < best:
            best = cand
    return best


def test_coset_min():
    v = (1, 1, 0)
    kernel = [(1, 0, 0)]
    assert coset_min(v, kernel) == (0, 1, 0)
    assert coset_min((0, 0, 1), []) == (0, 0, 1)
    # zero, duplicate and dependent kernel vectors
    v = (1, 0, 1, 1)
    a, b = (1, 1, 0, 0), (0, 0, 1, 1)
    for kernel in ([(0, 0, 0, 0)], [a, a], [a, b, add(a, b)], [(0, 0, 0, 0), b, b]):
        assert coset_min(v, kernel) == brute_coset_min(v, kernel)
    assert coset_min(v, [a, b]) == (0, 1, 0, 0)


@st.composite
def coset_cases(draw):
    """A vector of dim <= 10 and up to 8 kernel vectors, with zero,
    duplicate and dependent (sum of two drawn) vectors mixed in."""
    dim = draw(st.integers(0, 10))
    vec = st.tuples(*[st.integers(0, 1)] * dim)
    v = draw(vec)
    kernel = draw(st.lists(vec, max_size=8))
    extras = []
    if kernel:
        pick = st.sampled_from(kernel)
        extras = draw(st.lists(
            st.one_of(
                st.just((0,) * dim),
                pick,
                st.builds(add, pick, pick),
            ),
            max_size=8 - len(kernel),
        ))
    order = draw(st.permutations(kernel + extras))
    return v, list(order)


@settings(max_examples=300, deadline=None)
@given(coset_cases())
def test_coset_min_matches_enumeration(case):
    v, kernel = case
    assert coset_min(v, kernel) == brute_coset_min(v, kernel)


def test_add():
    assert add((1, 0), (1, 1)) == (0, 1)
