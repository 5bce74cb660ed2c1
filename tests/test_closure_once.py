"""The one-pass monotone closure against the fixed-point body it replaced.

``_reference_monotone_closure`` is the earlier body of
``awkit.lattice.monotone_closure``, kept verbatim with its helpers
``_support_masks`` and ``_closure_step`` as a named oracle. It built the
closure inside each MASA from support masks over the MASA's rank-one
projections and iterated the face-supremum pass to a fixed point. The masks
are nonempty and pairwise disjoint, so every pass adjoined the 2^m subset
sums of b's minimal projections, whichever MASA it ran in, and the loop
returned on its first pass. The closure is now built once per subalgebra
and memoized on it; the MASA is only checked.

On degenerate normal generators, in two seeded MASAs, at several slacks,
and on the MASA itself, the scalars, a hand-rotated MASA and a MASA that
contains b only within a loose slack, both must return the same basis
bytes or raise the same exception with the same message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awkit.core import AlgebraElement, ToleranceConfig, _tol, frobenius_norm
from awkit.errors import NotCommuting, NotContained, SignatureMismatch, TooManyPoints
from awkit.lattice import (
    MAX_ENUMERATED_FACES,
    Subalgebra,
    closure_correspondence,
    generate_masa,
    minimal_projections,
    monotone_closure,
    spans_equal,
)
from awkit.sampling import haar_unitary_block

# --- the earlier body, verbatim -------------------------------------------------


def _support_masks(minimal, masa_minimal, t):
    """Bitmask of MASA rank-one projections carrying each minimal projection."""
    masks = []
    for e in minimal:
        mask = 0
        recover = AlgebraElement.zeros(e.element.signature)
        for j, f in enumerate(masa_minimal):
            overlap = sum(
                float(np.trace(a @ b).real)
                for a, b in zip(e.element.blocks, f.element.blocks)
            )
            if overlap > 0.5:
                mask |= 1 << j
                recover = recover + f.element
        if frobenius_norm(recover - e.element) > t.pos_slack * (
            1.0 + frobenius_norm(e.element)
        ):
            raise NotContained(
                "a minimal projection is not a sum of the MASA's rank-one projections"
            )
        masks.append(mask)
    return masks


def _closure_step(current, masa, t):
    """One closure pass: adjoin, for every projection p of the MASA, the
    MASA-supremum of the face {x in current, 0 <= x <= 1, x <= p}.

    The supremum of a face equals the sum of the minimal projections under
    p, so distinct suprema are enumerated through unions of support sets
    rather than through all projections of the MASA; every projection of the
    MASA realizes one of these unions and conversely.
    """
    minimal = minimal_projections(current, t)
    masa_minimal = minimal_projections(masa, t)
    if len(minimal) > MAX_ENUMERATED_FACES:
        raise TooManyPoints(
            f"face enumeration capped at {MAX_ENUMERATED_FACES} minimal projections"
        )
    masks = _support_masks(minimal, masa_minimal, t)
    m = len(minimal)
    seen = set()
    extra = []
    for j_mask in range(1 << m):
        union = 0
        for i in range(m):
            if j_mask >> i & 1:
                union |= masks[i]
        dominated = 0
        for i in range(m):
            if masks[i] & ~union == 0:
                dominated |= 1 << i
        if dominated in seen:
            continue
        seen.add(dominated)
        total = AlgebraElement.zeros(current.signature)
        for i in range(m):
            if dominated >> i & 1:
                total = total + minimal[i].element
        extra.append(total)
    gens = [p.element for p in minimal] + extra
    return Subalgebra.from_generators(gens, t)


def _reference_monotone_closure(b, masa, tol=None):
    """Monotone closure of a commutative subalgebra inside a MASA containing it.

    Iterates the face-supremum pass to a fixed point. At finite dimension
    the closure of a unital closed subalgebra is the subalgebra itself; this
    is asserted on the result.
    """
    t = _tol(tol)
    if not b.is_commutative(t):
        raise NotCommuting("closure requires a commutative subalgebra")
    if not masa.is_masa(t):
        raise ValueError("closure must be taken inside a maximal commutative subalgebra")
    if not masa.contains_subalgebra(b, t):
        raise NotContained("subalgebra does not lie inside the MASA")
    current = b
    for _ in range(sum(b.signature) + 1):
        nxt = _closure_step(current, masa, t)
        if spans_equal(nxt, current):
            if not spans_equal(current, b):
                raise RuntimeError(
                    "closure of a unital closed subalgebra moved at finite dimension"
                )
            return nxt
        current = nxt
    raise RuntimeError("monotone closure failed to reach a fixed point")


# --- comparison -----------------------------------------------------------------


def _outcome(closure, b, masa, tol):
    try:
        c = closure(b, masa, tol)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return c.signature, b"".join(blk.tobytes() for e in c.basis for blk in e.blocks)


def _assert_same(b, masa, tol=None):
    want = _outcome(_reference_monotone_closure, b, masa, tol)
    assert _outcome(monotone_closure, b, masa, tol) == want
    return want


def diag_el(*vals_per_block):
    return AlgebraElement([np.diag(np.array(v, dtype=complex)) for v in vals_per_block])


POOL = (1.0, -0.5, 2j, 0.7 - 0.7j)


@st.composite
def degenerate_normal(draw):
    dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for n in dims:
        vals = np.array([POOL[draw(st.integers(0, 3))] for _ in range(n)])
        u = haar_unitary_block(n, rng)
        blocks.append((u * vals) @ u.conj().T)
    return AlgebraElement(blocks)


@settings(max_examples=60)
@given(
    g=degenerate_normal(),
    seeds=st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
    slack=st.sampled_from([None, 1e-6, 1e-12, 0.3]),
)
def test_closure_matches_fixed_point_body(g, seeds, slack):
    tol = None if slack is None else ToleranceConfig(pos_slack=slack)
    b = Subalgebra.from_generators([g])
    for seed in seeds:
        _assert_same(b, generate_masa([g], seed), tol)


def test_closure_matches_on_masa_and_scalars():
    g = diag_el([1, 1, 2, 3], [2, 2])
    d = generate_masa([g], 4)
    for s in (d, Subalgebra.from_generators([AlgebraElement.identity(d.signature)])):
        sig, _ = _assert_same(s, d)
        assert sig == d.signature


def test_closure_matches_in_hand_rotated_masa():
    # the second MASA of test_correspondence_explicit_rotation
    g = diag_el([1, 1, 2])
    b = Subalgebra.from_generators([g])
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    vecs = [np.array([c, s, 0.0]), np.array([-s, c, 0.0]), np.array([0.0, 0.0, 1.0])]
    d2 = Subalgebra((3,), tuple(AlgebraElement([np.outer(v, v)]) for v in vecs))
    assert d2.is_masa()
    for d in (generate_masa([g], 0), d2):
        sig, _ = _assert_same(b, d)
        assert sig == (3,)


def _tilted_masa(angle):
    """Rank-one projections of e1 and of e2, e3 rotated by angle."""
    c, s = np.cos(angle), np.sin(angle)
    vecs = [np.array([1.0, 0.0, 0.0]), np.array([0.0, c, -s]), np.array([0.0, s, c])]
    return Subalgebra((3,), tuple(AlgebraElement([np.outer(v, v)]) for v in vecs))


def test_atom_check_rejects_what_membership_accepts():
    # b's projection e3 is a distance sqrt(2) sin(angle) from the MASA atom
    # it overlaps most, while b's orthonormal basis lies closer to the MASA:
    # at a slack between the two, only the atom check declines
    b = Subalgebra.from_generators([diag_el([1, 1, 2])])
    d = _tilted_masa(0.7)
    member = max(d.membership_residual(x) / (1.0 + frobenius_norm(x)) for x in b.basis)
    atom = np.sqrt(2.0) * np.sin(0.7) / 2.0
    assert member < atom
    t = ToleranceConfig(pos_slack=(member + atom) / 2.0)
    assert d.is_masa(t) and d.contains_subalgebra(b, t)
    assert _assert_same(b, d, t) == (
        NotContained,
        "a minimal projection is not a sum of the MASA's rank-one projections",
    )


# --- the memo skips no check ----------------------------------------------------


def test_memoized_closure_still_checks_the_masa():
    g = diag_el([1, 1, 2])
    b = Subalgebra.from_generators([g])
    d1, d2 = generate_masa([g], 1), generate_masa([g], 2)
    closure = monotone_closure(b, d1)
    assert monotone_closure(b, d2) is closure
    with pytest.raises(ValueError, match="maximal commutative"):
        monotone_closure(b, b)
    with pytest.raises(NotContained):
        monotone_closure(b, _tilted_masa(0.1))
    corr = closure_correspondence(b, d1, d2)
    assert corr.closures[0] is corr.closures[1] is closure


def test_closure_is_memoized_per_tolerance():
    g = diag_el([1, 1, 2])
    b = Subalgebra.from_generators([g])
    d = generate_masa([g], 3)
    loose = ToleranceConfig(pos_slack=1e-6)
    assert monotone_closure(b, d, loose) is not monotone_closure(b, d)
    assert monotone_closure(b, d, loose) is monotone_closure(b, d, ToleranceConfig(pos_slack=1e-6))


# --- signatures -----------------------------------------------------------------


def test_closure_rejects_masa_of_another_signature():
    b = Subalgebra.from_generators([diag_el([1, 1, 2])])
    other = generate_masa([diag_el([1, 2], [3])], 0)
    with pytest.raises(SignatureMismatch, match=r"signatures differ: \(2, 1\) vs \(3,\)"):
        monotone_closure(b, other)
    d = generate_masa([diag_el([1, 1, 2])], 0)
    for masas in ((other, d), (d, other)):
        with pytest.raises(SignatureMismatch, match="signatures differ"):
            closure_correspondence(b, *masas)
