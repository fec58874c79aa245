"""Mutants of the kernels that build each route's values from one it already has.

Each mutant changes one piece of text in one kernel of ``tests/kernels.py``:
the exponent of the division in ``eval_sum``, the containment test of the
linking plan's base, the depth shift of the packed block automaton, the slot
width or the decode's start slot of the walk route's count codec, which the
automaton and the gap-4 transfer share, the degree weight, the sign power,
the divisor or the slot width of ``poch_inverse``'s recurrence, the q-offset
of a pair of groups, the decoded digit or the slot width of
``Series.__mul__``'s packed product, the sign or the cut of ``poch_finite``,
the step of either factor or the sign of the odd one in
``distinct_4regular``, the product behind ``quad`` and the B tables of
``thm15``, ``thmA1`` and ``thmA2``, the sign of a factor or of a division's
chain, the doubling step, the cut or the slot width of ``binomial_sum``, the
tight gap of the gap-4 transfer ``_gap4_transfer``, Avee's exception in
the gap-4 rule ``_gap4_parts``, or the ell of a part = 2 mod 4 in the
projection ``_table_A_class`` that the A tables read the transfer through.
The mutant replaces the kernel wherever the package binds it
(``kernels.binders``), and every registry entry whose reach holds the
kernel (``kernels.reach``, the kernels each side or runner calls at the
default order) must then fail at its default order
with a witness: a mismatch, or the coefficient that the recurrence's checked
division by n found inexact.  An entry that reaches the kernel but cannot see
the mutant is listed in ``UNSEEN`` with the reason, and must still pass
under it, so that a change that lets it see the mutant shows here.  A mutant
that no entry can see is listed in ``EQUIVALENT`` with the reason, and a
test of its own must kill it.

Side mutants change one constant of a registry side: the shift monomial of
``quad``'s and ``quad-new``'s sum sides one q-power up or down, each entry
of ``quad-new``'s two betas one up or down, ``avee-split``'s shift
x -> xq^8 one q-power up, ``table_B2``'s weight of a part = 2 mod 4,
which ``thmA2`` reads, x^2 down to x, and the projection weight k of
``table_A1`` and ``table_A2``, which ``thmA1`` and ``thmA2`` read, one up
or down.  Andrews-Gordon side mutants change one pair (k, i) of the
ladder, rr1 and rr2 included: each entry of its beta one up or down, or
its product's residue set with one residue dropped or swapped for the
excluded i.  They go through the same loop and count in
the same kill rate.

Oracle mutants change one bound, step or flag of
``partitions._ascending_sweep``, the one sweep over every partition up to an
order that the exhaustive oracle draws from.  Each must fail ``lpi-eq-A`` at
its default order or a count check, with a witness: through the all-pass
table the sweep to 30 yields p(n) distinct ascending partitions of each
n <= 30, and through the table that fails equal neighbours q(n), those into
distinct parts.

Three more mutants change the packed layout, which no entry can see, since
both sides of an identity share one layout: the x and y1 fields of
``Series`` keys swapped, the guard check dropped, and a partial byte
rounded down by the native-word rule that sizes every packed slot.
``_layout_holds`` must fail under each.
"""

from __future__ import annotations

import __future__
import importlib
import inspect
import textwrap
from collections import Counter
from itertools import islice
from math import comb
from typing import Callable

import pytest

import kernels
import lpi_reference
from qident import identities, lpi, multisum, partitions
from qident.identities import REGISTRY, verify
from qident.partitions import SET_A
from qident.products import InexactDivision, PochSpec, poch_inf, poch_inverse
from qident.series import LIMIT, Q_VARS, QUIN_VARS, QX_VARS, ExponentOverflow, Series, varset

_WEIGHT = "d * spec.sign ** m"

# label -> (kernel, old text, new text).  A mutant must fail every registry
# entry whose reach (``kernels.reach``) holds its kernel, apart from UNSEEN.
KERNEL_MUTANTS = {
    "eval_sum divides by 1 - q^(A(n+1))": ("eval_sum", "spec.bases[r] * n,", "spec.bases[r] * (n + 1),"),
    "eval_sum divides by 1 - q^(A(n-1))": ("eval_sum", "spec.bases[r] * n,", "spec.bases[r] * (n - 1),"),
    "linking plan base not a subset": ("_plan", " if t <= link", ""),
    "walk count slot one byte narrower": (
        "_count_bytes", "_word_bytes(max(totals).bit_length())", "_word_bytes(max(totals).bit_length() - 8)",
    ),
    "automaton depth shift T*d -> T*(d+1)": ("_g_groups", "t * d * x", "t * (d + 1) * x"),
    "walk decode starts one slot late": (
        "_decode", "((p & -p).bit_length() - 1) // width", "((p & -p).bit_length() - 1) // width + 1",
    ),
    "poch_inverse degree weight d -> d + 1": ("_log_derivative", _WEIGHT, "(d + 1) * spec.sign ** m"),
    "poch_inverse degree weight d -> d - 1": ("_log_derivative", _WEIGHT, "(d - 1) * spec.sign ** m"),
    "poch_inverse divides by n + 1": ("_exact_quotient", "divmod(c, n)", "divmod(c, n + 1)"),
    "poch_inverse sign power dropped": ("_log_derivative", _WEIGHT, "d"),
    "poch_inverse slot one byte narrower": (
        "_packed_inverse", "bit_length() + 9) // 8", "bit_length() + 1) // 8",
    ),
    "product q-offset da + db -> da + db + 1": ("Series.__mul__", "d = da + db", "d = da + db + 1"),
    "product digit u - half -> u - half + 1": ("_unpack", "u - half", "u - half + 1"),
    "product slot one byte narrower": (
        "_slot_bytes", "_word_bytes(bound.bit_length() + 1)", "_word_bytes(bound.bit_length() - 7)",
    ),
    "poch_finite factor sign flipped": (
        "poch_finite", "c - moved if spec.sign == 1 else c + moved", "c + moved if spec.sign == 1 else c - moved",
    ),
    "poch_finite cut one slot short": (
        "poch_finite", "(1 << 8 * nbytes * length) - 1", "(1 << 8 * nbytes * (length - 1)) - 1",
    ),
    "distinct 4-regular even-part step 4 -> 2": ("distinct_4regular", "q=2)), 4,", "q=2)), 2,"),
    "distinct 4-regular odd-part step 2 -> 1": ("distinct_4regular", "q=1), 2,", "q=1), 1,"),
    "distinct 4-regular odd-part sign flipped": ("distinct_4regular", "2, sign=-1)", "2, sign=1)"),
    "binomial_sum factor sign flipped": (
        "_QPacked.times", "c - moved if sign == 1 else c + moved", "c + moved if sign == 1 else c - moved",
    ),
    "binomial_sum chain sign flipped": (
        "_QPacked.divide", "c + moved if sign == 1 else c - moved", "c - moved if sign == 1 else c + moved",
    ),
    "binomial_sum doubling step e * 2 -> e + d": ("_QPacked.divide", "e *= 2", "e += d"),
    "binomial_sum cut one slot short": ("_QPacked.__init__", "(order + 1)) - 1", "order) - 1"),
    "binomial_sum slot one byte narrower": (
        "binomial_sum", "_word_bytes(majorant.bound.bit_length() + 1)", "_word_bytes(majorant.bound.bit_length() - 7)",
    ),
    "gap-4 transfer tight gap v - 4 -> v - 3": ("_gap4_transfer", "last[(v - 4) % 5]", "last[(v - 3) % 5]"),
    "gap-4 Avee 1 then overlined 5 dropped": ("_gap4_parts", "avee and v == 5", "False"),
    "table_A class of an r2 part ell 1 -> 2": ("_table_A_class", "two + over", "2 * two + over"),
}

# (label, entry) -> reason: an entry that reaches the mutated kernel but cannot
# see the mutant.  It must still pass under the mutant, so that a change that
# lets it see the mutant shows here.
UNSEEN = {
    **{
        (label, "borel-bridge-rhs"): (
            "both of its sides are quadruple sums built by eval_sum, and the operator "
            "maps one onto the other summand by summand, so the fault cancels"
        )
        for label in ("eval_sum divides by 1 - q^(A(n+1))", "eval_sum divides by 1 - q^(A(n-1))")
    },
    **{
        ("poch_inverse slot one byte narrower", identity): (
            "at order 30 the largest slot of n*P_n of 1/(xq;q)_inf stays below 2^15, "
            "which a slot one byte narrower still holds"
        )
        for identity in ("euler1", "qbinom")
    },
    ("binomial_sum chain sign flipped", "qbinom"): (
        "every division its sum makes is by 1 - q^(step*n), which has no non-q part, "
        "so no chain of keys is walked"
    ),
    **{
        ("gap-4 Avee 1 then overlined 5 dropped", identity): (
            "it counts a family of A, whose gap rule has no exception"
        )
        for identity in ("thm51-a", "thm51-b", "thm51-c", "thm51-d")
    },
}

# The quad-new betas, each entry one up and one down; every result is a valid
# beta (alpha's diagonal is (2, 0, 0, 0), and no entry at 1..3 drops to 0).
_QUAD_NEW_BETAS = ((1, 3, 2, 2), (5, 3, 6, 2))

# label -> (function, old text, new text, entry whose right side it is).  The
# function is in ``identities``, or for a runner entry a table in ``partitions``.
SIDE_MUTANTS = {
    "quad shift x^2yq^6 -> q^7": ("_quad_rhs", "q=6)", "q=7)", "quad"),
    "quad shift x^2yq^6 -> q^5": ("_quad_rhs", "q=6)", "q=5)", "quad"),
    "quad-new shift x^2yq^4 -> q^5": ("_quad_new_rhs", "q=4)", "q=5)", "quad-new"),
    "quad-new shift x^2yq^4 -> q^3": ("_quad_new_rhs", "q=4)", "q=3)", "quad-new"),
} | {
    f"quad-new beta {beta} -> {mutated}": ("_quad_new_rhs", str(beta), str(mutated), "quad-new")
    for beta in _QUAD_NEW_BETAS
    for mutated in (beta[:r] + (beta[r] + d,) + beta[r + 1 :] for r in range(4) for d in (1, -1))
} | {
    "avee-split shift xq^8 -> xq^9": ("_avee_split_rhs", "shift: int = 8", "shift: int = 9", "avee-split"),
    "table_B2 weight x^2 -> x": ("table_B2", "m(x=2)", "m(x=1)", "thmA2"),
} | {
    f"table_A{k} projection weight {k} -> {k + d}": (
        f"table_A{k}", f"_avee_classes(order, {k})", f"_avee_classes(order, {k + d})", f"thmA{k}",
    )
    for k in (1, 2)
    for d in (1, -1)
}

_AG_PAIRS = tuple((k, i) for k in (2, 3, 4) for i in range(1, k + 1))


def _ag_entries(k: int, i: int) -> tuple[str, ...]:
    """The registry entries built by ``_ag_sides(k, i)``: the ladder entry, and rr1 or rr2."""
    return (f"andrews-gordon-k{k}-i{i}", *{(2, 2): ("rr1",), (2, 1): ("rr2",)}.get((k, i), ()))


def _ag_residues(k: int, i: int) -> tuple[int, ...]:
    """The residues mod 2k + 1 of the parts of the (k, i) product: not 0, i or 2k + 1 - i."""
    return tuple(r for r in range(1, 2 * k + 1) if r not in (i, 2 * k + 1 - i))


# label -> (k, i, "beta" or "residues", mutated value).  Every mutated beta is
# valid: alpha's diagonal is 2, so an entry may drop to 0.
AG_MUTANTS = {
    f"AG k{k} i{i} beta {beta} -> {mutated}": (k, i, "beta", mutated)
    for k, i in _AG_PAIRS
    for beta in (identities._ag_beta(k, i),)
    for mutated in (beta[:r] + (beta[r] + d,) + beta[r + 1 :] for r in range(k - 1) for d in (1, -1))
} | {
    f"AG k{k} i{i} residues {res} -> {mutated}": (k, i, "residues", mutated)
    for k, i in _AG_PAIRS
    for res in (_ag_residues(k, i),)
    for mutated in (
        *(res[:j] + res[j + 1 :] for j in range(len(res))),
        *(res[:j] + (i,) + res[j + 1 :] for j in range(len(res))),
    )
}

EQUIVALENT = {
    "linking plan base not a subset": (
        "the gap-4 linking sets form a chain, and sets are summed smaller first, "
        "so every set already summed is a subset of the next one; "
        "test_f_vector_base_mutant_fails_on_sets_that_are_not_nested kills it"
    ),
    "walk count slot one byte narrower": (
        "at default orders every gap-4 family and the gap-4 language have fewer than 256 members "
        "of any size, so the slot of the transfer and of the automaton is 1 byte, and the mutant's "
        "0 bytes round up to 2; test_narrow_gap4_slot_mutant_fails_where_a_count_needs_two_bytes "
        "and test_narrow_automaton_slot_mutant_fails_where_a_count_needs_two_bytes kill it"
    ),
    "poch_inverse sign power dropped": (
        "every factor the registry inverts has sign +1, where s**m is 1; "
        "test_sign_mutant_fails_on_a_negated_argument kills it"
    ),
    "product slot one byte narrower": (
        "at default orders the mutant's slot still holds every coefficient (poch_finite in "
        "euler2, qbinom and tri-single: a 9-bit majorant, 1 byte under the mutant for "
        "coefficients of at most 7 bits; __mul__ in qbinom: a 21-bit bound, 2 bytes for "
        "coefficients of at most 13 bits; in tri-single: 18- and 20-bit bounds, 2 bytes for "
        "at most 12 bits; in the B tables of thm15, thmA1 and thmA2: an 8-bit bound, 1 byte for "
        "coefficients of at most 5 bits), or rounds up to a wider one (quad and borel-bridge-lhs: "
        "2-, 3- and 7-bit bounds, and the B tables' poch_finite: 2- and 4-bit majorants, whose "
        "0 bytes round up to 2); "
        "test_narrow_product_slot_mutant_fails_where_the_bound_is_reached kills it"
    ),
    "binomial_sum slot one byte narrower": (
        "at default orders the majorant of qbinom's and tri-single's sums is 17 bits, so the "
        "slot is 4 bytes, and the mutant's 2 bytes still hold every value they reach (the "
        "sums' coefficients are at most 13 and 10 bits); "
        "test_narrow_binomial_slot_mutant_fails_where_the_majorant_is_reached kills it"
    ),
}


def _mutant(module, name: str, old: str, new: str):
    """``module.name`` rebuilt from its source with ``old`` replaced by ``new``.

    ``name`` is an attribute path, so ``Class.method`` rebuilds a method.
    """
    source = textwrap.dedent(inspect.getsource(kernels.resolve(module.__name__, name)))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    code = compile(
        source.replace(old, new), module.__file__, "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    exec(code, namespace)
    return namespace[name.rsplit(".", 1)[-1]]


def _kernel_mutant(name: str, old: str, new: str):
    """Kernel ``name`` rebuilt from its source with ``old`` replaced by ``new``."""
    return _mutant(importlib.import_module(kernels.KERNELS[name].module), name, old, new)


def _install(monkeypatch, label: str, reach) -> tuple[str, ...]:
    """Install a kernel or side mutant; returns the registry entries that must see it.

    A kernel mutant replaces the function wherever the package binds it, and
    its entries are those whose reach holds the function, apart from UNSEEN.
    ``REGISTRY`` captured each side when it was built, so a side mutant
    replaces the entry's right side rather than the module global; a runner
    reads its tables from ``partitions`` at call time, so a table mutant
    replaces that global.  A residue mutant replaces the left side of each
    entry built from its pair.
    An AG side reads ``_ag_beta`` at call time, so a beta mutant replaces
    that global by one that changes the pair's beta only.
    """
    if label in AG_MUTANTS:
        k, i, part, mutated = AG_MUTANTS[label]
        entries = _ag_entries(k, i)
        if part == "beta":
            real = identities._ag_beta
            monkeypatch.setattr(
                identities, "_ag_beta", lambda kk, ii: mutated if (kk, ii) == (k, i) else real(kk, ii)
            )
        else:
            def left(n: int) -> Series:
                return identities._residue_product(mutated, 2 * k + 1, n)

            for identity in entries:
                entry = REGISTRY[identity]
                monkeypatch.setitem(REGISTRY, identity, entry.replace(sides=(left, entry.sides[1])))
        return entries
    if label in SIDE_MUTANTS:
        name, old, new, identity = SIDE_MUTANTS[label]
        entry = REGISTRY[identity]
        if entry.sides is None:
            monkeypatch.setattr(partitions, name, _mutant(partitions, name, old, new))
        else:
            sides = (entry.sides[0], _mutant(identities, name, old, new))
            monkeypatch.setitem(REGISTRY, identity, entry.replace(sides=sides))
        return (identity,)
    name = _install_kernel_mutant(monkeypatch, label)
    return tuple(i for i in kernels.reached(reach, name) if (label, i) not in UNSEEN)


def _install_kernel_mutant(monkeypatch, label: str) -> str:
    """Install a kernel mutant wherever the package binds its kernel; returns the kernel."""
    name, old, new = KERNEL_MUTANTS[label]
    kernels.install(monkeypatch, name, _kernel_mutant(name, old, new))
    return name


def _fails(identity: str) -> bool:
    """Whether the entry fails at its default order with a witness: a mismatch,
    or the coefficient that the recurrence's checked division by n found inexact."""
    try:
        report = verify(identity)
    except InexactDivision as exc:
        assert str(exc)  # the witness: a q-degree and its coefficient
        return True
    assert report.order == REGISTRY[identity].default_order
    return not report.passed and bool(report.witness)


def test_every_kernel_mutant_fails_its_entries_or_is_listed(monkeypatch, reach):
    killed, survivors = [], []
    labels = [*KERNEL_MUTANTS, *SIDE_MUTANTS, *AG_MUTANTS]
    for label in labels:
        with monkeypatch.context() as patch:
            entries = _install(patch, label, reach)
            assert entries, f"{label}: no entry reaches the mutant"
            seen = [identity for identity in entries if _fails(identity)]
            unseen = [i for (mutant, i) in UNSEEN if mutant == label and not verify(i).passed]
        assert unseen == [], f"{label}: UNSEEN entries that fail under it"
        (killed if seen == list(entries) else survivors).append((label, seen))
    print(
        f"kernel and side mutants killed at default orders: {len(killed)}/{len(labels)}; "
        f"equivalent there: {sorted(EQUIVALENT)}"
    )
    assert sorted(label for label, seen in survivors if not seen) == sorted(EQUIVALENT)
    assert not [s for s in survivors if s[1]], "a mutant failed only some of its entries"


def test_every_unseen_row_names_a_kernel_mutant_and_an_entry_that_reaches_it(reach):
    for label, identity in UNSEEN:
        assert identity in kernels.reached(reach, KERNEL_MUTANTS[label][0]), (label, identity)


def test_a_binomial_factor_sign_mutant_fails_qbinom(monkeypatch, reach):
    # qbinom's sum side applies (a; q)_n through binomial_sum and its product
    # side (az; q)_inf through poch_finite, so a sign fault in either factor
    # kernel no longer cancels between the two sides.
    label = "binomial_sum factor sign flipped"
    sides = reach["qbinom"]
    assert "_QPacked.times" in sides[0] and "_QPacked.times" not in sides[1]
    assert "qbinom" in _install(monkeypatch, label, reach)
    assert _fails("qbinom")


def test_every_mutated_function_is_a_kernel():
    mutated = {name for name, _, _ in KERNEL_MUTANTS.values()}
    mutated |= {name for name, _, _ in LAYOUT_MUTANTS.values()} | {"_ascending_sweep"}
    assert sorted(mutated - set(kernels.KERNELS)) == []


def test_f_vector_base_mutant_fails_on_sets_that_are_not_nested(monkeypatch):
    # Block 1 links {0, 1, 2}, block 2 links {0, 3}: neither contains the other,
    # so the mutant starts {0, 1, 2} from {0, 3} and counts block 3 in it.
    # The reference recursion sums each set with Series.sum, off the plan.
    ideal, order = lpi.gap4_ideal(), 12
    linking = (ideal.linking[0], frozenset({0, 1, 2}), frozenset({0, 3}), *[frozenset({0})] * 4)
    spec = ideal.replace(linking=linking)
    expected = lpi_reference.f_vector(spec, lpi_reference.g_vector(spec, order))

    def f_vector() -> list[Series]:
        automaton = lpi.Automaton(spec, order)
        return [automaton.f(k) for k in range(spec.size)]

    assert f_vector() == expected
    _install_kernel_mutant(monkeypatch, "linking plan base not a subset")
    assert f_vector() != expected


def test_sign_mutant_fails_on_a_negated_argument(monkeypatch):
    # 1/(-xq;q)_inf: the factors 1 + x q^k have sign -1, so S_j carries (-1)^m.
    spec, order = PochSpec(QX_VARS.m(x=1, q=1), 1, sign=-1), 12
    expected = poch_inf(spec, QX_VARS, order).invert()
    assert poch_inverse([spec], QX_VARS, order) == expected
    _install_kernel_mutant(monkeypatch, "poch_inverse sign power dropped")
    assert poch_inverse([spec], QX_VARS, order) != expected


def test_narrow_slot_mutant_fails_on_five_copies(monkeypatch):
    # 1/(xq;q)_inf^5: a slot of 40*P_40 reaches 2^39, past what 40 bits hold.
    specs, order = [PochSpec(QX_VARS.m(x=1, q=1), 1)] * 5, 40
    product = poch_inf(specs[0], QX_VARS, order)
    expected = (product * product * product * product * product).invert()
    assert poch_inverse(specs, QX_VARS, order) == expected
    _install_kernel_mutant(monkeypatch, "poch_inverse slot one byte narrower")
    with pytest.raises(InexactDivision, match="^q-degree 40: "):
        poch_inverse(specs, QX_VARS, order)


@pytest.mark.parametrize("bits", [8, 16, 32, 80])
def test_narrow_product_slot_mutant_fails_where_the_bound_is_reached(monkeypatch, bits):
    # (c + c q)(1 + q): the coefficient 2c of q reaches the bound 2c = 2^bits - 2
    # itself.  The slots are 2, 4, 8 and 11 bytes wide; the mutant's 1, 2, 4
    # and 10 bytes still hold c, so both factors pack, but not 2c.
    c = (1 << bits - 1) - 1
    a = Series(Q_VARS, 3, [((0,), c), ((1,), c)])
    b = Series(Q_VARS, 3, [((0,), 1), ((1,), 1)])
    expected = Series(Q_VARS, 3, [((0,), c), ((1,), 2 * c), ((2,), c)])
    assert a * b == expected
    _install_kernel_mutant(monkeypatch, "product slot one byte narrower")
    assert a * b != expected


@pytest.mark.parametrize("k", [10, 18, 34, 68])
def test_narrow_binomial_slot_mutant_fails_where_the_majorant_is_reached(monkeypatch, k):
    # (1 + q)^k: every factor has sign -1, so the value is its own majorant,
    # and the middle binomial C(k, k/2) has 8, 16, 32 and 65 bits.  The slots
    # are 2, 4, 8 and 9 bytes wide; the mutant's 1, 2, 4 and 8 bytes cannot
    # hold it.
    def summands(ops):
        t = ops.one()
        for _ in range(k):
            t = ops.times(t, (1,), -1)
        yield t

    expected = Series(Q_VARS, k, [((e,), comb(k, e)) for e in range(k + 1)])
    assert multisum.binomial_sum(summands, Q_VARS, k) == expected
    _install_kernel_mutant(monkeypatch, "binomial_sum slot one byte narrower")
    assert multisum.binomial_sum(summands, Q_VARS, k) != expected


def test_narrow_gap4_slot_mutant_fails_where_a_count_needs_two_bytes(monkeypatch):
    # At order 70, A has up to 13 bits of members of one size, so the slot
    # is 2 bytes, and some weight has 9 bits of them, past the mutant's one
    # byte.  The carries reach the top slot, and the decode refuses the int.
    order = 70
    expected = Counter(node[0] for node in partitions._walk_gap4(SET_A, order))
    assert max(expected.values()) >= 256
    assert partitions.weighted_gf(SET_A, order).terms == Series._raw(QUIN_VARS, order, dict(expected)).terms
    _install_kernel_mutant(monkeypatch, "walk count slot one byte narrower")
    with pytest.raises(OverflowError):
        partitions.weighted_gf(SET_A, order)


def test_narrow_automaton_slot_mutant_fails_where_a_count_needs_two_bytes(monkeypatch):
    # At order 70 the gap-4 language has up to 13 bits of members of one size,
    # so the slot is 2 bytes, and F_1 has a coefficient of 9 bits, past the
    # mutant's one byte.  Its carries reach the top slot of F_1's groups,
    # and the decode refuses them.
    order, spec = 70, lpi.gap4_ideal()
    expected = lpi_reference.f_vector(spec, lpi_reference.g_vector(spec, order))[0]
    assert max(expected.terms.values()) >= 256
    assert lpi.Automaton(spec, order).f(0) == expected
    _install_kernel_mutant(monkeypatch, "walk count slot one byte narrower")
    with pytest.raises(OverflowError):
        lpi.Automaton(spec, order).f(0)


# label -> (old text, new text) in partitions._ascending_sweep, the oracle's
# sweep.  A mutant that only drops partitions with a repeated part cannot
# change lpi-eq-A, since no member has one; the p(n) count kills it instead,
# and the q(n) count kills one that lets a failing pair's descendants pass.
ORACLE_MUTANTS = {
    "sweep part bound one short": ("order - size + 1)", "order - size)"),
    "sweep recurses only while size + 2v < order": ("size + 2 * v <= order", "size + 2 * v < order"),
    "sweep next value steps by 2": ("order - size + 1)", "order - size + 1, 2)"),
    "sweep flag not inherited": ("not row[v] or failed", "not row[v]"),
}


def _count_rules(top: int = 30) -> dict[str, tuple[Callable[[int, int], bool], list[int]]]:
    """count -> (pair rule, its number of partitions of each n <= top): p(n) read
    off Euler's 1/(q; q)_inf, and q(n), into distinct parts, off (-q; q)_inf."""
    q = PochSpec(Q_VARS.m(q=1), 1)
    return {
        "p(n)": (lambda lo, hi: True, poch_inverse([q], Q_VARS, top).q_coefficients()),
        "q(n)": (lambda lo, hi: lo != hi, poch_inf(q.replace(sign=-1), Q_VARS, top).q_coefficients()),
    }


def _miscount(sweep, rule: Callable[[int, int], bool], expected: list[int]) -> str | None:
    """A witness that ``sweep(top, ok)``, with ``ok[lo][hi] = rule(lo, hi)`` and top
    ``len(expected) - 1``, does not yield expected[n] distinct ascending partitions
    of each n <= top whose consecutive parts pass, or None.  At most
    ``sum(expected) + 1`` items are read."""
    top = len(expected) - 1
    ok = [[rule(lo, hi) for hi in range(top + 1)] for lo in range(top + 1)]
    drawn = list(islice(sweep(top, ok), sum(expected) + 1))
    for size, p in drawn:
        if not (0 <= size <= top and sum(p) == size and list(p) == sorted(p) and min(p, default=1) >= 1):
            return f"size {size}: {p} drawn"
        if not all(ok[a][b] for a, b in zip(p, p[1:])):
            return f"size {size}: {p} drawn, which has a failing pair"
    for n in range(top + 1):
        of_n = [p for size, p in drawn if size == n]
        if len(set(of_n)) != len(of_n) or len(of_n) != expected[n]:
            return f"n = {n}: {len(set(of_n))} distinct of {len(of_n)} drawn, expected {expected[n]}"
    return None


def test_every_oracle_mutant_is_killed(monkeypatch):
    counts = _count_rules()
    assert [_miscount(partitions._ascending_sweep, *c) for c in counts.values()] == [None] * len(counts)
    killed_by = {}
    for label, (old, new) in ORACLE_MUTANTS.items():
        with monkeypatch.context() as patch:
            fn = _kernel_mutant("_ascending_sweep", old, new)
            kernels.install(patch, "_ascending_sweep", fn)
            report = verify("lpi-eq-A")
            assert report.order == REGISTRY["lpi-eq-A"].default_order
            witnesses = {"lpi-eq-A": report.witness} if not report.passed else {}
            for name, count in counts.items():
                if witness := _miscount(fn, *count):
                    witnesses[name] = witness
        assert witnesses and all(witnesses.values()), label
        killed_by[label] = sorted(witnesses)
    print(f"oracle sweep mutants and what kills them: {killed_by}")


# label -> (kernel, old text, new text)
LAYOUT_MUTANTS = {
    "x and y1 fields swapped": ("_field_shifts", "for j in range(arity)", "for j in (0, 2, 1, *range(3, arity))"),
    "guard check dropped": ("_check_keys", "& vars.guard", "& 0"),
    "native word rounds a partial byte down": ("_word_bytes", "(bits + 7) // 8", "bits // 8"),
}


def _layout_holds() -> bool:
    """Whether a layout built now keeps tuple order, refuses a field at LIMIT, and
    gives a packed product a slot wide enough for its coefficients."""
    vs = varset(*QUIN_VARS.names)
    monos = [vs.m(q=1, x=1), vs.m(y1=LIMIT - 1), vs.m(x=1), vs.m(z=2), vs.unit]
    s = Series(vs, 1, [(m, 1) for m in monos])
    if [m for m, _ in s.items()] != sorted(monos):
        return False
    # (255 + 255q)(1 + q): 510 and a sign bit need 10 bits, so 2 bytes, and
    # a 1-byte slot cannot even pack 255 as a balanced digit.
    a, b = Series(Q_VARS, 2, [((0,), 255), ((1,), 255)]), Series(Q_VARS, 2, [((0,), 1), ((1,), 1)])
    try:
        if (a * b).q_coefficients() != [255, 510, 255]:
            return False
    except OverflowError:
        return False
    try:
        s.mul_monomial(vs.m(y1=1))
    except ExponentOverflow:
        return True
    return False


def test_every_layout_mutant_is_killed(monkeypatch):
    assert _layout_holds()
    for label, (name, old, new) in LAYOUT_MUTANTS.items():
        with monkeypatch.context() as patch:
            kernels.install(patch, name, _kernel_mutant(name, old, new))
            assert not _layout_holds(), label
