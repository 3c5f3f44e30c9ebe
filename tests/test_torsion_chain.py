"""A torsion chain that is already canonical is kept as given.

``FgAbGroup`` canonicalizes its invariant factors; a chain whose factors
are all > 1, each dividing the next, is its own canonical form and skips
the coprime-base census.  Both paths must give ``_canonical_chain``'s
answer, on any factor tuple."""

from hypothesis import given, settings
from hypothesis import strategies as st

from simploc import coeff
from simploc.coeff import FgAbGroup, _canonical_chain

from .oracles import canonical_chain_reference

# chains built as running products of factors >= 2: canonical by construction
_CHAINS = st.lists(st.integers(2, 12), max_size=6).map(
    lambda steps: tuple(_running_products(steps))
)
_RAW = st.lists(st.integers(-60, 60), max_size=6).map(tuple)


def _running_products(steps):
    value = 1
    for step in steps:
        value *= step
        yield value


@settings(max_examples=300, deadline=None)
@given(st.one_of(_CHAINS, _RAW, _CHAINS.map(lambda c: c[::-1])))
def test_kept_chain_equals_the_canonical_chain(factors):
    group = FgAbGroup(1, factors)
    assert type(group.invariant_factors) is tuple
    assert group.invariant_factors == _canonical_chain(factors)
    assert group.invariant_factors == canonical_chain_reference(factors)


@settings(max_examples=100, deadline=None)
@given(_CHAINS)
def test_a_canonical_chain_skips_the_census(chain):
    # patched by hand: a function-scoped fixture is not reset between examples
    calls = []
    real = coeff._canonical_chain
    coeff._canonical_chain = lambda factors: calls.append(factors) or real(factors)
    try:
        group = FgAbGroup(0, chain)
        from_list = FgAbGroup(0, list(chain))
    finally:
        coeff._canonical_chain = real
    assert calls == []
    assert group.invariant_factors is chain
    assert from_list.invariant_factors == chain and type(from_list.invariant_factors) is tuple


def test_chains_that_are_not_canonical_are_canonicalized():
    for factors, chain in [
        ((9, 3), (3, 9)),
        ((1, 3, 9), (3, 9)),
        ((0, 2), (2,)),
        ((-2, 4), (2, 4)),
        ((2, 3), (6,)),
        ((4, 6), (2, 12)),
        ((3, 3), (3, 3)),
        ((1,), ()),
    ]:
        assert FgAbGroup(0, factors).invariant_factors == chain
    # a rational group keeps no torsion
    assert FgAbGroup(1, (2, 4), rational=True).invariant_factors == ()
