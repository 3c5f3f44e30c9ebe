"""The one-pass fixed-lattice count against the enumerator it replaced
(``oracles.affine_cell_count_reference``), past the sizes brute force
reaches: up to six entries in [-4, 12], with long runs of equal entries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simploc.schubert import CoweightDatum, affine_cell_count

from .oracles import affine_cell_count_reference


@st.composite
def coweights(draw) -> CoweightDatum:
    n = draw(st.integers(0, 6))
    entries = draw(st.lists(st.integers(-4, 12), min_size=n, max_size=n))
    # a drawn repeat copies the entry before it, so long runs are common
    repeats = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    for i in range(1, n):
        if repeats[i]:
            entries[i] = entries[i - 1]
    return CoweightDatum(n, tuple(sorted(entries, reverse=True)))


@settings(max_examples=400, deadline=None)
@given(coweights())
def test_count_matches_reference(datum):
    assert affine_cell_count(datum) == affine_cell_count_reference(datum)


@pytest.mark.parametrize(
    "mu, count",
    [((), 1), ((300, 150, 0), 67_951), ((3000, 0), 3_001), ((60, 40, 20, 0), 134_121)],
)
def test_pinned_counts(mu, count):
    datum = CoweightDatum(len(mu), mu)
    assert affine_cell_count(datum) == count == affine_cell_count_reference(datum)
