"""Torsion without factoring: coprime-base canonicalization and cancellation.

Invariant factors are canonicalized over a coprime base of the distinct
factors (gcd refinement), and direct summands cancel by the multisets of
their primary parts over such a base, so Z/6 = Z/2 + Z/3 cancels Z/2.
"""

import random
import time

import pytest

from simploc.cli import EXIT_OK, main
from simploc.coeff import FgAbGroup, direct_sum, summand_complement

from .oracles import canonical_chain_reference


def test_canonical_chain_matches_trial_division():
    rng = random.Random(2718)
    for _ in range(20000):
        top = rng.choice((12, 60, 1000, 10**5))
        factors = [rng.randint(-top, top) for _ in range(rng.randint(0, 6))]
        factors *= rng.choice((1, 1, 2, 3))
        assert FgAbGroup(0, tuple(factors)).invariant_factors == canonical_chain_reference(factors)


def test_large_prime_factors_canonicalize_without_factoring():
    p = 10**18 + 3
    assert FgAbGroup(0, (p, 2 * p, 6)).invariant_factors == (2 * p, 6 * p)
    copies = FgAbGroup(0, (2, 4) * 2**17)
    assert copies.invariant_factors == (2,) * 2**17 + (4,) * 2**17


def test_table_with_a_large_prime_factor(tmp_path, capsys):
    (tmp_path / "big.tbl").write_text("0 1\n1 0 10000000000000061\n")
    script = tmp_path / "big.slc"
    script.write_text(
        'group trivial\ntable big = "big.tbl"\nlet p = P(2)\ncompute p table=big degrees=0..1\n'
    )
    start = time.perf_counter()
    assert main(["run", str(script)]) == EXIT_OK
    assert time.perf_counter() - start < 1
    assert "degree 1: " + " + ".join(["Z/10000000000000061"] * 3) in capsys.readouterr().out


def test_summands_cancel_by_primary_parts():
    assert summand_complement(FgAbGroup(0, (6,)), FgAbGroup(0, (2,))) == FgAbGroup(0, (3,))
    assert summand_complement(FgAbGroup(0, (12,)), FgAbGroup(0, (4,))) == FgAbGroup(0, (3,))
    for total, part in (((4,), (2,)), ((6,), (4,))):
        with pytest.raises(ValueError):
            summand_complement(FgAbGroup(0, total), FgAbGroup(0, part))


def test_complement_of_a_direct_summand():
    rng = random.Random(1618)
    for _ in range(3000):
        a, b = (
            FgAbGroup(rng.randint(0, 2), tuple(rng.randint(1, 80) for _ in range(rng.randint(0, 3))))
            for _ in range(2)
        )
        assert summand_complement(direct_sum(a, b), a) == b


def test_split_square_over_a_cyclic_summand(tmp_path, capsys):
    """The cover is Z/2 + Z/3 = Z/6 in degree -1 and the exceptional corner
    Z/2: a valid split square, once refused as inconsistent."""
    script = tmp_path / "split.slc"
    script.write_text(
        "group trivial\n"
        "let w2 = blowup(unknown=X, split=none, Y=point, Z=point, E=point, maps=[0: ((2, 0))])\n"
        "let w3 = blowup(unknown=X, split=none, Y=point, Z=point, E=point, maps=[0: ((3, 0))])\n"
        "let s = blowup(unknown=X, split=retraction, Y=disjoint(w2, w3), Z=point, E=w2)\n"
        "compute s table=unit degrees=-1..0\n"
    )
    assert main(["run", str(script)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "degree -1: Z/3\n" in out and "degree 0: Z^2\n" in out
