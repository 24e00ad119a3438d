"""Acceptance suite.

Each test covers one acceptance criterion at its stated (exact-integer)
tolerance and prints a PASS/FAIL line; run with ``pytest -v -s`` to see the
lines as they appear.  The random sweeps are seeded and deterministic.
"""

import contextlib
import io
import itertools
import json
import math
import random

import numpy as np
import pytest

from affsemi import (
    QOExponents,
    beyond_frobenius,
    cli,
    curve_semigroup,
    fast_membership_grid,
    frobenius_number_dp,
    frobenius_vector,
    gcd_maximal_minors,
    membership_bruteforce,
    membership_fast,
    numerical_gaps_dp,
    qo_semigroup,
    random_conditioned_system,
    reachable_grid,
    verify_theorem1,
)
from affsemi.errors import InvalidExponentsError
from affsemi.exactlinalg import IntMatrix
from affsemi.frobenius import in_closed_cone
from affsemi.lattice import sub
from affsemi.singularities import CurveExponents
from tests.conftest import analyzed, random_curve_exponents


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def run_cli_machine(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv) + ["--format", "machine"])
    return code, json.loads(buffer.getvalue())


# ---------------------------------------------------------------------------
# shared random system pool (criteria 8 and 9 use the same 50 systems)


@pytest.fixture(scope="module")
def conditioned_pool():
    rng = random.Random(20240901)
    shapes = list(itertools.product([1, 2, 3], [1, 2]))
    pool = []
    while len(pool) < 50:
        dim, extras = shapes[len(pool) % len(shapes)]
        # Smaller entry caps in higher dimension keep the sweep boxes small;
        # every entry stays within the stated bound of 20.
        max_entry = {1: 20, 2: 12, 3: 7}[dim]
        pool.append(
            random_conditioned_system(rng, dim, extras, max_entry=max_entry)
        )
    return pool


def test_criterion_01_numerical_example():
    with criterion(1, "numerical example 4,6,7"):
        code, document = run_cli_machine(["analyze", "4", "6", "7"])
        assert code == 0
        assert document["chain"]["minor_gcds"] == ["4", "2", "1"]
        assert document["chain"]["indices"] == ["2", "2"]
        assert document["frobenius"]["vector"] == ["9"]
        assert document["conductor"] == [["10"]]
        assert document["gaps"] == ["1", "2", "3", "5", "9"]
        conductor = int(document["conductor"][0][0])
        assert len(document["gaps"]) == 5 == conductor // 2


def test_criterion_02_axes_example():
    with criterion(2, "planar example on scaled axes"):
        code, document = run_cli_machine(["analyze", "8,0", "0,8", "2,2", "12,8"])
        assert code == 0
        assert document["chain"]["minor_gcds"] == ["64", "16", "8"]
        assert document["chain"]["indices"] == ["4", "2"]
        assert document["frobenius"]["vector"] == ["10", "6"]
        assert document["conductor"] is None
        system, chain, report = analyzed([(8, 0), (0, 8), (2, 2), (12, 8)])
        result = membership_fast(system, chain, (10, 14), report)
        assert result.in_group and not result.in_semigroup
        assert not beyond_frobenius(system, (10, 6), (10, 14))


def test_criterion_03_skew_example():
    with criterion(3, "planar example with skew cone"):
        code, document = run_cli_machine(["analyze", "4,6", "6,3", "8,10", "3,4"])
        assert code == 0
        assert document["frobenius"]["vector"] == ["39", "53"]
        assert document["conductor"] == [["40", "54"]]


def test_criterion_04_unimodular_example():
    with criterion(4, "unimodular planar example"):
        code, document = run_cli_machine(["analyze", "1,3", "3,2", "1,1"])
        assert code == 0
        assert document["chain"]["minor_gcds"] == ["7", "1"]
        assert document["chain"]["indices"] == ["7"]
        assert document["frobenius"]["vector"] == ["2", "1"]
        assert document["conductor"] == [["3", "2"], ["3", "3"]]
        # Two-point cover, re-checked exhaustively on [0, 12]^2.
        system, chain, report = analyzed([(1, 3), (3, 2), (1, 1)])
        offsets = [(1, 1), (1, 2)]
        for point in itertools.product(range(13), repeat=2):
            interior = beyond_frobenius(system, (0, 0), point)
            if not interior:
                continue
            assert any(
                in_closed_cone(system, sub(point, w)) for w in offsets
            ), point


def test_criterion_05_degenerate_chain_subset():
    with criterion(5, "degenerate chain falls back to a subset"):
        code, _ = run_cli_machine(["analyze", "4", "6", "7", "9"])
        assert code == 3
        code, document = run_cli_machine(
            ["analyze", "4", "6", "7", "9", "--allow-subset"]
        )
        assert code == 0
        assert document["conditions"]["strict_chain"] is False
        assert document["frobenius"]["vector"] == ["9"]
        assert document["frobenius"]["threshold_only"] is True
        assert document["frobenius"]["used_subset"] == ["1", "2"]
        assert document["true_frobenius_number"] == "5"
        assert frobenius_number_dp([4, 6, 7, 9]) == 5


def test_criterion_06_scaled_membership_failure():
    with criterion(6, "scaled-membership failure is refused and explained"):
        code, document = run_cli_machine(["analyze", "8", "10", "11"])
        assert code == 3
        checks = document["conditions"]["scaled_membership"]
        failed = [c for c in checks if not c["holds"]]
        assert [c["level"] for c in failed] == ["2"]
        notes = " ".join(document["diagnostics"])
        assert "22" in notes
        assert "33" in notes and "3*11" in notes
        assert membership_bruteforce([(8,), (10,), (11,)], (33,)) == (0, 0, 3)


def test_criterion_07_sylvester_sweep():
    with criterion(7, "closed form matches the sieve on 200 coprime pairs"):
        rng = random.Random(7177)
        seen = 0
        while seen < 200:
            v1 = rng.randint(2, 149)
            v2 = rng.randint(v1 + 1, 150)
            if math.gcd(v1, v2) != 1:
                continue
            frobenius = frobenius_vector(*analyzed([(v1,), (v2,)])).vector
            assert frobenius == (frobenius_number_dp([v1, v2]),), (v1, v2)
            seen += 1


def test_criterion_08_membership_guarantee_sweep(conditioned_pool):
    with criterion(8, "membership guarantee holds on 50 random systems"):
        for system, chain, report in conditioned_pool:
            g = frobenius_vector(system, chain, report).vector
            check = verify_theorem1(system, chain, g, margin=3)
            assert check.holds, (system.generators, check.counterexample)


def test_criterion_09_membership_paths_agree(conditioned_pool):
    with criterion(9, "sign criterion agrees with enumeration on 50 systems"):
        rng = random.Random(91)
        for system, chain, report in conditioned_pool:
            e = system.ambient_dim
            upper = tuple(
                3 * sum(v[j] for v in system.generators) for j in range(e)
            )
            fast = fast_membership_grid(system, chain, upper, report)
            enumerated = reachable_grid(system, upper)
            assert np.array_equal(fast, enumerated), system.generators
            # Spot checks tie the grids back to the two scalar paths: the
            # pruned witness search and the per-point sign criterion.
            spot_upper = tuple(min(u, 24) for u in upper)
            for _ in range(40):
                point = tuple(rng.randint(0, u) for u in spot_upper)
                witness = membership_bruteforce(system.generators, point)
                assert (witness is not None) == bool(enumerated[point]), point
                scalar = membership_fast(system, chain, point, report).in_semigroup
                assert scalar == bool(fast[point]), point


def test_criterion_10_curve_semigroups():
    with criterion(10, "plane-branch semigroup data and 100-tuple sweep"):
        data = curve_semigroup(CurveExponents(4, (6, 7)))
        assert data.generators == (4, 6, 13)
        assert data.conductor == 16
        assert data.gap_count == 8
        assert numerical_gaps_dp([4, 6, 13]) == (1, 2, 3, 5, 7, 9, 11, 15)
        rng = random.Random(1010)
        for _ in range(100):
            exponents = random_curve_exponents(rng)
            derived = curve_semigroup(exponents)
            gap_list = numerical_gaps_dp(derived.generators)
            assert 2 * len(gap_list) == derived.conductor, exponents
            for k in range(1, len(derived.generators)):
                target = (derived.indices[k - 1] * derived.generators[k],)
                previous = [(r,) for r in derived.generators[:k]]
                assert membership_bruteforce(previous, target) is not None


def random_qo_exponents(rng):
    """Rejection-sample valid planar quasi-ordinary exponent data.

    For multiplicities 2 and 3 the minor-gcd chain has no room for an
    intermediate step (divisors of n^2 strictly between n^2 and n do not
    exist), so only one exponent is possible; multiplicity 4 also admits
    two-step data.
    """
    n = rng.choice([2, 3, 4])
    steps = rng.choice([1, 2]) if n == 4 else 1
    while True:
        m1 = (rng.randint(0, 9), rng.randint(0, 9))
        if not any(m1):
            continue
        exponents = [m1]
        if steps == 2:
            exponents.append(
                (m1[0] + rng.randint(1, 5), m1[1] + rng.randint(1, 5))
            )
        try:
            return QOExponents(2, n, tuple(exponents))
        except InvalidExponentsError:
            continue


def test_criterion_11_quasi_ordinary():
    with criterion(11, "quasi-ordinary data round-trips and reduces to curves"):
        rng = random.Random(1111)
        two_step_seen = 0
        for _ in range(60):
            exponents = random_qo_exponents(rng)
            data = qo_semigroup(exponents)
            n, e = exponents.multiplicity, exponents.ambient_dim
            assert data.minor_gcds[-1] == n ** (e - 1)
            assert data.conditions.all_hold
            # Independent recomputation: derived generators must reproduce
            # the minor-gcd chain of the exponents.
            axis = tuple(
                tuple(n if i == j else 0 for j in range(e)) for i in range(e)
            )
            for k in range(1, len(exponents.exponents) + 1):
                from_exponents = gcd_maximal_minors(
                    IntMatrix.from_columns(axis + exponents.exponents[:k])
                )
                from_derived = gcd_maximal_minors(
                    IntMatrix.from_columns(axis + data.derived[:k])
                )
                assert from_exponents == from_derived == data.minor_gcds[k]
            two_step_seen += len(exponents.exponents) == 2
        assert two_step_seen >= 5
        # Dimension-one reduction matches the curve pipeline generator by
        # generator.
        curve_rng = random.Random(1212)
        for _ in range(25):
            curve_exponents = random_curve_exponents(curve_rng)
            curve_data = curve_semigroup(curve_exponents)
            quasi = qo_semigroup(
                QOExponents(
                    1,
                    curve_exponents.multiplicity,
                    tuple((m,) for m in curve_exponents.exponents),
                )
            )
            assert tuple(v[0] for v in quasi.generators) == curve_data.generators
            assert quasi.minor_gcds == curve_data.gcd_chain
