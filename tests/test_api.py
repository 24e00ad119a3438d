"""The public surface: exact integers are checked where they enter, every
exported name resolves, and no module imports a name it never uses."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import affsemi
from affsemi import (
    CurveExponents,
    GeneratorSystem,
    IntMatrix,
    QOExponents,
    beyond_frobenius,
    conductor_set,
    diophantine_solve,
    lattice_basis,
    membership_bruteforce,
    membership_fast,
    standard_representation,
)
from affsemi.frobenius import in_closed_cone, numerical_gaps
from tests.conftest import analyzed

SRC = Path(affsemi.__file__).parent


def _entry_points():
    """One call per public entry, each with ``bad`` in an integer slot."""
    system, chain, report = analyzed([(4,), (6,), (7,)])
    return {
        "GeneratorSystem": lambda bad: GeneratorSystem(1, ((4,), (bad,))),
        "GeneratorSystem.from_vectors": lambda bad: GeneratorSystem.from_vectors(
            [(4,), (bad,)]
        ),
        "IntMatrix": lambda bad: IntMatrix(((1, bad),)),
        "IntMatrix.from_rows": lambda bad: IntMatrix.from_rows([[1, bad]]),
        "IntMatrix.from_columns": lambda bad: IntMatrix.from_columns([[1], [bad]]),
        "lattice_basis": lambda bad: lattice_basis([(4,), (bad,)]),
        "cone_coordinates": lambda bad: system.cone_coordinates((bad,)),
        "standard_representation": lambda bad: standard_representation(
            chain, (bad,)
        ),
        "LatticeChain.contains": lambda bad: chain.contains((bad,), 0),
        "membership_fast": lambda bad: membership_fast(
            system, chain, (bad,), report
        ),
        "membership_bruteforce": lambda bad: membership_bruteforce(
            system.generators, (bad,)
        ),
        "diophantine_solve": lambda bad: diophantine_solve(system, (bad,)),
        "beyond_frobenius": lambda bad: beyond_frobenius(system, (9,), (bad,)),
        "in_closed_cone": lambda bad: in_closed_cone(system, (bad,)),
        "conductor_set": lambda bad: conductor_set(system, chain, (bad,)),
        "numerical_gaps": lambda bad: numerical_gaps([4, bad]),
        "CurveExponents": lambda bad: CurveExponents(4, (6, bad)),
        "QOExponents": lambda bad: QOExponents(2, 2, ((3, bad),)),
    }


class TestInputBoundary:
    @pytest.mark.parametrize("entry", sorted(_entry_points()))
    @pytest.mark.parametrize("bad", [1.5, Fraction(3, 2)], ids=["float", "fraction"])
    def test_inexact_numbers_are_refused(self, entry, bad):
        with pytest.raises(TypeError):
            _entry_points()[entry](bad)

    def test_numpy_integers_are_stored_as_python_ints(self):
        values = [np.int64(4), np.int64(6), np.int64(7)]
        system = GeneratorSystem(1, tuple((v,) for v in values))
        assert all(type(x) is int for v in system.generators for x in v)
        for matrix in (
            IntMatrix(((values[0], values[1]),)),
            IntMatrix.from_rows([values[:2], values[1:]]),
            IntMatrix.from_columns([values[:2], values[1:]]),
        ):
            assert all(type(x) is int for row in matrix.rows for x in row)


def test_every_exported_name_resolves():
    for name in affsemi.__all__:
        getattr(affsemi, name)


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"],
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    # ``__init__`` is excluded: its imports are the package's re-exports.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"
