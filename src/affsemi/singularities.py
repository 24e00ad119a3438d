"""Semigroups derived from characteristic exponents.

Two constructions share the same recursion shape:

* a plane branch with multiplicity n and characteristic exponents
  m_1 < ... < m_h determines a numerical semigroup whose generators r_k
  satisfy r_k = r_{k-1} * d_{k-1}/d_k + m_k - m_{k-1}, with d_k the running
  gcd along the exponents; its conductor, Milnor number and gap count come
  out in closed form;
* a quasi-ordinary branch in e variables does the same with vector
  exponents, gcds of maximal minors of [n*I | m_1 .. m_k] replacing plain
  gcds, and the leading generators n*(standard basis).

Only the exponent data is handled here; recovering exponents from an actual
polynomial is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidExponentsError
from .exactlinalg import IntMatrix, Vector, as_int, as_vector, gcd_maximal_minors
from .frobenius import FrobeniusReport, frobenius_vector
from .lattice import GeneratorSystem, LatticeChain, build_chain, scale
from .semigroup import ConditionReport, validate_conditions


@dataclass(frozen=True)
class CurveExponents:
    """Multiplicity and characteristic exponents of a plane branch.

    Validated eagerly: the exponents must be strictly increasing, start
    above the multiplicity, each must break the divisibility of the running
    gcd (so the gcd chain strictly decreases), and the final gcd must be 1.
    """

    multiplicity: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        n = as_int(self.multiplicity)
        m = tuple(as_int(x) for x in self.exponents)
        object.__setattr__(self, "multiplicity", n)
        object.__setattr__(self, "exponents", m)
        if n < 2:
            raise InvalidExponentsError("multiplicity must be at least 2")
        if not m:
            raise InvalidExponentsError("at least one characteristic exponent needed")
        if m[0] <= n:
            raise InvalidExponentsError(
                f"first exponent {m[0]} must exceed the multiplicity {n}"
            )
        if any(a >= b for a, b in zip(m, m[1:])):
            raise InvalidExponentsError("exponents must be strictly increasing")
        d = n
        for k, mk in enumerate(m, start=1):
            nxt = math.gcd(mk, d)
            if nxt == d:
                raise InvalidExponentsError(
                    f"exponent {mk} (position {k}) is divisible by the running gcd {d}"
                )
            d = nxt
        if d != 1:
            raise InvalidExponentsError(
                f"the gcd chain must end at 1, got {d}; exponents are incomplete"
            )

    def gcd_chain(self) -> tuple[int, ...]:
        chain = [self.multiplicity]
        for mk in self.exponents:
            chain.append(math.gcd(mk, chain[-1]))
        return tuple(chain)


@dataclass(frozen=True)
class CurveSemigroupData:
    """Derived numerical-semigroup data of a plane branch."""

    generators: tuple[int, ...]
    gcd_chain: tuple[int, ...]
    indices: tuple[int, ...]
    conductor: int
    milnor: int
    gap_count: int


def curve_semigroup(exponents: CurveExponents) -> CurveSemigroupData:
    """Generators and invariants of the branch semigroup.

    The conductor is sum (index_k - 1) * r_k - r_0 + 1; it equals the Milnor
    number, and exactly half of the integers below it are gaps.  Each scaled
    generator index_k * r_k is re-checked to be representable over its
    predecessors by an explicit witness, in O(h) steps for h exponents
    whatever the multiplicity; valid exponent data always passes.
    """
    n = exponents.multiplicity
    m = exponents.exponents
    d = exponents.gcd_chain()
    indices = tuple(d[k] // d[k + 1] for k in range(len(m)))
    r = [n, m[0]]
    for k in range(2, len(m) + 1):
        r.append(r[-1] * (d[k - 2] // d[k - 1]) + m[k - 1] - m[k - 2])
    conductor = sum((indices[k] - 1) * r[k + 1] for k in range(len(m))) - n + 1
    if conductor % 2:
        raise AssertionError("the conductor of a branch semigroup is even")
    for k in range(1, len(r)):
        # Witness over r_0 .. r_{k-1} (the standard representation): from the
        # top down, c_j is the residue mod indices[j-1] that leaves the rest
        # in d[j-1] Z, and the rest must be a nonnegative multiple of n.
        target = indices[k - 1] * r[k]
        rest = target
        for j in range(k - 1, 0, -1):
            unit = pow(r[j] // d[j], -1, indices[j - 1])
            rest -= (rest // d[j]) * unit % indices[j - 1] * r[j]
        if rest < 0 or rest % n:
            raise InvalidExponentsError(
                f"scaled generator {indices[k - 1]}*{r[k]} is not representable "
                "over its predecessors; exponent data is inconsistent"
            )
    return CurveSemigroupData(
        generators=tuple(r),
        gcd_chain=d,
        indices=indices,
        conductor=conductor,
        milnor=conductor,
        gap_count=conductor // 2,
    )


def zariski_validate(generators: Sequence[int]) -> bool:
    """Whether an increasing coprime sequence arises from a plane branch.

    Writing d_1 = r_0 and d_{k+1} = gcd(r_k, d_k), the sequence is accepted
    when it increases strictly, gcd(r_0, ..., r_h) = 1, and
    r_k > r_{k-1} * d_{k-1} / d_k for k = 2 .. h.  (The inequality starts at
    k = 2: the first generator beyond r_0 is unconstrained apart from the
    strict increase.)
    """
    r = [as_int(x) for x in generators]
    if not r or r[0] < 1:
        return False
    if any(a >= b for a, b in zip(r, r[1:])):
        return False
    d = [r[0]]
    for rk in r[1:]:
        d.append(math.gcd(rk, d[-1]))
    if d[-1] != 1:
        return False
    # d[i] is gcd(r_0, ..., r_i); the inequality compares consecutive ones.
    for k in range(2, len(r)):
        if r[k] * d[k - 1] <= r[k - 1] * d[k - 2]:
            return False
    return True


@dataclass(frozen=True)
class QOExponents:
    """Multiplicity and vector characteristic exponents (quasi-ordinary).

    The exponents must increase strictly coordinate-wise, the chain of
    maximal-minor gcds of [n*I | m_1 .. m_k] must strictly decrease, and it
    must end at n^(e-1).
    """

    ambient_dim: int
    multiplicity: int
    exponents: tuple[Vector, ...]

    def __post_init__(self):
        e = as_int(self.ambient_dim)
        n = as_int(self.multiplicity)
        m = tuple(as_vector(v) for v in self.exponents)
        object.__setattr__(self, "ambient_dim", e)
        object.__setattr__(self, "multiplicity", n)
        object.__setattr__(self, "exponents", m)
        if e < 1:
            raise InvalidExponentsError("ambient dimension must be at least 1")
        if n < 2:
            raise InvalidExponentsError("multiplicity must be at least 2")
        if not m:
            raise InvalidExponentsError("at least one exponent vector needed")
        for i, v in enumerate(m, start=1):
            if len(v) != e:
                raise InvalidExponentsError(
                    f"exponent {i} has length {len(v)}, expected {e}"
                )
            if any(x < 0 for x in v):
                raise InvalidExponentsError(f"exponent {i} has a negative coordinate")
            if not any(v):
                raise InvalidExponentsError(f"exponent {i} is the zero vector")
        for i in range(1, len(m)):
            if not all(a < b for a, b in zip(m[i - 1], m[i])):
                raise InvalidExponentsError(
                    f"exponents {i} and {i + 1} are not strictly increasing "
                    "coordinate-wise"
                )
        chain = _qo_minor_chain(e, n, m)
        for k in range(1, len(chain)):
            if chain[k] >= chain[k - 1]:
                raise InvalidExponentsError(
                    f"minor gcd does not drop at exponent {k}: each exponent must "
                    "enlarge the lattice"
                )
        if chain[-1] != n ** (e - 1):
            raise InvalidExponentsError(
                f"the minor-gcd chain ends at {chain[-1]}, expected "
                f"{n ** (e - 1)}; exponent data is inconsistent"
            )

    def minor_chain(self) -> tuple[int, ...]:
        return _qo_minor_chain(self.ambient_dim, self.multiplicity, self.exponents)


def _qo_minor_chain(e: int, n: int, vectors: Sequence[Vector]) -> tuple[int, ...]:
    """Gcds of maximal minors of [n*I | v_1 .. v_k] for k = 0 .. len."""
    axis = tuple(scale(unit, n) for unit in _standard_basis(e))
    chain = [n**e]
    for k in range(1, len(vectors) + 1):
        matrix = IntMatrix.from_columns(axis + tuple(vectors[:k]))
        chain.append(gcd_maximal_minors(matrix))
    return tuple(chain)


def _standard_basis(e: int) -> tuple[Vector, ...]:
    return tuple(
        tuple(1 if i == j else 0 for j in range(e)) for i in range(e)
    )


@dataclass(frozen=True)
class QOSemigroupData:
    """Derived semigroup data of a quasi-ordinary branch."""

    system: GeneratorSystem
    derived: tuple[Vector, ...]
    minor_gcds: tuple[int, ...]
    indices: tuple[int, ...]
    vector: Vector
    chain: LatticeChain
    conditions: ConditionReport
    report: FrobeniusReport

    @property
    def generators(self) -> tuple[Vector, ...]:
        return self.system.generators


def qo_semigroup(exponents: QOExponents) -> QOSemigroupData:
    """Build the semigroup generators and Frobenius vector from QO exponents.

    The derived generators follow the vector recursion
    r_k = r_{k-1} * D_{k-1}/D_k + (m_k - m_{k-1}); the full system is
    n*(standard basis) followed by the r_k.  Two consistency facts are
    re-checked: swapping exponents for derived generators leaves the
    minor-gcd chain unchanged, and the system satisfies both chain
    conditions, so the closed-form Frobenius vector applies.
    """
    e = exponents.ambient_dim
    n = exponents.multiplicity
    m = exponents.exponents
    minor_gcds = exponents.minor_chain()
    indices = tuple(
        minor_gcds[k] // minor_gcds[k + 1] for k in range(len(m))
    )
    derived = [m[0]]
    for k in range(2, len(m) + 1):
        step = minor_gcds[k - 2] // minor_gcds[k - 1]
        derived.append(tuple(
            step * a + b - c for a, b, c in zip(derived[-1], m[k - 1], m[k - 2])
        ))
    recomputed = _qo_minor_chain(e, n, derived)
    if recomputed != minor_gcds:
        raise InvalidExponentsError(
            "derived generators change the minor-gcd chain; exponent data is "
            "inconsistent"
        )
    axis = tuple(scale(unit, n) for unit in _standard_basis(e))
    system = GeneratorSystem(e, axis + tuple(derived))
    chain = build_chain(system)
    if chain.minor_gcds != minor_gcds:
        raise AssertionError("chain disagrees with the exponent minor gcds")
    conditions = validate_conditions(system, chain)
    if not conditions.all_hold:
        raise InvalidExponentsError(
            "derived generators fail the chain conditions; exponent data is "
            "inconsistent"
        )
    report = frobenius_vector(system, chain, conditions)
    return QOSemigroupData(
        system=system,
        derived=tuple(derived),
        minor_gcds=minor_gcds,
        indices=indices,
        vector=report.vector,
        chain=chain,
        conditions=conditions,
        report=report,
    )
