"""Command-line front end.

Subcommands: ``analyze`` (chain, conditions, Frobenius vector, conductor),
``member`` (membership of one point), ``dioph`` (nonnegative integer solve),
``curve`` / ``quasi`` (semigroups from characteristic exponents) and
``verify`` (finite-box re-checks of the closed-form results).

Input is taken either from positional generator tokens (``4 6 7`` or
``8,0 0,8 2,2``) or from a JSON document with fields ``e`` and
``generators`` (exponent commands use ``n`` and ``m``).  Machine output
(``--format machine``) renders every integer as a decimal string, so
documents survive arbitrary magnitudes; re-analysing the echoed input
reproduces the document bit for bit.

Exit codes: 0 success, 1 internal error (a bug), 2 invalid input, 3 chain
conditions unmet (without ``--allow-subset``), 4 a verification sweep found
a counterexample.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .errors import ConditionsUnmetError, SearchBudgetExceededError
from .exactlinalg import Vector
from .frobenius import (
    CONDITIONS_UNMET,
    FrobeniusReport,
    beyond_frobenius,
    diophantine_solve,
    frobenius_formula,
    frobenius_subset,
    frobenius_vector,
    gaps,
    in_closed_cone,
    numerical_gaps,
)
from .lattice import (
    GeneratorSystem,
    LatticeChain,
    build_chain,
    standard_representation,
    sub,
)
from .oracle import verify_conductor, verify_theorem1
from .semigroup import (
    ConditionReport,
    membership_bruteforce,
    membership_fast,
    validate_conditions,
)
from .singularities import (
    CurveExponents,
    QOExponents,
    curve_semigroup,
    qo_semigroup,
    zariski_validate,
)


#: Skip gap enumeration in analysis documents beyond this sieve length.
GAP_SIEVE_LIMIT = 10**7


# ---------------------------------------------------------------------------
# input parsing


def _parse_int(value) -> int:
    if isinstance(value, bool):
        raise ValueError("booleans are not integers")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return int(value.strip(), 10)
    raise ValueError(f"cannot read integer from {value!r}")


def _nonnegative_int(text: str) -> int:
    """Argument type of ``--budget`` and ``--margin``."""
    try:
        value = int(text, 10)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}"
        )
    return value


def _parse_vector(value) -> Vector:
    if isinstance(value, (list, tuple)):
        return tuple(_parse_int(x) for x in value)
    if isinstance(value, str):
        return tuple(_parse_int(tok) for tok in value.split(",") if tok.strip())
    return (_parse_int(value),)


def _load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError("input document must be a JSON object")
    return document


def _system_from_args(args) -> GeneratorSystem:
    if args.input:
        document = _load_document(args.input)
        if "generators" not in document:
            raise ValueError("input document is missing 'generators'")
        generators = [_parse_vector(v) for v in document["generators"]]
        dim = _parse_int(document["e"]) if "e" in document else len(generators[0])
        return GeneratorSystem(dim, tuple(generators))
    if not args.generators:
        raise ValueError("no generators given (positional tokens or --input)")
    generators = [_parse_vector(tok) for tok in args.generators]
    return GeneratorSystem(len(generators[0]), tuple(generators))


# ---------------------------------------------------------------------------
# machine document helpers (all integers rendered as decimal strings)


def _s(value: int) -> str:
    return str(int(value))


def _sv(vector: Sequence[int]) -> list[str]:
    return [_s(x) for x in vector]


def _input_echo(system: GeneratorSystem) -> dict:
    return {
        "e": _s(system.ambient_dim),
        "generators": [_sv(v) for v in system.generators],
    }


def _chain_block(chain: LatticeChain) -> dict:
    return {
        "minor_gcds": _sv(chain.minor_gcds),
        "indices": _sv(chain.indices),
    }


def _conditions_block(report: ConditionReport) -> dict:
    return {
        "strict_chain": report.strict_chain,
        "strict_chain_violation": (
            None
            if report.strict_chain_violation is None
            else _s(report.strict_chain_violation)
        ),
        "scaled_membership": [
            {
                "level": _s(check.level),
                "holds": check.holds,
                "witness": None if check.witness is None else _sv(check.witness),
                "undecided": check.undecided,
            }
            for check in report.scaled
        ],
    }


def _combination_text(system_or_gens, coefficients: Sequence[int]) -> str:
    gens = (
        system_or_gens.generators
        if isinstance(system_or_gens, GeneratorSystem)
        else list(system_or_gens)
    )
    terms = []
    for coeff, gen in zip(coefficients, gens):
        if coeff:
            terms.append(f"{coeff}*{_vec_text(gen)}")
    return " + ".join(terms) if terms else "0"


def _vec_text(vector: Sequence[int]) -> str:
    vec = tuple(vector)
    if len(vec) == 1:
        return str(vec[0])
    return "(" + ",".join(str(x) for x in vec) + ")"


def _render(document: dict, fmt: str, human_lines) -> None:
    if fmt == "machine":
        print(json.dumps(document, indent=2))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# analyze


def _condition_failure_diagnostics(
    system: GeneratorSystem, chain: LatticeChain, report: ConditionReport
) -> list[str]:
    notes = []
    if not report.strict_chain:
        k = report.strict_chain_violation
        gen = system.generators[system.ambient_dim + k - 1]
        notes.append(
            f"strict-descent condition fails at level {k}: generator "
            f"{_vec_text(gen)} does not enlarge the group of its predecessors"
        )
    failure = report.first_scaled_failure()
    if failure is not None:
        k = failure.level
        gen = system.generators[system.ambient_dim + k - 1]
        index = chain.indices[k - 1]
        target = tuple(index * x for x in gen)
        predecessors = ", ".join(
            _vec_text(v) for v in system.generators[: system.ambient_dim + k - 1]
        )
        what = "could not be decided within the search budget" if failure.undecided else (
            f"is not a nonnegative combination of {predecessors}"
        )
        notes.append(
            f"scaled-membership condition fails at level {k}: "
            f"{index}*{_vec_text(gen)} = {_vec_text(target)} {what}"
        )
    naive = frobenius_formula(system, chain)
    notes.append(
        f"the closed-form value {_vec_text(naive)} is not a valid Frobenius "
        "vector here"
    )
    if all(x >= 0 for x in naive):
        try:
            witness = membership_bruteforce(system.generators, naive, budget=500_000)
        except SearchBudgetExceededError:
            witness = None
        if witness is not None:
            notes.append(
                f"indeed {_vec_text(naive)} = "
                f"{_combination_text(system, witness)} lies in the semigroup"
            )
    return notes


def _analysis_document(
    system: GeneratorSystem,
    chain: LatticeChain,
    report: ConditionReport,
    frobenius_report: Optional[FrobeniusReport],
    diagnostics: list[str],
    error: Optional[str] = None,
) -> dict:
    document = {
        "input": _input_echo(system),
        "chain": _chain_block(chain),
        "conditions": _conditions_block(report),
        "frobenius": None,
        "conductor": None,
        "gaps": None,
        "gap_count": None,
        "true_frobenius_number": None,
        "diagnostics": diagnostics,
    }
    if error is not None:
        document["error"] = error
    if frobenius_report is None:
        return document
    document["frobenius"] = {
        "vector": _sv(frobenius_report.vector),
        "threshold_only": frobenius_report.threshold_only,
        "used_subset": (
            None
            if frobenius_report.used_subset is None
            else _sv(frobenius_report.used_subset)
        ),
        "vector_in_group": frobenius_report.vector_in_group,
        "vector_in_semigroup": frobenius_report.vector_in_semigroup,
    }
    if frobenius_report.conductor is not None and not frobenius_report.threshold_only:
        document["conductor"] = [_sv(c) for c in frobenius_report.conductor]
    if system.ambient_dim == 1 and chain.minor_gcds[-1] == 1:
        values = [v[0] for v in system.generators]
        sieve_span = (
            frobenius_report.vector[0] + 1
            if not frobenius_report.threshold_only
            else min(values) * max(values)
        )
        if sieve_span > GAP_SIEVE_LIMIT:
            diagnostics.append(
                "gap enumeration skipped: the conductor region has about "
                f"{sieve_span} integers"
            )
            return document
        gap_list = gaps(system, chain)
        document["gaps"] = _sv(gap_list)
        document["gap_count"] = _s(len(gap_list))
        if frobenius_report.threshold_only:
            # The gap list pins the exact Frobenius number and conductor
            # even when the closed form only gives a threshold.
            frobenius_number = gap_list[-1] if gap_list else -1
            document["true_frobenius_number"] = _s(frobenius_number)
            document["conductor"] = [_sv((frobenius_number + 1,))]
    return document


def _human_analysis(document: dict) -> list[str]:
    lines = []
    gens = document["input"]["generators"]
    lines.append("generators: " + " ".join(_vec_text(v) for v in gens))
    lines.append("minor gcds: " + " ".join(document["chain"]["minor_gcds"]))
    if document["chain"]["indices"]:
        lines.append("indices:    " + " ".join(document["chain"]["indices"]))
    conditions = document["conditions"]
    ok = conditions["strict_chain"] and all(
        c["holds"] for c in conditions["scaled_membership"]
    )
    lines.append("conditions: " + ("satisfied" if ok else "NOT satisfied"))
    frob = document.get("frobenius")
    if frob is not None:
        label = "threshold vector" if frob["threshold_only"] else "frobenius vector"
        lines.append(f"{label}: {_vec_text(frob['vector'])}")
        if frob["threshold_only"]:
            kept = ", ".join(frob["used_subset"])
            lines.append(
                f"  (upper threshold from extra generators [{kept}]; "
                "need not be minimal)"
            )
    if document.get("conductor") is not None:
        lines.append(
            "conductor: " + " ".join(_vec_text(c) for c in document["conductor"])
        )
    if document.get("gaps") is not None:
        lines.append(
            f"gaps ({document['gap_count']}): " + " ".join(document["gaps"])
        )
    if document.get("true_frobenius_number") is not None:
        lines.append(
            "true frobenius number: " + document["true_frobenius_number"]
        )
    for note in document["diagnostics"]:
        lines.append("note: " + note)
    return lines


def cmd_analyze(args) -> int:
    system = _system_from_args(args)
    chain = build_chain(system)
    report = validate_conditions(system, chain, args.budget)
    if report.all_hold:
        frob = frobenius_vector(system, chain, report)
        document = _analysis_document(system, chain, report, frob, [])
        _render(document, args.format, _human_analysis(document))
        return 0
    diagnostics = _condition_failure_diagnostics(system, chain, report)
    if not args.allow_subset:
        document = _analysis_document(
            system, chain, report, None, diagnostics, error="conditions_unmet"
        )
        _render(document, args.format, _human_analysis(document))
        return 3
    try:
        frob = frobenius_subset(system, args.budget)
    except ConditionsUnmetError:
        diagnostics.append(
            "subset fallback failed: the filtered generators still miss the "
            "scaled-membership condition"
        )
        document = _analysis_document(
            system, chain, report, None, diagnostics, error="conditions_unmet"
        )
        _render(document, args.format, _human_analysis(document))
        return 3
    if frob.threshold_only:
        kept = ", ".join(str(k) for k in frob.used_subset)
        diagnostics.append(
            f"closed form applied to the subset keeping extra generators "
            f"[{kept}]; the vector is an upper threshold only and need not "
            "be minimal"
        )
    document = _analysis_document(system, chain, report, frob, diagnostics)
    if document.get("true_frobenius_number") is not None:
        document["diagnostics"] = diagnostics + [
            f"sieve gives the exact frobenius number "
            f"{document['true_frobenius_number']}"
        ]
    _render(document, args.format, _human_analysis(document))
    return 0


# ---------------------------------------------------------------------------
# member


def cmd_member(args) -> int:
    system = _system_from_args(args)
    point = _parse_vector(args.point)
    chain = build_chain(system)
    report = validate_conditions(system, chain, args.budget)
    representation = standard_representation(chain, point)
    diagnostics: list[str] = []
    if report.all_hold:
        result = membership_fast(system, chain, point, report)
        method = "fast"
        in_group = result.in_group
        in_semigroup = result.in_semigroup
        witness = (
            result.representation.coefficients
            if result.in_semigroup
            else None
        )
        g = frobenius_formula(system, chain)
        shift = sub(point, g)
        if (
            any(shift)
            and in_closed_cone(system, shift)
            and not beyond_frobenius(system, g, point)
        ):
            diagnostics.append(
                f"point exceeds the threshold {_vec_text(g)} only along a "
                "boundary cell of the cone; the membership guarantee covers "
                "the open cone only"
            )
    else:
        method = "bruteforce"
        in_group = representation is not None
        witness = membership_bruteforce(system.generators, point, args.budget)
        in_semigroup = witness is not None
    document = {
        "input": _input_echo(system),
        "point": _sv(point),
        "in_group": in_group,
        "in_semigroup": in_semigroup,
        "method": method,
        "representation": (
            None if representation is None else _sv(representation.coefficients)
        ),
        "witness": None if witness is None else _sv(witness),
        "diagnostics": diagnostics,
    }
    lines = [
        f"point {_vec_text(point)}: "
        + ("member" if in_semigroup else "NOT a member")
        + f" of the semigroup (method: {method})",
        "in group: " + ("yes" if in_group else "no"),
    ]
    if representation is not None:
        lines.append(
            "standard representation: "
            + _combination_text(system, representation.coefficients)
        )
    if witness is not None:
        lines.append("witness: " + _combination_text(system, witness))
    for note in diagnostics:
        lines.append("note: " + note)
    _render(document, args.format, lines)
    return 0


# ---------------------------------------------------------------------------
# dioph


def cmd_dioph(args) -> int:
    system = _system_from_args(args)
    target = _parse_vector(args.target)
    answer = diophantine_solve(system, target, args.budget)
    document = {
        "input": _input_echo(system),
        "target": _sv(target),
        "status": answer.status,
        "witness": None if answer.witness is None else _sv(answer.witness),
    }
    lines = [f"target {_vec_text(target)}: {answer.status}"]
    if answer.witness is not None:
        lines.append("witness: " + _combination_text(system, answer.witness))
    _render(document, args.format, lines)
    return 3 if answer.status == CONDITIONS_UNMET else 0


# ---------------------------------------------------------------------------
# curve / quasi


def cmd_curve(args) -> int:
    if args.input:
        document = _load_document(args.input)
        n = _parse_int(document["n"])
        m = [_parse_int(x) for x in document["m"]]
    else:
        if len(args.values) < 2:
            raise ValueError("curve needs the multiplicity followed by exponents")
        n = _parse_int(args.values[0])
        m = [_parse_int(x) for x in args.values[1:]]
    data = curve_semigroup(CurveExponents(n, tuple(m)))
    gap_list = (
        numerical_gaps(data.generators)
        if data.conductor <= GAP_SIEVE_LIMIT
        else None
    )
    document = {
        "input": {"n": _s(n), "m": _sv(m)},
        "generators": _sv(data.generators),
        "gcd_chain": _sv(data.gcd_chain),
        "indices": _sv(data.indices),
        "conductor": _s(data.conductor),
        "milnor": _s(data.milnor),
        "gap_count": _s(data.gap_count),
        "gaps": None if gap_list is None else _sv(gap_list),
        "zariski_valid": zariski_validate(data.generators),
    }
    lines = [
        f"multiplicity {n}, exponents {' '.join(str(x) for x in m)}",
        "generators: " + " ".join(_sv(data.generators)),
        "gcd chain:  " + " ".join(_sv(data.gcd_chain)),
        "indices:    " + " ".join(_sv(data.indices)),
        f"conductor: {data.conductor}   milnor: {data.milnor}   "
        f"gaps: {data.gap_count}",
    ]
    if gap_list is not None:
        lines.append("gap list: " + " ".join(_sv(gap_list)))
    _render(document, args.format, lines)
    return 0


def cmd_quasi(args) -> int:
    if args.input:
        document = _load_document(args.input)
        n = _parse_int(document["n"])
        m = [_parse_vector(v) for v in document["m"]]
        dim = _parse_int(document["e"]) if "e" in document else len(m[0])
    else:
        if args.n is None or not args.exponents:
            raise ValueError("quasi needs --n and at least one exponent vector")
        n = _parse_int(args.n)
        m = [_parse_vector(tok) for tok in args.exponents]
        dim = len(m[0])
    data = qo_semigroup(QOExponents(dim, n, tuple(m)))
    document = {
        "input": {"e": _s(dim), "n": _s(n), "m": [_sv(v) for v in m]},
        "generators": [_sv(v) for v in data.generators],
        "derived": [_sv(v) for v in data.derived],
        "minor_gcds": _sv(data.minor_gcds),
        "indices": _sv(data.indices),
        "frobenius": _sv(data.vector),
        "conductor": (
            None
            if data.report.conductor is None
            else [_sv(c) for c in data.report.conductor]
        ),
    }
    lines = [
        f"dimension {dim}, multiplicity {n}, exponents "
        + " ".join(_vec_text(v) for v in m),
        "generators: " + " ".join(_vec_text(v) for v in data.generators),
        "minor gcds: " + " ".join(_sv(data.minor_gcds)),
        "indices:    " + " ".join(_sv(data.indices)),
        "frobenius vector: " + _vec_text(data.vector),
    ]
    if data.report.conductor is not None:
        lines.append(
            "conductor: " + " ".join(_vec_text(c) for c in data.report.conductor)
        )
    _render(document, args.format, lines)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    system = _system_from_args(args)
    chain = build_chain(system)
    report = validate_conditions(system, chain, args.budget)
    if not report.all_hold:
        diagnostics = _condition_failure_diagnostics(system, chain, report)
        document = _analysis_document(
            system, chain, report, None, diagnostics, error="conditions_unmet"
        )
        _render(document, args.format, _human_analysis(document))
        return 3
    frob = frobenius_vector(system, chain, report)
    check = verify_theorem1(system, chain, frob.vector, args.margin)
    covered = None
    if frob.conductor is not None:
        covered = verify_conductor(system, chain, frob.conductor, args.margin)
    document = {
        "input": _input_echo(system),
        "margin": _s(args.margin),
        "frobenius": _sv(frob.vector),
        "membership_guarantee_holds": check.holds,
        "counterexample": (
            None if check.counterexample is None else _sv(check.counterexample)
        ),
        "conductor_covered": covered,
    }
    lines = [
        f"frobenius vector: {_vec_text(frob.vector)}",
        "membership guarantee on the margin box: "
        + ("holds" if check.holds else "VIOLATED"),
    ]
    if check.counterexample is not None:
        lines.append("counterexample: " + _vec_text(check.counterexample))
    if covered is not None:
        lines.append(
            "conductor cover on the margin box: "
            + ("holds" if covered else "VIOLATED")
        )
    _render(document, args.format, lines)
    failed = (not check.holds) or covered is False
    return 4 if failed else 0


# ---------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="JSON input document")
    parser.add_argument(
        "--format",
        choices=("human", "machine"),
        default="human",
        help="output format (machine = JSON with decimal-string integers)",
    )
    parser.add_argument(
        "--budget",
        type=_nonnegative_int,
        default=10**7,
        help="node budget for bounded searches",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affsemi",
        description=(
            "Exact Frobenius vectors, conductors and membership certificates "
            "for affine subsemigroups of N^e."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="chain, conditions, Frobenius vector")
    p.add_argument("generators", nargs="*", help="generator vectors, e.g. 8,0 0,8 2,2")
    p.add_argument(
        "--allow-subset",
        action="store_true",
        help="fall back to the maximal well-behaved subset when a condition fails",
    )
    _add_common(p)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("member", help="semigroup membership of a point")
    p.add_argument("generators", nargs="*")
    p.add_argument("--point", required=True, help="query point, e.g. 10,14")
    _add_common(p)
    p.set_defaults(handler=cmd_member)

    p = sub.add_parser("dioph", help="nonnegative integer solve of A.X = B")
    p.add_argument("generators", nargs="*")
    p.add_argument("--target", required=True, help="right-hand side B")
    _add_common(p)
    p.set_defaults(handler=cmd_dioph)

    p = sub.add_parser("curve", help="plane-branch semigroup from exponents")
    p.add_argument("values", nargs="*", help="multiplicity followed by exponents")
    _add_common(p)
    p.set_defaults(handler=cmd_curve)

    p = sub.add_parser("quasi", help="quasi-ordinary semigroup from exponents")
    p.add_argument("exponents", nargs="*", help="exponent vectors, e.g. 2,2 3,3")
    p.add_argument("--n", help="multiplicity")
    _add_common(p)
    p.set_defaults(handler=cmd_quasi)

    p = sub.add_parser("verify", help="finite-box verification sweeps")
    p.add_argument("generators", nargs="*")
    p.add_argument(
        "--margin", type=_nonnegative_int, default=3, help="box size multiplier"
    )
    _add_common(p)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # Lift the 4300-digit cap on int <-> str so values of any size
        # survive parsing and rendering.
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConditionsUnmetError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    except SearchBudgetExceededError as error:
        print(f"error: {error}; raise --budget to decide", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception as error:
        print(
            f"error: internal error: {type(error).__name__}: {error}",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
