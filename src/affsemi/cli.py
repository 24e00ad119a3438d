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
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterator, Optional, Sequence

from .errors import ConditionsUnmetError, SearchBudgetExceededError
from .exactlinalg import Vector
from .frobenius import (
    CONDITIONS_UNMET,
    DEFAULT_SEARCH_BUDGET,
    FrobeniusReport,
    _prepared,
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
)


#: Skip gap enumeration in analysis documents beyond this many integers.
GAP_LIST_LIMIT = 10**7


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


def _load_document(path: str, *required: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError("input document must be a JSON object")
    for key in required:
        if key not in document:
            raise ValueError(f"input document is missing {key!r}")
        if key in ("generators", "m") and not isinstance(document[key], list):
            raise ValueError(f"input document {key!r} must be a list")
    return document


def _system_from_args(args) -> GeneratorSystem:
    if args.input:
        document = _load_document(args.input, "generators")
        generators = [_parse_vector(v) for v in document["generators"]]
        if "e" in document:
            return GeneratorSystem(_parse_int(document["e"]), tuple(generators))
    elif args.generators:
        generators = [_parse_vector(tok) for tok in args.generators]
    else:
        raise ValueError("no generators given (positional tokens or --input)")
    return GeneratorSystem.from_vectors(generators)


# ---------------------------------------------------------------------------
# documents: ints, tuples and None, written only by _machine_text


def _input_echo(system: GeneratorSystem) -> dict:
    return {"e": system.ambient_dim, "generators": system.generators}


def _conditions_block(report: ConditionReport) -> dict:
    return {
        "strict_chain": report.strict_chain,
        "strict_chain_violation": report.strict_chain_violation,
        "scaled_membership": [
            {
                "level": check.level,
                "holds": check.holds,
                "witness": check.witness,
                "undecided": False,
            }
            for check in report.scaled
        ],
    }


def _combination_text(
    generators: Sequence[Sequence[int]], coefficients: Sequence[int]
) -> str:
    terms = []
    for coeff, gen in zip(coefficients, generators):
        if coeff:
            terms.append(f"{coeff}*{_vec_text(gen)}")
    return " + ".join(terms) if terms else "0"


def _vec_text(vector: Sequence[int]) -> str:
    if len(vector) == 1:
        return str(vector[0])
    return "(" + _ints_text(vector, ",") + ")"


def _ints_text(values: Sequence[int], separator: str = " ") -> str:
    return separator.join(map(str, values))


def _machine_text(value, indent: str = "\n") -> str:
    """What ``json.dumps`` prints, with an indent of two spaces, for
    ``value`` with every integer that is not a bool turned into its decimal
    string and every tuple into a list.  Machine documents hold dicts with
    string keys, lists, tuples, integers, strings, booleans and None; this
    is the only place their integers become strings.

    A list of integers is written by one ``%d`` format, which is what keeps
    long gap lists cheap.
    """
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return '"%d"' % value
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return (
            "{" + inner
            + ("," + inner).join([
                _quote(key) + ": " + _machine_text(item, inner)
                for key, item in value.items()
            ])
            + indent + "}"
        )
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # Exact types, so that a bool is never written as a number.
        if {int}.issuperset(map(type, value)):
            items = (('"%d",' + inner) * (len(value) - 1) + '"%d"') % tuple(value)
        else:
            items = ("," + inner).join([_machine_text(item, inner) for item in value])
        return "[" + inner + items + indent + "]"
    raise TypeError(f"{type(value).__name__} has no place in a machine document")


def _render(document: dict, fmt: str, human) -> None:
    """Print the machine document, or the lines of ``human(document)``,
    which is called only for human output."""
    if fmt == "machine":
        print(_machine_text(document))
    else:
        for line in human(document):
            print(line)


# ---------------------------------------------------------------------------
# analyze


def _condition_failure_diagnostics(
    system: GeneratorSystem,
    chain: LatticeChain,
    report: ConditionReport,
    budget: int,
) -> list[str]:
    """Notes on why the conditions fail.  The search for a witness that the
    closed-form value is a member visits at most min(budget, 500 000)
    nodes."""
    naive = frobenius_formula(system, chain)
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
        notes.append(
            f"scaled-membership condition fails at level {k}: "
            f"{index}*{_vec_text(gen)} = {_vec_text(target)} is not a "
            f"nonnegative combination of {predecessors}"
        )
    notes.append(
        f"the closed-form value {_vec_text(naive)} is not a valid Frobenius "
        "vector here"
    )
    if all(x >= 0 for x in naive):
        try:
            witness = membership_bruteforce(
                system.generators, naive, min(budget, 500_000)
            )
        except SearchBudgetExceededError:
            witness = None
        if witness is not None:
            notes.append(
                f"indeed {_vec_text(naive)} = "
                f"{_combination_text(system.generators, witness)} lies in the semigroup"
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
        "chain": {"minor_gcds": chain.minor_gcds, "indices": chain.indices},
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
        "vector": frobenius_report.vector,
        "threshold_only": frobenius_report.threshold_only,
        "used_subset": frobenius_report.used_subset,
        # frobenius_vector and frobenius_subset raise unless their re-check
        # finds the vector in the group and outside the semigroup.
        "vector_in_group": True,
        "vector_in_semigroup": False,
    }
    document["conductor"] = frobenius_report.conductor
    if system.ambient_dim == 1 and chain.minor_gcds[-1] == 1:
        values = [v[0] for v in system.generators]
        gap_span = (
            frobenius_report.vector[0] + 1
            if not frobenius_report.threshold_only
            else min(values) * max(values)
        )
        if gap_span > GAP_LIST_LIMIT:
            diagnostics.append(
                "gap enumeration skipped: the conductor region has about "
                f"{gap_span} integers"
            )
            return document
        gap_list = gaps(system, chain)
        document["gaps"] = gap_list
        document["gap_count"] = len(gap_list)
        if frobenius_report.threshold_only:
            # The gap list pins the exact Frobenius number and conductor
            # even when the closed form only gives a threshold.
            frobenius_number = gap_list[-1] if gap_list else -1
            document["true_frobenius_number"] = frobenius_number
            document["conductor"] = ((frobenius_number + 1,),)
            diagnostics.append(
                f"the gap list gives the exact frobenius number {frobenius_number}"
            )
    return document


def _human_analyze(document: dict) -> Iterator[str]:
    gens = document["input"]["generators"]
    yield "generators: " + " ".join(_vec_text(v) for v in gens)
    yield "minor gcds: " + _ints_text(document["chain"]["minor_gcds"])
    if document["chain"]["indices"]:
        yield "indices:    " + _ints_text(document["chain"]["indices"])
    conditions = document["conditions"]
    ok = conditions["strict_chain"] and all(
        c["holds"] for c in conditions["scaled_membership"]
    )
    yield "conditions: " + ("satisfied" if ok else "NOT satisfied")
    frob = document.get("frobenius")
    if frob is not None:
        label = "threshold vector" if frob["threshold_only"] else "frobenius vector"
        yield f"{label}: {_vec_text(frob['vector'])}"
        if frob["threshold_only"]:
            kept = _ints_text(frob["used_subset"], ", ")
            yield (
                f"  (upper threshold from extra generators [{kept}]; "
                "need not be minimal)"
            )
    if document.get("conductor") is not None:
        yield "conductor: " + " ".join(_vec_text(c) for c in document["conductor"])
    if document.get("gaps") is not None:
        yield f"gaps ({document['gap_count']}): " + _ints_text(document["gaps"])
    if document.get("true_frobenius_number") is not None:
        yield f"true frobenius number: {document['true_frobenius_number']}"
    for note in document["diagnostics"]:
        yield "note: " + note


def cmd_analyze(args) -> int:
    return _analysis(_system_from_args(args), args, args.allow_subset)


def _analysis(system: GeneratorSystem, args, allow_subset: bool) -> int:
    """Print the analysis document and return the exit code.  Without the
    subset fallback, the document of a system whose conditions fail is also
    the ``conditions_unmet`` document of ``verify``."""
    # validate_conditions decides by the sign criterion; the document also
    # prints the witnesses its search finds.
    chain = build_chain(system)
    report = validate_conditions(system, chain, args.budget)
    frob, diagnostics = None, []
    if report.all_hold:
        frob = frobenius_vector(system, chain, report)
    else:
        diagnostics = _condition_failure_diagnostics(system, chain, report, args.budget)
    if frob is None and allow_subset:
        try:
            frob = frobenius_subset(system, chain)
        except ConditionsUnmetError:
            diagnostics.append(
                "subset fallback failed: the filtered generators still miss the "
                "scaled-membership condition"
            )
        else:
            # The full system fails, so the subset dropped something.
            kept = _ints_text(frob.used_subset, ", ")
            diagnostics.append(
                f"closed form applied to the subset keeping extra generators "
                f"[{kept}]; the vector is an upper threshold only and need not "
                "be minimal"
            )
    error = None if frob else "conditions_unmet"
    document = _analysis_document(system, chain, report, frob, diagnostics, error)
    _render(document, args.format, _human_analyze)
    return 3 if error else 0


# ---------------------------------------------------------------------------
# member


def cmd_member(args) -> int:
    system = _system_from_args(args)
    point = _parse_vector(args.point)
    chain, report, g = _prepared(system)
    diagnostics: list[str] = []
    if report.all_hold:
        result = membership_fast(system, chain, point, report)
        method = "fast"
        representation = result.representation
        in_group = result.in_group
        in_semigroup = result.in_semigroup
        witness = representation.coefficients if in_semigroup else None
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
        representation = standard_representation(chain, point)
        in_group = representation is not None
        witness = membership_bruteforce(system.generators, point, args.budget)
        in_semigroup = witness is not None
    document = {
        "input": _input_echo(system),
        "point": point,
        "in_group": in_group,
        "in_semigroup": in_semigroup,
        "method": method,
        "representation": (
            None if representation is None else representation.coefficients
        ),
        "witness": witness,
        "diagnostics": diagnostics,
    }
    _render(document, args.format, _human_member)
    return 0


def _human_member(document: dict) -> Iterator[str]:
    generators = document["input"]["generators"]
    yield (
        f"point {_vec_text(document['point'])}: "
        + ("member" if document["in_semigroup"] else "NOT a member")
        + f" of the semigroup (method: {document['method']})"
    )
    yield "in group: " + ("yes" if document["in_group"] else "no")
    if document["representation"] is not None:
        yield "standard representation: " + _combination_text(
            generators, document["representation"]
        )
    if document["witness"] is not None:
        yield "witness: " + _combination_text(generators, document["witness"])
    for note in document["diagnostics"]:
        yield "note: " + note


# ---------------------------------------------------------------------------
# dioph


def cmd_dioph(args) -> int:
    system = _system_from_args(args)
    target = _parse_vector(args.target)
    answer = diophantine_solve(system, target, args.budget)
    document = {
        "input": _input_echo(system),
        "target": target,
        "status": answer.status,
        "witness": answer.witness,
    }
    _render(document, args.format, _human_dioph)
    return 3 if answer.status == CONDITIONS_UNMET else 0


def _human_dioph(document: dict) -> Iterator[str]:
    yield f"target {_vec_text(document['target'])}: {document['status']}"
    if document["witness"] is not None:
        yield "witness: " + _combination_text(
            document["input"]["generators"], document["witness"]
        )


# ---------------------------------------------------------------------------
# curve / quasi


def cmd_curve(args) -> int:
    if args.input:
        document = _load_document(args.input, "n", "m")
    elif len(args.values) < 2:
        raise ValueError("curve needs the multiplicity followed by exponents")
    else:
        document = {"n": args.values[0], "m": args.values[1:]}
    n = _parse_int(document["n"])
    m = [_parse_int(x) for x in document["m"]]
    data = curve_semigroup(CurveExponents(n, tuple(m)))
    gap_list = (
        numerical_gaps(data.generators)
        if data.conductor <= GAP_LIST_LIMIT
        else None
    )
    document = {
        "input": {"n": n, "m": m},
        "generators": data.generators,
        "gcd_chain": data.gcd_chain,
        "indices": data.indices,
        "conductor": data.conductor,
        "milnor": data.milnor,
        "gap_count": data.gap_count,
        "gaps": gap_list,
        # r_k = n_{k-1} r_{k-1} + m_k - m_{k-1} > n_{k-1} r_{k-1}: always valid.
        "zariski_valid": True,
    }
    _render(document, args.format, _human_curve)
    return 0


def _human_curve(document: dict) -> Iterator[str]:
    yield f"multiplicity {document['input']['n']}, exponents " + _ints_text(
        document["input"]["m"]
    )
    yield "generators: " + _ints_text(document["generators"])
    yield "gcd chain:  " + _ints_text(document["gcd_chain"])
    yield "indices:    " + _ints_text(document["indices"])
    yield (
        f"conductor: {document['conductor']}   milnor: {document['milnor']}   "
        f"gaps: {document['gap_count']}"
    )
    if document["gaps"] is not None:
        yield "gap list: " + _ints_text(document["gaps"])


def cmd_quasi(args) -> int:
    if args.input:
        document = _load_document(args.input, "n", "m")
    else:
        document = {"n": args.n, "m": args.exponents}
    if document["n"] is None or not document["m"]:
        raise ValueError("quasi needs --n and at least one exponent vector")
    n = _parse_int(document["n"])
    m = [_parse_vector(v) for v in document["m"]]
    dim = _parse_int(document["e"]) if "e" in document else len(m[0])
    data = qo_semigroup(QOExponents(dim, n, tuple(m)))
    document = {
        "input": {"e": dim, "n": n, "m": m},
        "generators": data.generators,
        "derived": data.derived,
        "minor_gcds": data.minor_gcds,
        "indices": data.indices,
        "frobenius": data.vector,
        "conductor": data.report.conductor,
    }
    _render(document, args.format, _human_quasi)
    return 0


def _human_quasi(document: dict) -> Iterator[str]:
    given = document["input"]
    yield f"dimension {given['e']}, multiplicity {given['n']}, exponents " + " ".join(
        _vec_text(v) for v in given["m"]
    )
    yield "generators: " + " ".join(_vec_text(v) for v in document["generators"])
    yield "minor gcds: " + _ints_text(document["minor_gcds"])
    yield "indices:    " + _ints_text(document["indices"])
    yield "frobenius vector: " + _vec_text(document["frobenius"])
    if document["conductor"] is not None:
        yield "conductor: " + " ".join(_vec_text(c) for c in document["conductor"])


# ---------------------------------------------------------------------------
# verify


def verify_theorem1(*args, **kwargs):
    """``oracle.verify_theorem1``, imported on first call: the oracle loads
    numpy, which no other subcommand needs."""
    from . import oracle

    return oracle.verify_theorem1(*args, **kwargs)


def verify_conductor(*args, **kwargs):
    """``oracle.verify_conductor``, imported on first call."""
    from . import oracle

    return oracle.verify_conductor(*args, **kwargs)


def cmd_verify(args) -> int:
    """Sweep finite boxes beyond g.  The conditions are decided without
    search; only their failure document searches, under ``--budget``, for
    the witnesses it prints.  The theorem box is checked before the
    conductor is enumerated, so an oversize box is refused at once."""
    system = _system_from_args(args)
    chain, report, g = _prepared(system)
    if not report.all_hold:
        return _analysis(system, args, allow_subset=False)
    check = verify_theorem1(system, chain, g, args.margin)
    frob = frobenius_vector(system, chain, report)
    covered = None
    if frob.conductor is not None:
        covered = verify_conductor(system, chain, frob.conductor, args.margin)
    document = {
        "input": _input_echo(system),
        "margin": args.margin,
        "frobenius": frob.vector,
        "membership_guarantee_holds": check.holds,
        "counterexample": check.counterexample,
        "conductor_covered": covered,
    }
    _render(document, args.format, _human_verify)
    failed = (not check.holds) or covered is False
    return 4 if failed else 0


def _human_verify(document: dict) -> Iterator[str]:
    yield f"frobenius vector: {_vec_text(document['frobenius'])}"
    yield "membership guarantee on the margin box: " + (
        "holds" if document["membership_guarantee_holds"] else "VIOLATED"
    )
    if document["counterexample"] is not None:
        yield "counterexample: " + _vec_text(document["counterexample"])
    if document["conductor_covered"] is not None:
        yield "conductor cover on the margin box: " + (
            "holds" if document["conductor_covered"] else "VIOLATED"
        )


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
        default=DEFAULT_SEARCH_BUDGET,
        help="node budget for bounded searches",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call; callers must not modify it."""
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

    p = sub.add_parser("member", help="semigroup membership of a point")
    p.add_argument("generators", nargs="*")
    p.add_argument("--point", required=True, help="query point, e.g. 10,14")
    _add_common(p)

    p = sub.add_parser("dioph", help="nonnegative integer solve of A.X = B")
    p.add_argument("generators", nargs="*")
    p.add_argument("--target", required=True, help="right-hand side B")
    _add_common(p)

    p = sub.add_parser("curve", help="plane-branch semigroup from exponents")
    p.add_argument("values", nargs="*", help="multiplicity followed by exponents")
    _add_common(p)

    p = sub.add_parser("quasi", help="quasi-ordinary semigroup from exponents")
    p.add_argument("exponents", nargs="*", help="exponent vectors, e.g. 2,2 3,3")
    p.add_argument("--n", help="multiplicity")
    _add_common(p)

    p = sub.add_parser("verify", help="finite-box verification sweeps")
    p.add_argument("generators", nargs="*")
    p.add_argument(
        "--margin", type=_nonnegative_int, default=3, help="box size multiplier"
    )
    _add_common(p)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    # Lift the 4300-digit cap on int <-> str so values of any size survive
    # parsing and rendering, and restore it for the caller.
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(cap)


def _main(argv: Optional[Sequence[str]]) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Looked up per call, so a rebound cmd_<command> takes effect.
        return globals()[f"cmd_{args.command}"](args)
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
