"""The four benchmark workloads: inputs, one op, and the output checks.

An op is one input analysed end to end (``analyze_cone``,
``analyze_numerical``), one query against a prepared system (``query``) or
one fresh CLI process (``cli_cold``).  The analyze ops call ``cli.main``
in-process with ``--format machine``, which is exactly what ``affsemi
analyze`` / ``quasi`` / ``curve`` do, without the process start.

Checks run after the timed loop and compare every op's output with the
independent ``affsemi.oracle`` sweeps and with closed forms computed by
the benchmark itself (``inputs``).  A check returns a list of problems;
an empty list is a pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import zlib
from collections import Counter
from pathlib import Path

import inputs as gen

#: Margin of the oracle's finite-box sweeps in the analyze_cone checks.
VERIFY_MARGIN = 2

#: Node budget of the bounded search in query Diophantine calls, so a
#: below-g target costs at most a bounded search plus the sign criterion.
QUERY_BUDGET = 5_000


def run_in_process(argv):
    import affsemi.cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = affsemi.cli.main(argv)
    return code, buffer.getvalue()


def _ints(vector):
    return tuple(int(x) for x in vector)


def _combination(gens, coefficients):
    e = len(gens[0])
    return tuple(sum(c * g[j] for c, g in zip(coefficients, gens)) for j in range(e))


def _summary(values):
    values = sorted(values)
    return {"min": values[0], "median": values[len(values) // 2], "max": values[-1]}


def system_traffic(gens):
    """Dimension, size of the chain and of the Frobenius vector, and the
    bounding box the conductor enumeration scans (0 when it does not run)."""
    e = len(gens[0])
    gcds = gen.chain_gcds(gens, e)
    g = gen.closed_form(gens, e, gcds)
    return {
        "dimension": e,
        "generators": len(gens),
        "index_product": gcds[0] // gcds[-1],
        "abs_det": abs(gcds[0]),
        "frobenius_magnitude": max(abs(x) for x in g),
        "conductor_box": gen.box_points(gens[:e]) if e > 1 and gcds[-1] == 1 else 0,
    }


def traffic_summary(records):
    return {key: _summary([r[key] for r in records]) for key in records[0]}


# ---------------------------------------------------------------------------


class Workload:
    """Defaults: nothing to prepare, outputs kept as returned, checked one
    op at a time."""

    def prepare(self):
        return None

    def keep(self, result):
        return result

    def check_all(self, state, ops, kept):
        return [self.check(state, op, k) for op, k in zip(ops, kept)]

    def traffic(self, ops):
        return traffic_summary([system_traffic(op["gens"]) for op in ops])


class InProcessCli(Workload):
    """Ops that run ``cli.main`` in-process; outputs are kept compressed
    until the checks, so the run's own memory stays small."""

    def run(self, state, op):
        return run_in_process(op["argv"])

    def keep(self, result):
        code, out = result
        return code, zlib.compress(out.encode(), 1)

    @staticmethod
    def document(kept):
        code, packed = kept
        return code, json.loads(zlib.decompress(packed))


class AnalyzeCone(InProcessCli):
    """Fresh e=2/e=3 systems (``analyze``) and quasi-ordinary exponent data
    (``quasi``): chain, conditions, closed form with re-check, conductor."""

    def makers(self, rng):
        def cone(e, size, extra_max):
            def make(rng):
                gens = gen.cone_system(rng, e, size, extra_max)
                return {"kind": "cone", "e": e, "gens": gens,
                        "argv": ["analyze"] + [gen.vec_arg(v) for v in gens]
                        + ["--format", "machine"]}
            return make

        def quasi(e, choices, two_step):
            def make(rng):
                n, m = gen.qo_exponents(rng, e, choices, two_step)
                return {"kind": "quasi", "e": e, "n": n, "m": m,
                        "gens": gen.qo_system(e, n, m),
                        "argv": ["quasi", "--n", str(n)] + [gen.vec_arg(v) for v in m]
                        + ["--format", "machine"]}
            return make

        # One block, cheapest first.  The median op falls in the tripled
        # middle stratum (e=2, size 9) and the tail in the doubled top one,
        # so both stay inside one narrow stratum from seed to seed.
        return [
            quasi(2, (4, 6, 8, 9, 10, 12), True),
            quasi(3, (2, 3, 4), False),
            cone(2, 5, 3),
            cone(3, 3, 2),
            cone(2, 9, 3),
            cone(2, 9, 3),
            cone(2, 9, 3),
            cone(2, 11, 3),
            cone(2, 13, 3),
            cone(2, 15, 3),
            cone(2, 15, 3),
        ]

    def check(self, state, op, kept):
        import affsemi
        from affsemi import oracle

        code, doc = self.document(kept)
        if code != 0:
            return [f"exit code {code}"]
        e, gens = op["e"], [tuple(v) for v in op["gens"]]
        gcds = gen.chain_gcds(gens, e)
        expected = gen.closed_form(gens, e, gcds)
        problems = []
        if op["kind"] == "cone":
            vector = _ints(doc["frobenius"]["vector"])
            conductor = [_ints(c) for c in doc["conductor"] or ()]
        else:
            vector = _ints(doc["frobenius"])
            conductor = None
            if [_ints(v) for v in doc["generators"]] != gens:
                problems.append("derived generators differ from the recursion")
        if vector != expected:
            problems.append(f"frobenius vector {vector} != closed form {expected}")
            return problems
        system = affsemi.GeneratorSystem.from_vectors(gens)
        chain = affsemi.build_chain(system)
        if not oracle.verify_theorem1(system, chain, vector, VERIFY_MARGIN).holds:
            problems.append("verify_theorem1 found a counterexample")
        if op["kind"] == "cone":
            if not conductor:
                problems.append("conductor missing on a full lattice")
            elif not oracle.verify_conductor(system, chain, conductor, VERIFY_MARGIN):
                problems.append("verify_conductor failed")
        return problems


class AnalyzeNumerical(InProcessCli):
    """Fresh numerical semigroups (``analyze``, with gap lists), pairs
    (p, p + 2) whose gap sieve would pass the CLI's limit, and plane-branch
    exponent data (``curve``)."""

    def makers(self, rng):
        def numerical(make_values):
            def make(rng):
                values = make_values(rng)
                return {"kind": "numerical", "values": values,
                        "argv": ["analyze"] + [str(v) for v in values]
                        + ["--format", "machine"]}
            return make

        def large(p_lo, p_hi):
            def make(rng):
                values = gen.large_pair(rng, p_lo, p_hi)
                return {"kind": "large", "values": values,
                        "argv": ["analyze"] + [str(v) for v in values]
                        + ["--format", "machine"]}
            return make

        def curve(steps, m1_lo, m1_hi, lo, hi):
            def make(rng):
                n, m = gen.curve_exponents(rng, steps, m1_lo, m1_hi, lo, hi)
                return {"kind": "curve", "n": n, "m": m,
                        "values": gen.curve_generators(n, m),
                        "argv": ["curve", str(n)] + [str(x) for x in m]
                        + ["--format", "machine"]}
            return make

        # One block, cheapest first; the Frobenius number (or the index, for
        # the pairs past the sieve limit) of each stratum varies by a few
        # percent only.  The median op falls in the tripled middle stratum.
        return [
            numerical(lambda rng: gen.telescopic(rng, 3, 60, 90, 100, 12_000, 13_000)),
            numerical(lambda rng: gen.coprime_pair(rng, 25_000, 27_000)),
            large(4001, 4201),
            numerical(lambda rng: gen.telescopic(rng, 2, 100, 160, 250, 30_000, 33_000)),
            numerical(lambda rng: gen.coprime_pair(rng, 40_000, 42_000)),
            numerical(lambda rng: gen.coprime_pair(rng, 40_000, 42_000)),
            numerical(lambda rng: gen.coprime_pair(rng, 40_000, 42_000)),
            numerical(lambda rng: gen.coprime_pair(rng, 60_000, 64_000)),
            curve(2, 2_000, 12_000, 40_000, 43_000),
            curve(3, 500, 3_000, 30_000, 32_000),
            large(14001, 14401),
        ]

    def traffic(self, ops):
        return traffic_summary([system_traffic([(v,) for v in op["values"]]) for op in ops])

    def check(self, state, op, kept):
        from affsemi import oracle

        code, doc = self.document(kept)
        if code != 0:
            return [f"exit code {code}"]
        values = op["values"]
        frobenius = gen.frobenius_1d(values)
        problems = []
        if op["kind"] == "curve":
            if [int(x) for x in doc["generators"]] != values:
                problems.append("branch generators differ from the recursion")
            if int(doc["conductor"]) != frobenius + 1:
                problems.append("conductor differs from the Apery table")
            if int(doc["gap_count"]) * 2 != int(doc["conductor"]):
                problems.append("gap count is not half the conductor")
        else:
            if op["kind"] == "large":
                p, q = values
                frobenius = p * q - p - q
            if int(doc["frobenius"]["vector"][0]) != frobenius:
                problems.append("frobenius number differs")
            if op["kind"] == "large":
                if doc["gaps"] is not None:
                    problems.append("gap list present past the sieve limit")
                return problems
        gaps = [int(x) for x in doc["gaps"]]
        if tuple(gaps) != oracle.numerical_gaps_dp(values):
            problems.append("gap list differs from numerical_gaps_dp")
        if int(doc["gap_count"]) != len(gaps) or max(gaps, default=-1) != frobenius:
            problems.append("gap count or largest gap inconsistent")
        return problems


class Query(Workload):
    """Four prepared systems answer a stream of ``membership_fast`` and
    ``diophantine_solve`` queries; per system and block, six membership
    points in [0, 2g], two Diophantine targets beyond g and one below.

    The systems: a pair (p, p + 2) with index p ~ 2500; a three-generator
    numerical semigroup with indices 3 and ~500; a planar system with index
    ~1000 whose chain ends at covolume 2 (no conductor); and a planar
    system spanning Z^2 with index 255, whose conductor set is enumerated
    in set-up."""

    def make_systems(self, rng):
        return [
            [(v,) for v in gen.large_pair(rng, 2481, 2521)],
            [(v,) for v in gen.telescopic(rng, 2, 490, 510, 1000, 300_000, 1_000_000, (3,))],
            gen.covolume_system(rng, 44, 48, 2),
            gen.cone_system(rng, 2, 16, 3, extra=(1, 2)),
        ]

    def makers(self, rng):
        systems = self.make_systems(rng)
        frobenius = []
        for gens in systems:
            e = len(gens[0])
            frobenius.append(gen.closed_form(gens, e, gen.chain_gcds(gens, e)))

        def member(s):
            def make(rng):
                g = frobenius[s]
                point = tuple(rng.randint(0, 2 * x) for x in g)
                return {"kind": "member", "system": s, "point": point}
            return make

        def dioph(s, beyond):
            def make(rng):
                g = frobenius[s]
                leading = systems[s][: len(g)]
                while True:
                    if beyond:
                        target = tuple(x + rng.randint(1, x) for x in g)
                    else:
                        target = tuple(rng.randint(0, x) for x in g)
                    shift = tuple(t - x for t, x in zip(target, g))
                    if (min(gen.cone_numerators(leading, shift)) > 0) == beyond:
                        return {"kind": "dioph", "system": s, "point": target,
                                "beyond": beyond}
            return make

        makers = []
        for s in range(len(systems)):
            makers += [member(s)] * 6 + [dioph(s, True)] * 2 + [dioph(s, False)]
        self.systems, self.frobenius = systems, frobenius
        return makers

    def prepare(self):
        import affsemi

        prepared = []
        for gens in self.systems:
            system = affsemi.GeneratorSystem.from_vectors(gens)
            chain = affsemi.build_chain(system)
            report = affsemi.validate_conditions(system, chain)
            frob = affsemi.frobenius_vector(system, chain, report)
            prepared.append((system, chain, report, frob))
        return prepared

    def run(self, state, op):
        import affsemi

        system, chain, report, _ = state[op["system"]]
        if op["kind"] == "member":
            return affsemi.membership_fast(system, chain, op["point"], report)
        return affsemi.diophantine_solve(system, op["point"], QUERY_BUDGET)

    def traffic(self, ops):
        dioph = [op for op in ops if op["kind"] == "dioph"]
        return {
            "systems": [system_traffic(gens) for gens in self.systems],
            "dioph_share": len(dioph) / len(ops),
            "dioph_beyond_g_share": sum(op["beyond"] for op in dioph) / max(len(dioph), 1),
        }

    def check_all(self, state, ops, kept):
        """Checks grouped by system, so each needs one reachable grid."""
        from affsemi import oracle

        problems = {}
        for s, (system, _, _, frob) in enumerate(state):
            mine = [i for i, op in enumerate(ops) if op["system"] == s]
            if not mine:
                continue
            if _ints(frob.vector) != self.frobenius[s]:
                for i in mine:
                    problems[i] = ["prepared frobenius vector differs"]
                continue
            gens = self.systems[s]
            upper = tuple(
                max(ops[i]["point"][j] for i in mine) for j in range(len(gens[0]))
            )
            grid = oracle.reachable_grid(system, upper)
            for i in mine:
                problems[i] = self._check_one(gens, grid, ops[i], kept[i])
        return [problems[i] for i in range(len(ops))]

    @staticmethod
    def _check_one(gens, grid, op, result):
        point = op["point"]
        member = bool(grid[point])
        if op["kind"] == "member":
            if result.in_semigroup != member:
                return [f"membership verdict wrong at {point}"]
            if member and _combination(gens, result.representation.coefficients) != point:
                return [f"representation does not sum to {point}"]
            return []
        solvable = result.status in ("solvable_by_cone", "solvable_with_witness")
        if solvable != member:
            return [f"diophantine status {result.status} wrong at {point}"]
        if solvable:
            witness = result.witness
            if min(witness) < 0 or _combination(gens, witness) != point:
                return [f"witness invalid at {point}"]
        return []


class CliCold(Workload):
    """One fresh ``python -m affsemi.cli`` process per op, one at a time,
    across all six subcommands on inputs the size of the test fixtures,
    half in machine and half in human format."""

    def __init__(self, root, env, out_dir):
        self.root, self.env, self.out_dir = root, env, out_dir
        self.tracer = None

    def makers(self, rng):
        def small_system(rng):
            if rng.random() < 0.5:
                return gen.cone_system(rng, 2, rng.choice((3, 4, 5)), 3)
            return [(v,) for v in gen.telescopic(rng, 2, 2, 6, 20, 1, 400)]

        def args(gens):
            return [gen.vec_arg(v) for v in gens]

        def frobenius_of(gens):
            e = len(gens[0])
            return gen.closed_form(gens, e, gen.chain_gcds(gens, e))

        def analyze(rng):
            return ["analyze"] + args(small_system(rng))

        def member(rng):
            gens = small_system(rng)
            point = tuple(rng.randint(0, 2 * max(x, 1)) for x in frobenius_of(gens))
            return ["member"] + args(gens) + ["--point", gen.vec_arg(point)]

        def dioph(rng):
            gens = small_system(rng)
            target = tuple(rng.randint(0, 2 * max(x, 1)) for x in frobenius_of(gens))
            return ["dioph"] + args(gens) + ["--target", gen.vec_arg(target)]

        def curve(rng):
            n, m = gen.curve_exponents(rng, 2, 20, 80, 1, 10**9)
            return ["curve", str(n)] + [str(x) for x in m]

        def quasi(rng):
            n, m = gen.qo_exponents(rng, 2, (4, 6, 8, 9), True)
            return ["quasi", "--n", str(n)] + [gen.vec_arg(v) for v in m]

        def verify(rng):
            return ["verify"] + args(gen.cone_system(rng, 2, rng.choice((3, 4)), 2))

        def with_format(make):
            def make_op(rng):
                argv = make(rng)
                fmt = "machine" if rng.random() < 0.5 else "human"
                return {"kind": argv[0], "argv": argv + ["--format", fmt]}
            return make_op

        return [with_format(make) for make in
                (analyze, member, dioph, curve, quasi, verify)]

    def command(self, op):
        if self.tracer is None:
            return [sys.executable, "-m", "affsemi.cli", *op["argv"]], None
        spans = self.out_dir / f"child-{self.tracer.op}.json"
        script = Path(__file__).with_name("cli_child.py")
        return [sys.executable, str(script), str(spans), *op["argv"]], spans

    def run(self, state, op):
        argv, spans = self.command(op)
        done = subprocess.run(
            argv, cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=120,
        )
        if spans is not None:
            recorded = json.loads(spans.read_text())
            spans.unlink()
            self.tracer.merge(recorded["spans"], recorded["counts"], self.tracer.op)
        return done.returncode, done.stdout, done.stderr

    def traffic(self, ops):
        return {"subcommands": dict(Counter(op["kind"] for op in ops))}

    def check(self, state, op, kept):
        code, out, err = kept
        if code != 0:
            return [f"exit code {code}: {err.strip()[-200:]}"]
        ref_code, ref_out = run_in_process(op["argv"])
        if (ref_code, ref_out) != (code, out):
            return ["fresh-process output differs from in-process cli.main"]
        return []
