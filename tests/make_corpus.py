"""Regenerate the CLI behaviour corpus, ``tests/fixtures/corpus.jsonl``.

Each line is one literal argv run through ``affsemi.cli.main`` in-process,
with its exit code, stdout and stderr.  An output longer than
``INLINE_LIMIT`` characters is stored as its sha256 instead.
``tests/test_corpus.py`` replays every entry and lists those that differ.

Run from the repository root:

    PYTHONPATH=src python tests/make_corpus.py

The script rewrites the whole file and prints the argv of every entry whose
recorded behaviour changed; each such entry is a behaviour change to
explain.  The argv list below is literal, so no change to a random
generator can move it.  Every entry runs in well under a second, except
the ``analyze`` entries of the e = 4 ``SLOW`` system, which filter its
whole fundamental parallelepiped by the skyline.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

CORPUS = Path(__file__).parent / "fixtures" / "corpus.jsonl"

#: Outputs longer than this many characters are stored as a sha256.
INLINE_LIMIT = 2000

BUDGETS = (None, "0", "3", "50")

#: Systems with both chain conditions, and query points below g, beyond
#: g, on a boundary cell g + v_1 of the cone, and outside the group.
CONDITIONED = {
    "4 6 7": ["5", "8", "9", "17"],
    "6 10 15": ["14", "29", "30"],
    "5 7": ["13", "23", "24"],
    "8,0 0,8 2,2 12,8": ["10,14", "24,16", "18,6", "3,1"],
    "4,6 6,3 8,10 3,4": ["5,5", "3,4", "43,59", "49,62"],
    "1,3 3,2 1,1": ["1,0", "2,1", "3,4", "6,6"],
    "3,1,1 4,1,0 1,4,4 4,3,3": ["1,1,1", "8,2,0", "35,25,26", "40,30,30"],
    "4,0,4 1,3,3 4,2,4 1,0,1 2,2,3": ["1,0,1", "2,2,2", "4,1,5", "9,6,12"],
    "4,0,2 0,3,0 2,4,4 4,1,2 4,3,3": ["5,5,5", "4,1,2", "26,10,15", "28,17,19"],
    "2,3,3,3 4,4,3,0 0,1,2,1 1,3,3,0 1,2,2,1 2,4,4,1": [
        "1,2,2,1", "3,3,3,3", "7,16,16,6", "12,24,24,7",
    ],
    "3,0,0,1 1,3,0,0 0,1,3,0 0,0,1,3 1,1,1,1": [
        "0,0,0,0", "1,1,1,1", "2,2,2,2", "3,3,3,3",
    ],
}

#: Conditioned systems whose witness searches at the default budget took
#: seconds: only the small budgets are recorded.  The e = 4 conductor takes
#: seconds to enumerate, so its ``analyze`` entries are slow at any budget.
SLOW = {
    "40,1,0 0,40,1 1,0,40 1,1,2": ["5,5,5", "64000,64000,128000"],
    "10,0,0,1 1,10,0,0 0,1,10,0 0,0,1,10 2,1,1,1": ["5,5,5,5", "20000,10000,10000,10000"],
}

#: ``SLOW`` systems whose ``analyze`` is also recorded at the default
#: budget, in both formats.
SLOW_DEFAULT_BUDGET = ["40,1,0 0,40,1 1,0,40 1,1,2"]

#: Systems where a chain condition fails.
UNCONDITIONED = {
    "4 6 7 9": ["5", "9", "17"],
    "8 10 11": ["9", "30", "33"],
    "5,0 0,5 1,2 3,1": ["1,1", "2,4", "4,3"],
    "3,0 0,3 1,1 2,2": ["1,2", "2,2", "4,4"],
}

#: Systems with levels above the first failing one, analysed and verified
#: at the default budget.
BEYOND_FAILURE = ["8 10 11 13", "4 6 7 9 11", "5,0 0,5 1,2 3,1 2,2"]

#: Systems whose subset fallback drops a generator from a conditioned
#: system with a large conductor, analysed with ``--allow-subset`` at
#: budget 0.
SUBSET_FALLBACK = ["40,1,0 0,40,1 1,0,40 1,1,2 2,2,4"]

CURVES = ["4 6 7", "6 9 13", "8 12 14 15", "2 3", "1000000000 1000000001", "4 6 8"]

QUASI = [
    "--n 2 1,1", "--n 4 2,2 3,3", "--n 2 3,1", "--n 2 3,5", "--n 3 4,5,6",
    "--n 4 6 7", "--n 3 1000000000000000000,0", "--n 4 2,2 6,2", "--n 2 3,3 4,4",
]

#: Outputs long enough to be stored as a sha256 (5100 gaps).
LONG = [["analyze", "101", "103"]]

#: Invalid input, exit 2.
ERRORS = [
    ["analyze"],
    ["analyze", "4", "x"],
    ["member", "4", "6", "7", "--point", "1,2"],
    ["dioph", "4", "6", "7", "--target", "-1"],
]


def _variants(argv, budgets=BUDGETS, human_budgets=(None, "0")):
    """Machine output at every budget, human output at ``human_budgets``."""
    for budget in budgets:
        tail = [] if budget is None else ["--budget", budget]
        yield argv + tail + ["--format", "machine"]
        if budget in human_budgets:
            yield argv + tail


def argvs():
    systems = {**CONDITIONED, **UNCONDITIONED}
    small = ("0", "3", "50")
    for text, points in systems.items():
        gens = text.split()
        yield from _variants(["analyze"] + gens)
        yield from _variants(["analyze"] + gens + ["--allow-subset"], (None, "3"))
        for point in points:
            yield from _variants(["member"] + gens + ["--point", point])
            yield from _variants(["dioph"] + gens + ["--target", point])
    for text, points in SLOW.items():
        gens = text.split()
        yield from _variants(["analyze"] + gens, small, ("0",))
        for point in points:
            yield from _variants(["member"] + gens + ["--point", point], small, ("0",))
            yield from _variants(["dioph"] + gens + ["--target", point], small, ("0",))
        yield from _variants(["verify"] + gens + ["--margin", "0"], small, ("0",))
    for text in SLOW_DEFAULT_BUDGET:
        yield from _variants(["analyze"] + text.split(), (None,))
    for text in systems:
        gens = text.split()
        margin = ["--margin", "1"] if len(gens[0].split(",")) >= 3 else []
        yield from _variants(["verify"] + gens + margin)
    for text in BEYOND_FAILURE:
        for command in ("analyze", "verify"):
            yield from _variants([command] + text.split(), (None,))
    for text in SUBSET_FALLBACK:
        yield from _variants(["analyze"] + text.split() + ["--allow-subset"], ("0",), ("0",))
    for text in CURVES:
        yield from _variants(["curve"] + text.split(), (None, "0"))
    for text in QUASI:
        yield from _variants(["quasi"] + text.split(), (None, "0"))
    for argv in LONG + ERRORS:
        yield from _variants(argv, (None,))


def _stored(key: str, text: str) -> dict:
    if len(text) > INLINE_LIMIT:
        return {f"{key}_sha256": hashlib.sha256(text.encode()).hexdigest()}
    return {key: text}


def record(argv: list[str]) -> dict:
    """Run ``argv`` through ``cli.main`` in-process and return the entry."""
    from affsemi import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {
        "argv": list(argv),
        "code": code,
        **_stored("stdout", out.getvalue()),
        **_stored("stderr", err.getvalue()),
    }


def main() -> int:
    old = {}
    if CORPUS.exists():
        for line in CORPUS.read_text().splitlines():
            entry = json.loads(line)
            old[tuple(entry["argv"])] = entry
    entries = [record(argv) for argv in argvs()]
    with CORPUS.open("w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    moved = [e for e in entries if old.get(tuple(e["argv"]), e) != e]
    for entry in moved:
        print("moved:", " ".join(entry["argv"]))
    print(f"{len(entries)} entries written, {len(moved)} moved", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
