"""Replay the CLI behaviour corpus (``tests/fixtures/corpus.jsonl``).

Every recorded argv is run through ``cli.main`` in-process; the exit code,
stdout and stderr must match the record byte for byte.  Regenerate with
``tests/make_corpus.py`` only for an intended behaviour change.
"""

import json

from tests.make_corpus import CORPUS, record


def test_every_entry_replays_byte_identical():
    entries = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    assert len(entries) > 900
    differing = [
        " ".join(entry["argv"])
        for entry in entries
        if record(entry["argv"]) != entry
    ]
    assert not differing, f"{len(differing)} entries differ:\n" + "\n".join(differing)
